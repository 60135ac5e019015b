"""Persistent controller state in the coordination store (§2.3, §5).

TROPIC controllers keep only soft state in memory; everything needed to
resume execution after a leader failure lives in the replicated store:

* one document per transaction (state, arguments, execution log, read/write
  sets, timestamps),
* the latest data-model checkpoint plus an *applied log* of transactions
  committed since the checkpoint before it (a write-ahead structure the
  new leader replays, past the latest checkpoint, to rebuild the logical
  model; the older interval lets read replicas catch up across a
  checkpoint),
* the set of paths fenced off by cross-layer inconsistencies, and
* the TERM/KILL signal board.

Write-path performance (§6.1 identifies coordination I/O as a dominant
cost) is addressed on two fronts:

* **group commit** — every store write issued during one controller step
  (or recovery, KILL, TERM) is buffered into one write batch (:meth:`KVStore.batch`) and committed
  as a single multi-op round-trip (:meth:`TropicStore.commit_batches`);
* **incremental checkpoints** — instead of re-serialising the whole data
  model, a checkpoint persists a ``checkpoint/meta`` document plus one
  ``checkpoint/sub/<name>`` document per *top-level subtree*, and only the
  subtrees dirtied since the previous checkpoint are rewritten.

The checkpoint + applied-log layout is the replayable record both leader
failover (:mod:`repro.core.recovery`) and the read replicas
(:mod:`repro.core.replica`) rebuild models from; see
``docs/architecture.md#persistence-layout``.
"""

from __future__ import annotations

import time
from typing import Any
from urllib.parse import quote

from repro.common.jsonutil import dumps
from repro.coordination.kvstore import KVStore
from repro.core.txn import Transaction, TransactionState
from repro.datamodel.snapshot import (
    node_info,
    restore_from_parts,
    snapshot_root_info,
    snapshot_unit,
)
from repro.datamodel.tree import DataModel

def _applied_key_seq(key: str) -> int:
    """The sequence number an applied-log key embeds (``e-<seq:010d>``,
    the only shape :meth:`TropicStore.record_applied` writes)."""
    return int(key[2:])


class CheckpointStats:
    """Counters describing checkpoint activity (consumed by metrics)."""

    __slots__ = ("checkpoints", "full_checkpoints", "subtrees_written",
                 "subtrees_skipped", "bytes_serialized", "seconds", "last_seconds")

    def __init__(self) -> None:
        self.checkpoints = 0
        self.full_checkpoints = 0
        self.subtrees_written = 0
        self.subtrees_skipped = 0
        self.bytes_serialized = 0
        self.seconds = 0.0
        self.last_seconds = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class TropicStore:
    """Typed facade over the KV store for controller/worker persistence."""

    TXN_PREFIX = "txns"
    APPLIED_PREFIX = "applied"
    SIGNAL_PREFIX = "signals"
    CHECKPOINT_META = "checkpoint/meta"
    CHECKPOINT_SUB_PREFIX = "checkpoint/sub"

    def __init__(self, kv: KVStore, shard_id: int | None = None, num_shards: int | None = None):
        self.kv = kv
        #: Shard identity stamped into checkpoint metadata (sharded
        #: deployments).  Recovery refuses a checkpoint stamped for a
        #: different shard layout — a misconfigured ``num_shards`` across a
        #: restart would silently re-route subtrees between lock domains.
        self.shard_id = shard_id
        self.num_shards = num_shards
        #: The last sequence number this writer's own record_applied
        #: issued; dropped on every leadership change (reset_applied_seq).
        #: Replicas never write, so their applied_seq() reads the store.
        self._applied_seq: int | None = None
        #: The fenced set this writer last saved or loaded (``None``
        #: before either).  On a leader it is the set the model carries,
        #: so a checkpoint records it without walking the model.
        self._fenced: list[str] | None = None
        self.checkpoint_stats = CheckpointStats()

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Commit any pending batched writes immediately (keeps the batch
        scope open).  No code path calls it any more; it stays because
        ``bench/tracing.py`` wraps it by attribute name."""
        return self.kv.flush()

    def commit_batches(self, batches: list[Any]) -> int:
        """Commit detached write batches, one ``multi`` each (see
        :meth:`KVStore.commit_batch`); ``Controller._commit`` commits each
        step's, recovery's, KILL's and TERM's one batch here."""
        # bench/tracing.py wraps this method (and flush) by attribute name
        # to attribute the controller's group commits to the persistence
        # layer.
        return sum(self.kv.commit_batch(batch) for batch in batches)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def save_transaction(self, txn: Transaction) -> None:
        """Persist ``txn``'s whole document (rides any enclosing batch)."""
        self.kv.put(f"{self.TXN_PREFIX}/{txn.txid}", txn.to_dict())

    def reset_applied_seq(self) -> None:
        """Drop the cached applied-log sequence number, so the next
        :meth:`record_applied` re-reads it from the store.

        Must be called on leadership changes: another leader may have
        appended to the applied log since this writer last did.  A failed
        commit reaches it too — the controller demotes or re-recovers
        after any failed step — since the cached number may then count an
        append the store never took."""
        self._applied_seq = None

    def load_transaction(self, txid: str) -> Transaction | None:
        data = self.kv.get(f"{self.TXN_PREFIX}/{txid}")
        if data is None:
            return None
        return Transaction.from_dict(data)

    def transaction_ids(self) -> list[str]:
        return self.kv.keys(self.TXN_PREFIX)

    def load_all_transactions(self) -> list[Transaction]:
        return [
            Transaction.from_dict(value)
            for _, value in self.kv.items(self.TXN_PREFIX)
            if value is not None
        ]

    def load_active_transactions(self) -> list[Transaction]:
        """Transactions that still occupy the logical layer (non-terminal)."""
        return [txn for txn in self.load_all_transactions() if not txn.is_terminal]

    def delete_transaction(self, txid: str) -> None:
        self.kv.delete(f"{self.TXN_PREFIX}/{txid}", recursive=True)

    def count_by_state(self) -> dict[str, int]:
        counts: dict[str, int] = {state.value: 0 for state in TransactionState}
        for txn in self.load_all_transactions():
            counts[txn.state.value] += 1
        return counts

    # ------------------------------------------------------------------
    # Idempotency-token ack index
    # ------------------------------------------------------------------
    #
    # ``tokens/<token> → {token, txid, state}`` records the terminal
    # outcome of every *tokened* submission.  The entry rides the same
    # group commit as the COMMITTED (or ABORTED/FAILED) state transition,
    # so it is exactly as durable as the ack itself: a client that lost
    # the notification to a crash after the commit re-submits under the same
    # token and the platform answers from this index instead of
    # double-applying.  Token-less submissions never touch the index —
    # the hot path is unchanged.

    TOKEN_PREFIX = "tokens"

    @staticmethod
    def token_key(token: str) -> str:
        """Store key for a token (percent-escaped: tokens are free-form
        client strings and must not smuggle path separators)."""
        return quote(token, safe="")

    def record_token(self, token: str, txid: str, state: str) -> None:
        """Persist one token→txid ack entry (rides the enclosing batch)."""
        self.kv.put(
            f"{self.TOKEN_PREFIX}/{self.token_key(token)}",
            {"token": token, "txid": txid, "state": state},
        )

    def lookup_token(self, token: str) -> dict[str, Any] | None:
        """The ack entry for ``token`` (``{token, txid, state}``), if any."""
        return self.kv.get(f"{self.TOKEN_PREFIX}/{self.token_key(token)}")

    # ------------------------------------------------------------------
    # Dispatch epochs + worker claim records
    # ------------------------------------------------------------------
    #
    # A STARTED state and its phyQ execute item commit in one ``multi``,
    # so no dispatch is ever lost.  Two records make each item execute
    # once among workers that take it concurrently:
    #
    # * every leadership bumps a durable *dispatch epoch* once at takeover
    #   and carries it in its execute messages, and
    # * a worker persists a *claim record* (``claims/<txid>``, stamped with
    #   the message's epoch) atomically with the phyQ item delete (one
    #   ``multi``) before executing; the create-if-absent lets exactly one
    #   worker win.
    #
    # Cost discipline: the epoch costs one write per takeover, the claim
    # rides the worker's existing item delete in one ``multi``, and claim
    # cleanup rides the quiesce-point checkpoint — write round-trips per
    # commit are unchanged.

    CLAIM_PREFIX = "claims"

    def dispatch_epoch(self) -> int:
        """The current leadership dispatch epoch (0 before any leader)."""
        return int(self.kv.get("meta/dispatch_epoch", 0))

    def bump_dispatch_epoch(self) -> int:
        """Advance the dispatch epoch (one write, joining the open batch:
        called once per leader takeover, inside recovery's commit)."""
        epoch = self.dispatch_epoch() + 1
        self.kv.put("meta/dispatch_epoch", epoch)
        return epoch

    def claim_key(self, txid: str) -> str:
        """Absolute coordination path of the claim record for ``txid``."""
        return self.kv.full_key(f"{self.CLAIM_PREFIX}/{txid}")

    def ensure_claim_root(self) -> None:
        """Create the claims parent so atomic claim creates cannot fail on
        a missing parent (one-time, at worker startup)."""
        self.kv.client.ensure_path(self.kv.full_key(self.CLAIM_PREFIX))

    def load_claim(self, txid: str) -> dict[str, Any] | None:
        return self.kv.get(f"{self.CLAIM_PREFIX}/{txid}")

    def clear_claims(self) -> int:
        """Garbage-collect every claim record (the claims *root* survives,
        so worker claim creates never lose their parent).

        Safe only at a quiesce point (no STARTED transaction outstanding):
        a terminal transaction's claim is dead weight, and in-flight
        transactions — whose claims keep a second worker off them — do not
        exist at a quiesce point.  Riding the checkpoint keeps the per-commit write
        path free of claim-cleanup deletes.  The deletes are grouped into
        one multi (joining any enclosing batch) instead of one round-trip
        per claim."""
        removed = 0
        with self.kv.batch():
            for key in self.kv.keys(self.CLAIM_PREFIX):
                self.kv.delete(f"{self.CLAIM_PREFIX}/{key}")
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Checkpoint + applied log (write-ahead structure for recovery)
    # ------------------------------------------------------------------

    def save_checkpoint(self, model: DataModel, applied_seq: int) -> None:
        """Write a *full* checkpoint (every checkpoint unit)."""
        self._write_checkpoint(
            model, applied_seq, full=True, dirty_tops=set(), dirty_pairs=set()
        )

    def save_checkpoint_incremental(self, model: DataModel, applied_seq: int) -> int:
        """Write a checkpoint re-serialising only the second-level units
        dirtied since the last one (per the model's dirty tracking); falls
        back to a full write when the model is marked all-dirty.  Returns
        the number of unit documents written."""
        all_dirty, dirty_tops, dirty_pairs = model.dirty_state()
        return self._write_checkpoint(
            model, applied_seq, full=all_dirty,
            dirty_tops=dirty_tops, dirty_pairs=dirty_pairs,
        )

    def _write_checkpoint(
        self,
        model: DataModel,
        applied_seq: int,
        full: bool,
        dirty_tops: set[str],
        dirty_pairs: set[tuple[str, str]],
    ) -> int:
        started = time.perf_counter()
        stats = self.checkpoint_stats
        root = model.root
        tops_meta = {
            name: {"info": node_info(top), "children": sorted(top.children)}
            for name, top in sorted(root.children.items())
        }
        meta = {
            "applied_seq": applied_seq,
            "root": snapshot_root_info(model),
            "tops": tops_meta,
        }
        if self.shard_id is not None:
            meta["shard"] = {"shard_id": self.shard_id, "num_shards": self.num_shards}
        if self._fenced is not None:
            meta["fenced"] = self._fenced
        current_pairs = {
            (top, child)
            for top, entry in tops_meta.items()
            for child in entry["children"]
        }
        previous = self.kv.get(self.CHECKPOINT_META)
        previous_pairs: set[tuple[str, str]] = set()
        if previous:
            for top, entry in (previous.get("tops") or {}).items():
                for child in entry.get("children", []):
                    previous_pairs.add((top, child))
        if full:
            to_write = set(current_pairs)
        else:
            to_write = dirty_pairs & current_pairs
            # A dirty top-level node invalidates all its units (e.g. after
            # a subtree replacement), and units that appeared since the
            # last checkpoint must be written even if nothing marked them.
            to_write.update(p for p in current_pairs if p[0] in dirty_tops)
            to_write.update(current_pairs - previous_pairs)
        to_delete = previous_pairs - current_pairs
        written = 0
        # Joins the controller's open commit; bootstrap's save_checkpoint
        # runs outside any batch and commits here.
        with self.kv.batch():
            self.kv.put(self.CHECKPOINT_META, meta)
            for top, child in sorted(to_write):
                doc = dumps(snapshot_unit(model, top, child))
                stats.bytes_serialized += len(doc)
                self.kv.put_serialized(
                    f"{self.CHECKPOINT_SUB_PREFIX}/{top}/{child}", doc
                )
                written += 1
            for top, child in sorted(to_delete):
                self.kv.delete(f"{self.CHECKPOINT_SUB_PREFIX}/{top}/{child}")
        # Cleared before an enclosing commit is durable: see
        # Controller._checkpoint for why that is safe.
        model.clear_dirty()
        elapsed = time.perf_counter() - started
        stats.checkpoints += 1
        if full:
            stats.full_checkpoints += 1
        stats.subtrees_written += written
        stats.subtrees_skipped += len(current_pairs) - written
        stats.seconds += elapsed
        stats.last_seconds = elapsed
        return written

    def load_checkpoint(
        self, fenced: list[str] | None = None
    ) -> tuple[DataModel | None, int]:
        """The latest checkpoint's model and ``applied_seq``.

        Given ``fenced`` (the persisted fenced set), the fences the
        checkpoint recorded that ``fenced`` no longer holds are lifted on
        the restored model: a repair may have lifted them since."""
        meta = self.kv.get(self.CHECKPOINT_META)
        if meta is None:
            return None, 0
        tops = meta.get("tops") or {}
        units: dict[tuple[str, str], Any] = {}
        for top, entry in tops.items():
            for child in entry.get("children", []):
                doc = self.kv.get(f"{self.CHECKPOINT_SUB_PREFIX}/{top}/{child}")
                if doc is not None:
                    units[(top, child)] = doc
        model = restore_from_parts(
            meta.get("root") or {},
            {name: entry.get("info") or {} for name, entry in tops.items()},
            units,
        )
        if fenced is not None:
            for path in set(meta.get("fenced", ())).difference(fenced):
                if model.exists(path):
                    model.clear_inconsistent(path)
        return model, int(meta.get("applied_seq", 0))

    def applied_seq(self) -> int:
        return int(self.kv.get("applied_seq", 0))

    def applied_entries(self, after_seq: int = 0) -> list[tuple[int, str]]:
        """``(seq, txid)`` pairs of the applied log after ``after_seq``, in
        commit order.  Shared by failover recovery and by read replicas
        tailing this shard's committed-transaction stream.  The log holds
        every entry after the checkpoint *before* the latest one (the
        controller's truncation lags by one checkpoint), so a reader less
        than one checkpoint interval behind finds its next entry here.
        Sequence numbers are dense (one per commit), so a reader holding
        watermark ``W`` that observes a first entry ``> W + 1`` knows a
        checkpoint truncated past it and must re-bootstrap from the
        checkpoint.

        Entry keys embed the sequence number (``e-<seq:010d>``), so a
        tailing reader pays one listing plus one document read *per new
        entry* — not per retained entry — keeping frequent replica
        refreshes proportional to the tail they catch up on."""
        return [
            (int(record["seq"]), record["txid"])
            for record in self.applied_records(after_seq)
        ]

    def applied_records(self, after_seq: int = 0) -> list[dict[str, Any]]:
        """Full applied-log records after ``after_seq``, in commit order.

        Cross-shard commits carry ``participants`` (sorted shard ids) and
        ``coordinator`` stamped at :meth:`record_applied` time, so a reader
        can recognise a 2PC commit from the entry alone — even after the
        transaction document itself has been garbage-collected — which is
        what the decision-log-aware read fence keys on."""
        records: list[dict[str, Any]] = []
        for key in self.kv.keys(self.APPLIED_PREFIX):
            if _applied_key_seq(key) <= after_seq:
                continue
            value = self.kv.get(f"{self.APPLIED_PREFIX}/{key}")
            if value is not None:  # truncated since the listing
                records.append(value)
        records.sort(key=lambda record: int(record["seq"]))
        return records

    def record_applied(
        self,
        txid: str,
        participants: list[int] | None = None,
        coordinator: int | None = None,
    ) -> int:
        """Append ``txid`` to the applied log; returns its sequence number.

        For cross-shard commits the caller passes the participant set and
        coordinator so the entry self-describes as one half of a 2PC
        commit (see :meth:`applied_records`); single-shard commits write
        the minimal record."""
        last = self._applied_seq
        seq = (self.applied_seq() if last is None else last) + 1
        entry: dict[str, Any] = {"seq": seq, "txid": txid}
        if participants is not None and len(participants) > 1:
            entry["participants"] = sorted(int(p) for p in participants)
            if coordinator is not None:
                entry["coordinator"] = int(coordinator)
        self.kv.put(f"{self.APPLIED_PREFIX}/e-{seq:010d}", entry)
        self.kv.put("applied_seq", seq)
        self._applied_seq = seq
        return seq

    def applied_since(self, seq: int) -> list[str]:
        """Transaction ids applied after sequence number ``seq``, in order."""
        return [txid for _, txid in self.applied_entries(seq)]

    def truncate_applied(self, upto_seq: int) -> int:
        """Drop applied-log entries with sequence <= ``upto_seq`` (a
        checkpoint has captured their effects; the controller passes the
        previous checkpoint's sequence number).  The sequence comes from
        the key name, as in :meth:`applied_records`.  The deletes are
        grouped into one multi-op commit.  Returns entries removed."""
        removed = 0
        with self.kv.batch():
            for key in self.kv.keys(self.APPLIED_PREFIX):
                if _applied_key_seq(key) <= upto_seq:
                    self.kv.delete(f"{self.APPLIED_PREFIX}/{key}")
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    # Inconsistency fencing (§4)
    # ------------------------------------------------------------------

    def save_inconsistent_paths(self, paths: list[str]) -> None:
        self._fenced = sorted(set(paths))
        self.kv.put("inconsistent", self._fenced)

    def load_inconsistent_paths(self) -> list[str]:
        self._fenced = list(self.kv.get("inconsistent", []))
        return list(self._fenced)

    # ------------------------------------------------------------------
    # Signals (§4)
    # ------------------------------------------------------------------

    def set_signal(self, txid: str, signal: str) -> None:
        self.kv.put(f"{self.SIGNAL_PREFIX}/{txid}", signal)

    def get_signal(self, txid: str) -> str | None:
        return self.kv.get(f"{self.SIGNAL_PREFIX}/{txid}")

    def watch_signals(self, watcher: Any) -> list[str] | None:
        """Transaction ids with a posted signal (one listing round-trip),
        arming a one-shot child watch that fires on the next post or
        clear; ``None`` before the first signal ever posted."""
        return self.kv.watch_children(self.SIGNAL_PREFIX, watcher)

    def clear_signal(self, txid: str) -> None:
        self.kv.delete(f"{self.SIGNAL_PREFIX}/{txid}")

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def put_meta(self, key: str, value: Any) -> None:
        self.kv.put(f"meta/{key}", value)

    def get_meta(self, key: str, default: Any = None) -> Any:
        return self.kv.get(f"meta/{key}", default)

    def io_stats(self) -> dict[str, Any]:
        """Write-path counters for the metrics collectors."""
        stats = dict(self.kv.io_stats())
        stats["checkpoint"] = self.checkpoint_stats.as_dict()
        return stats
