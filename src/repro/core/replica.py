"""Per-shard read replicas: fleet-wide reads without hosting every shard.

See ``docs/architecture.md#the-read-path-replicas-and-the-readproxy`` for
the design, the staleness matrix and the degrade ladder.

Each controller shard is authoritative for its own subtrees, so a process
that does not host every shard would otherwise merge foreign subtrees at
their bootstrap-frozen contents.  A :class:`ReadReplica` tails one
shard's store namespace and maintains a local copy of that shard's
committed model, so any process can serve fleet reads while the shard
leaders keep exclusive ownership of the write path.  The same replica is
the fallback rung of ``TropicPlatform.fleet_view`` for a hosted shard
whose leader is unreachable.

The replica rebuilds the model exactly the way leader failover does —
*checkpoint + committed-log replay* — by reusing the same readers
(:meth:`~repro.core.persistence.TropicStore.load_checkpoint` and
:func:`~repro.core.recovery.replay_committed`), so a replica view and a
recovered leader can never disagree by construction.  Catch-up is
watch-driven, not polled:

* a **child watch** on the shard's applied-log prefix fires when the
  leader's group commit appends new committed transactions, and
* a **data watch** on ``checkpoint/meta`` fires when a quiesce-point
  checkpoint rewrites (and truncates) the log.

A checkpoint truncates the log only up to the checkpoint *before* it, so
a replica less than one checkpoint interval behind crosses a checkpoint
by plain catch-up.  Only a replica further behind finds a gap and
re-bootstraps, as does one that reaches an entry with no transaction
document (an applied reload writes one before its checkpoint).

While neither watch has fired, :meth:`ReadReplica.refresh` returns without
issuing a single coordination operation — an idle replica is free.

Consistency contract: the replica applies **only committed transactions**,
in commit order, and exposes a monotonic ``applied_txn`` watermark (the
applied-log sequence number its model reflects).  It never sees simulated
in-flight effects (those live only in the leader's memory), never goes
backwards (a checkpoint covers every applied entry truncated behind it),
and is *bounded-stale*: the leader's group commit makes the
applied entry durable before the client is acknowledged, so a replica
that refreshes after an acknowledged commit observes it.

Readers take :meth:`ReadReplica.snapshot`, an **O(1) copy-on-write fork**
of the model (structural sharing; refreshes path-copy what they change).
The read fence (:mod:`repro.core.readfence`) aligns cross-shard commits
across replicas through the atomicity barriers and early applies below.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.analysis.recorder import traced
from repro.core.persistence import TropicStore
from repro.core.procedures import ProcedureRegistry
from repro.core.recovery import replay_committed
from repro.core.simulation import LogicalExecutor
from repro.core.txn import TransactionState
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel


@dataclass
class Barrier:
    """An open atomicity barrier: a cross-shard 2PC commit this replica
    has applied whose other participants have not yet been confirmed
    visible by the read fence.

    The fence advances a lagging participant past the commit, or degrades
    the shards it cannot align to partial for the view.  Barriers are
    bounded (:data:`ReadReplica.BARRIER_WINDOW`); an evicted barrier is
    simply no longer checked.
    """

    txid: str
    participants: tuple
    coordinator: int | None


class ReadReplica:
    """A read-only tail of one shard's committed transaction stream.

    The replica holds a private :class:`~repro.datamodel.tree.DataModel`
    rebuilt from the shard's persistent store; it never writes to the
    store and never shares node objects with a controller.  Callers must
    treat the returned model as read-only (clone before mutating).
    """

    #: Most open barriers retained.
    BARRIER_WINDOW = 64
    #: Most recent commit txids remembered for the fence's visibility check.
    RECENT_TXIDS = 1024

    def __init__(
        self,
        store: TropicStore,
        schema: ModelSchema,
        procedures: ProcedureRegistry,
        shard_id: int = 0,
        counters: Any | None = None,
    ):
        self.store = store
        self.schema = schema
        self.procedures = procedures
        self.shard_id = shard_id
        #: Optional resilience counters (``watch_rearms`` is bumped per
        #: re-registration after the initial arming).
        self.counters = counters
        self._model: DataModel | None = None
        self._executor: LogicalExecutor | None = None
        self._applied_txn = 0
        self._has_checkpoint = False
        #: Set by the coordination watches; a refresh with the flag clear
        #: (and watches armed) is a guaranteed no-op and issues zero
        #: coordination operations.
        self._pending = threading.Event()
        #: Per-target armed flags: one-shot watches are re-registered only
        #: after they fire, so a long-tailing replica holds at most one
        #: live registration per target instead of accumulating one per
        #: refresh (ensemble watch lists are append-only until they fire).
        self._applied_watch_armed = False
        self._meta_watch_armed = False
        self._lock = traced(threading.RLock(), "ReadReplica._lock")
        #: Open cross-shard atomicity barriers, keyed by txid, in opening
        #: order (the read fence consumes these; see :class:`Barrier`).
        self._barriers: OrderedDict[str, Barrier] = OrderedDict()
        #: Bounded txid -> applied-log seq memory of recent commits; the
        #: fence's "has this replica seen txn T" check.
        self._recent_txids: OrderedDict[str, int] = OrderedDict()
        #: Cross-shard commits applied *early* (prepared slice applied on
        #: proof of a durable commit decision) whose own applied-log entry
        #: has not been processed yet.
        self._early_applied: set[str] = set()
        #: Bumped per early application: the model can change without the
        #: ``applied_txn`` watermark moving, and cache keys must see that.
        self._early_seq = 0
        self.stats: dict[str, int] = {
            "bootstraps": 0,
            "catchup_batches": 0,
            "txns_applied": 0,
            "refreshes_skipped": 0,
            "barriers_opened": 0,
            "early_applies": 0,
        }

    # ------------------------------------------------------------------
    # Watch plumbing
    # ------------------------------------------------------------------

    def _on_applied_event(self, _event: Any) -> None:
        self._applied_watch_armed = False
        self._pending.set()

    def _on_meta_event(self, _event: Any) -> None:
        self._meta_watch_armed = False
        self._pending.set()

    def _arm_watches(self) -> None:
        """Register one-shot watches on the applied-log prefix (new commits)
        and the checkpoint meta document (checkpoint/truncation).  Called at
        the start of every real refresh, *before* the state is read, so a
        write landing between the read and the next refresh is never lost —
        it fires the fresh watch and marks the replica pending.  A watch
        that has not fired is still live and is not re-registered.

        Each armed flag is set *before* its registration call (the watch
        may fire from another thread the instant it is registered, and that
        firing clears the flag — setting it afterwards would overwrite the
        clear and strand the replica) but rolled back if the registration
        itself fails (e.g. the session expired mid-call): a stale-true flag
        with no live watch would make every later refresh skip
        re-registration and the replica would never wake again."""
        kv = self.store.kv
        if not self._applied_watch_armed:
            self._applied_watch_armed = True
            try:
                kv.watch_children(TropicStore.APPLIED_PREFIX, self._on_applied_event)
            except Exception:
                self._applied_watch_armed = False
                raise
            self._count_rearm()
        if not self._meta_watch_armed:
            self._meta_watch_armed = True
            try:
                kv.watch(TropicStore.CHECKPOINT_META, self._on_meta_event)
            except Exception:
                self._meta_watch_armed = False
                raise
            self._count_rearm()

    def _count_rearm(self) -> None:
        if self.counters is not None and self.stats["bootstraps"] > 0:
            # Only re-registrations count: the first arming of a fresh
            # replica is bootstrap, not recovery.
            self.counters.watch_rearms += 1

    # ------------------------------------------------------------------
    # Catch-up
    # ------------------------------------------------------------------

    @property
    def applied_txn(self) -> int:
        """Monotonic watermark: the applied-log sequence number (number of
        committed transactions since the epoch of this shard) the current
        model reflects."""
        return self._applied_txn

    @property
    def has_checkpoint(self) -> bool:
        """Whether the tailed namespace has ever been bootstrapped by an
        owner process.  ``False`` means the replica's model is an empty
        placeholder, *not* an authoritative "this shard owns nothing" —
        consumers (the ReadProxy merge) must fall back to their own
        bootstrap-frozen copy instead of trusting it."""
        return self._has_checkpoint

    def lag(self) -> int:
        """Commits the leader has applied that this replica has not yet
        (one coordination read)."""
        return max(self.store.applied_seq() - self._applied_txn, 0)

    def refresh(self, force: bool = False) -> bool:
        """Catch up with the shard's committed-transaction stream.

        Returns ``True`` if the model advanced (or was [re]bootstrapped).
        When the watches are armed and have not fired, this is a free
        no-op — zero coordination operations — unless ``force`` is set.
        """
        # repro: allow(blocking-under-lock) -- refresh serialises model mutation against snapshot forks; bootstrap/catch-up reads must happen under it or a concurrent snapshot() could fork a half-applied model
        with self._lock:
            if self._model is not None and not force and not self._pending.is_set():
                self.stats["refreshes_skipped"] += 1
                return False
            # Cleared before the reads, so a write landing during them
            # marks the replica pending again; set again if they fail, so
            # the next refresh retries instead of skipping until the next
            # watch fires.
            self._pending.clear()
            try:
                self._arm_watches()
                if self._model is None or not self._has_checkpoint:
                    # No checkpoint seen yet: the namespace may have just
                    # been bootstrapped by its owner (the checkpoint/meta
                    # watch is what woke us), so rebuild rather than tail
                    # a log that cannot exist before the first checkpoint
                    # does.
                    self._bootstrap_locked()
                    return True
                return self._catch_up_locked()
            except Exception:
                self._pending.set()
                raise

    def _bootstrap_locked(self) -> None:
        """(Re)build the model the way a recovering leader does: latest
        checkpoint (meta + per-unit documents) plus committed-log replay.

        Every store read comes before the first field changes, so a read
        that fails (a transient coordination fault) leaves the replica as
        it was, and the next refresh retries the whole rebuild.  A torn
        rebuild would tail the log from then on without the commits its
        checkpoint covers in the recent-commit memory, and the read fence
        would take this shard for a laggard on each of them."""
        model, checkpoint_seq = self.store.load_checkpoint()
        has_checkpoint = model is not None
        model = model if model is not None else DataModel()
        executor = LogicalExecutor(model, self.schema, self.procedures)
        tail, replayed = replay_committed(self.store, executor, checkpoint_seq)
        last_seq = int(tail[-1]["seq"]) if tail else checkpoint_seq
        # Cross-shard commits *covered by the checkpoint* need barriers
        # too: a quiesce point only quiesces this shard, so the checkpoint
        # can contain this shard's half of a commit whose other
        # participant has not applied its half yet.  Their applied-log
        # entries may be truncated, but a locally COMMITTED document proves
        # the commit is in the rebuilt model (the COMMITTED write and the
        # applied entry share a group-commit batch, so checkpoint + replay
        # always covers it) — surface it to the fence, and stamp the
        # recent-txid memory so ``has_applied`` reports the coverage.
        covered = sorted(
            (
                txn
                for txn in self.store.load_all_transactions()
                if txn.state is TransactionState.COMMITTED
                and txn.participants is not None
                and len(txn.participants) > 1
            ),
            key=lambda t: t.txid,
        )
        early_txids = sorted(self._early_applied)
        early = self.store.load_transactions(early_txids)
        # No store access below: the rebuilt state is swapped in whole.
        self._model = model
        self._executor = executor
        self._has_checkpoint = has_checkpoint
        for record in tail:
            self._remember_txid(record["txid"], last_seq)
        # A checkpoint always covers at least every entry it truncated, so
        # a re-bootstrap can only move the watermark forward; max() guards
        # the monotonicity contract even against a torn meta read.
        self._applied_txn = max(self._applied_txn, last_seq)
        # The rebuilt model's barriers are re-derived below from what it
        # covers.  Cross-shard commits in the replayed tail still need
        # barriers — their other participants may lag, and the fence can
        # only align what it can see.
        self._barriers.clear()
        for record in tail:
            participants = tuple(int(p) for p in record.get("participants", ()))
            if len(participants) > 1:
                self._open_barrier_locked(
                    record["txid"], participants, record.get("coordinator")
                )
        # Checkpoint-covered barriers are capped to the window's remaining
        # capacity, newest commits first, so historical documents cannot
        # evict the replayed-tail barriers opened above.
        for txn in covered:
            self._remember_txid(txn.txid, self._applied_txn)
        capacity = max(0, self.BARRIER_WINDOW - len(self._barriers))
        for txn in covered[-capacity:] if capacity else []:
            self._open_barrier_locked(
                txn.txid, tuple(int(p) for p in txn.participants), txn.coordinator
            )
        # Early-applied commits whose document is still PREPARED are not in
        # the applied log, hence not covered by checkpoint + replay: carry
        # them over the rebuild (monotonic reads — a fenced view must not
        # lose a commit it already served).  COMMITTED documents wrote
        # their applied entry in the same group-commit batch, so the
        # rebuild covered them; drop the flag.
        for txid in early_txids:
            doc = early.get(txid)
            if doc is not None and doc.state is TransactionState.PREPARED:
                executor.apply_log(doc.log)
                self._early_seq += 1
            else:
                self._early_applied.discard(txid)
        self.stats["bootstraps"] += 1
        self.stats["txns_applied"] += len(replayed)

    def _catch_up_locked(self) -> bool:
        records = self.store.applied_records(self._applied_txn)
        if not records:
            if self.store.applied_seq() > self._applied_txn:
                # The log advanced past us and a checkpoint truncated the
                # entries we were missing; the checkpoint has their effects.
                self._bootstrap_locked()
                return True
            return False
        if int(records[0]["seq"]) > self._applied_txn + 1:
            # Gap: we fell more than one checkpoint interval behind, and
            # truncation removed entries we never applied.  Re-bootstrap
            # (the checkpoint covers the gap).
            self._bootstrap_locked()
            return True
        docs = self.store.load_transactions(record["txid"] for record in records)
        applied = 0
        for record in records:
            seq, txid = int(record["seq"]), record["txid"]
            txn = docs.get(txid)
            if txn is None:
                # Applied entry without a readable document (an applied
                # reload's entry, or one that raced a wholesale cleanup):
                # fall back to the checkpoint path.
                self._bootstrap_locked()
                return True
            participants = tuple(
                int(p) for p in record.get("participants", txn.participants or ())
            )
            if txid in self._early_applied:
                # The read fence already applied this commit's prepared
                # slice; re-applying the log would double-apply it.  Only
                # the watermark moves — the model is already there.
                self._early_applied.discard(txid)
            else:
                if len(participants) > 1:
                    self._open_barrier_locked(
                        txid, participants, record.get("coordinator", txn.coordinator)
                    )
                self._executor.apply_log(txn.log)
            self._applied_txn = seq
            self._remember_txid(txid, seq)
            applied += 1
        self.stats["catchup_batches"] += 1
        self.stats["txns_applied"] += applied
        return applied > 0

    # ------------------------------------------------------------------
    # Cross-shard atomicity surface (the read fence)
    # ------------------------------------------------------------------

    def _remember_txid(self, txid: str, seq: int) -> None:
        self._recent_txids[txid] = seq
        self._recent_txids.move_to_end(txid)
        while len(self._recent_txids) > self.RECENT_TXIDS:
            self._recent_txids.popitem(last=False)

    def _open_barrier_locked(
        self, txid: str, participants: tuple, coordinator: int | None
    ) -> None:
        if txid in self._barriers:
            return
        self._barriers[txid] = Barrier(
            txid=txid,
            participants=tuple(sorted(int(p) for p in participants)),
            coordinator=None if coordinator is None else int(coordinator),
        )
        self.stats["barriers_opened"] += 1
        while len(self._barriers) > self.BARRIER_WINDOW:
            self._barriers.popitem(last=False)

    def has_applied(self, txid: str) -> bool:
        """Whether this replica's model includes commit ``txid``, judged
        from its bounded recent-commit memory (the fence only asks about
        commits at the replication frontier — its candidates come from
        open barriers, which are recent by construction)."""
        with self._lock:
            return txid in self._recent_txids or txid in self._early_applied

    def early_apply(self, txid: str) -> str:
        """Advance this replica past a cross-shard commit *before* its
        applied-log entry is processed, on the caller's proof of a durable
        commit decision (:meth:`repro.core.twopc.TwoPCLog.
        commit_participants`).

        Applies the prepared slice from this shard's own transaction
        document — the same records the leader will commit — under an
        atomicity barrier.  Returns ``"applied"`` (slice applied early),
        ``"already"`` (the model covers it), or ``"unavailable"`` (no
        usable document; the caller must degrade instead).
        """
        # repro: allow(blocking-under-lock) -- early-apply reads the txn document and applies it as one unit; dropping the lock between the applied-index read and the apply would tear the read-fence barrier
        with self._lock:
            if txid in self._early_applied or txid in self._recent_txids:
                return "already"
            if self._model is None:
                self.refresh(force=True)
                if txid in self._early_applied or txid in self._recent_txids:
                    return "already"
            txn = self.store.load_transaction(txid)
            if txn is None:
                # Never reached this shard (no code deletes a committed
                # participant's document): nothing to apply.
                return "unavailable"
            if txn.state is not TransactionState.PREPARED:
                if txn.state is TransactionState.COMMITTED:
                    # The commit's applied entry is durable (written in the
                    # same group-commit batch as the COMMITTED document);
                    # a forced catch-up picks it up the normal way.  If a
                    # quiesce-point checkpoint already truncated the entry,
                    # the catch-up re-bootstraps and the checkpoint covers
                    # it — either way the model now includes the commit, so
                    # stamp the recent-txid memory or ``has_applied`` would
                    # keep reporting this shard as a laggard and the fence
                    # would spin on the open barrier forever.
                    self.refresh(force=True)
                    self._remember_txid(txid, self._applied_txn)
                    return "already"
                return "unavailable"
            participants = tuple(sorted(int(p) for p in txn.participants or ()))
            self._open_barrier_locked(txid, participants, txn.coordinator)
            self._executor.apply_log(txn.log)
            self._early_applied.add(txid)
            self._early_seq += 1
            self.stats["early_applies"] += 1
            return "applied"

    @property
    def early_seq(self) -> int:
        """Monotonic count of early applications (see :meth:`early_apply`);
        a model-change stamp component alongside ``applied_txn``."""
        return self._early_seq

    def open_barriers(self) -> list[Barrier]:
        """Open atomicity barriers in opening order (oldest first)."""
        with self._lock:
            return list(self._barriers.values())

    def close_barrier(self, txid: str) -> None:
        """Drop the barrier for ``txid`` (the fence confirmed the commit
        visible on every fenced participant)."""
        with self._lock:
            self._barriers.pop(txid, None)

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------

    def model(self, refresh: bool = True) -> DataModel:
        """The replica's *live* model (read-only; clone before mutating).

        With ``refresh=True`` (default) the replica first catches up on any
        watch-signalled changes; when nothing changed this costs zero
        coordination operations.

        Threading contract: the returned tree is mutated **in place** by
        later refreshes, so it is only safe to read from the thread that
        drives this replica's refreshes.  A reader that retains the tree
        across refreshes, or runs concurrently with another refresher
        (e.g. the platform's ``fleet_view``), must use :meth:`snapshot`,
        which clones under the replica lock.
        """
        if refresh or self._model is None:
            self.refresh()
        return self._model

    def snapshot(self) -> tuple[DataModel, int]:
        """An O(1) copy-on-write snapshot of the model plus its watermark,
        for callers that retain the view across refreshes (or mutate it).

        The fork shares every node with the live model; later refreshes
        path-copy the subtrees they touch, so the snapshot stays frozen at
        its watermark while costing a pointer swap under the lock — this
        is what makes a ``fleet_view`` rebuild O(units) pointer grafts
        rather than a deep copy of every shard's model."""
        # repro: allow(blocking-under-lock) -- the clone and its watermark must be read under the same lock hold as the (possibly refreshing) model, or the pair could disagree
        with self._lock:
            model = self.model()
            return model.clone(), self._applied_txn

    def __repr__(self) -> str:
        return (
            f"<ReadReplica shard={self.shard_id} applied_txn={self._applied_txn} "
            f"bootstrapped={self._model is not None}>"
        )
