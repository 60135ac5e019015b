"""Cross-shard two-phase commit across shard leaders (presumed abort).

Sharding leaves transactions spanning shards to a policy: ``reject``
refuses them at submit time, and ``2pc`` (the default) runs this module's
protocol:

* **Roles.**  The submitting router picks the lowest involved shard as the
  *coordinator*; every other involved shard is a *participant*.  The
  coordinator simulates the whole stored procedure against its model,
  splits the resulting execution log and read/write set by owning shard
  (:func:`split_log` / :func:`split_rwset`), and drives the protocol over
  the shard inputQs (``prepare`` / ``vote`` / ``decision`` messages).
* **Prepare records.**  A participant validates its slice against its
  *authoritative* copy of the subtrees it owns (re-applying the log
  actions and re-checking constraints), acquires locks in its own lock
  domain, and persists the slice as a normal per-shard transaction
  document in state ``prepared`` — the transaction document already
  carries everything a 2PC prepare record needs (log, rwset, coordinator,
  participants, attempt).  Only then does it vote yes.
* **Decision log.**  Commit/abort decisions live in the *global* (unsharded)
  coordination namespace (:data:`TWOPC_PREFIX`), the same place as the
  shard map: the coordination service is the one component every shard can
  always reach, so a participant recovering from a crash resolves its
  prepared transactions by reading the decision record — no peer RPC
  needed.  The decision commits in the same ``multi`` as the coordinator's
  terminal document and applied-log entry (the decision log shares the
  shard store's coordination client, so its writes join the controller's
  group commit), and so is durable before it is fanned out and before the
  client is acknowledged.
* **Presumed abort.**  The coordinator logs no "begin" record.  A
  coordinator that fails over while a transaction is still ``preparing``
  aborts it on recovery (writing an abort decision so participants resolve
  quickly); a participant finding no decision record keeps its prepare
  record (and its locks) until one appears.
* **Wound-wait admission.**  Concurrent cross-shard prepares run fully in
  parallel; conflicts are resolved by *txid order* (txids are zero-padded
  monotonic counters, so lexicographic order is transaction age).  On a
  prepare-lock conflict the older transaction wounds a younger
  prepare-phase holder — its coordinator writes an abort decision record,
  releases the attempt's locks everywhere and requeues it behind a seeded
  backoff — while a younger transaction waits for the older holder.
  Wait-for edges therefore always point young → old: no cycles (no
  deadlock), and the oldest active transaction is never wounded, so it
  always progresses (no livelock).  The decision is made locally from
  the lock table's holder txids; no global coordination state exists on
  this path.

The controller routes once, on the shards the simulation touched
(:func:`shards_touched`): when every path lands on the coordinator's own
shard, the transaction takes the ordinary single-shard 3C dispatch; when
a single-shard submission touches other shards, its shard becomes the
coordinator in place.

The protocol, its presumed-abort recovery table and the decision-record
GC are documented in
``docs/architecture.md#cross-shard-transactions-two-phase-commit``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.coordination.kvstore import KVStore
from repro.core.sharding import is_global_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.persistence import TropicStore
    from repro.core.sharding import ShardMap
    from repro.core.txn import ExecutionLog, ReadWriteSet, Transaction

#: Global (unsharded) coordination namespace holding decision records and
#: checkpoint horizons.
TWOPC_PREFIX = "/tropic/2pc"

DECISION_COMMIT = "commit"
DECISION_ABORT = "abort"


class TwoPCLog:
    """Decision records + checkpoint horizons in the global coordination
    tree.

    Writes join the write batch open on the calling thread, which belongs
    to the coordination client: inside a controller commit, a decision
    record, a horizon and the decision GC ride the same ``multi`` as the
    shard documents they describe, so a decision is durable exactly when
    the coordinator's terminal state is.  Outside a batch (the
    administrative :meth:`retire_shard`) they write at once.

    Decision records are keyed **by coordinator shard**
    (``decisions/shard-<N>/<txid>``), so each shard's GC sweep lists only
    its own records instead of reading every retained record fleet-wide.
    """

    DECISION_PREFIX = "decisions"
    #: Child-name prefix of the per-coordinator directories under
    #: :data:`DECISION_PREFIX`.
    SHARD_DIR_PREFIX = "shard-"

    def __init__(self, kv: KVStore):
        self.kv = kv

    # -- decision records ------------------------------------------------

    def _shard_dir(self, shard: int) -> str:
        return f"{self.DECISION_PREFIX}/{self.SHARD_DIR_PREFIX}{int(shard)}"

    def _decision_key(self, txid: str, coordinator: int) -> str:
        return f"{self._shard_dir(coordinator)}/{txid}"

    def decide(
        self,
        txid: str,
        decision: str,
        coordinator: int,
        participants: Iterable[int] = (),
    ) -> dict[str, Any]:
        """Durably record the outcome of ``txid``.  Idempotent: a decision,
        once written, never changes (recovery may re-write the same value)."""
        record = {
            "txid": txid,
            "decision": decision,
            "coordinator": int(coordinator),
            "participants": sorted(int(s) for s in participants),
        }
        self.kv.put(self._decision_key(txid, coordinator), record)
        return record

    def decision(self, txid: str, coordinator: int | None = None) -> str | None:
        """The recorded decision for ``txid`` (``None`` = presumed open;
        presumed *abort* only once the coordinator is known to have failed
        before logging — which its successor converts into an explicit
        abort record on recovery).

        Callers that know the coordinator (participants and recovering
        leaders always do — it is stamped in the transaction document)
        should pass it: the lookup is then one point read instead of a
        fleet-wide scan.
        """
        record = self.decision_record(txid, coordinator)
        return None if record is None else record.get("decision")

    def decision_record(
        self, txid: str, coordinator: int | None = None
    ) -> dict[str, Any] | None:
        if coordinator is not None:
            return self.kv.get(self._decision_key(txid, coordinator))
        # Coordinator unknown (introspection/tests): every shard directory.
        for child in self.kv.keys(self.DECISION_PREFIX):
            record = self.kv.get(f"{self.DECISION_PREFIX}/{child}/{txid}")
            if record is not None:
                return record
        return None

    def commit_participants(
        self, txid: str, coordinator: int | None = None
    ) -> tuple[int, ...] | None:
        """The sorted participant set of ``txid`` *iff* a durable commit
        decision exists; ``None`` otherwise (open, aborted, or GC'd).

        This is the read API the decision-log-aware read fence uses: a
        non-``None`` return is proof the transaction committed on every
        participant's timeline, so a reader may apply the prepared slice
        on a lagging shard (or must withhold the advanced shard's slice)
        to keep cross-shard reads atomic."""
        record = self.decision_record(txid, coordinator)
        if record is None or record.get("decision") != DECISION_COMMIT:
            return None
        return tuple(sorted(int(s) for s in record.get("participants", ())))

    def clear_decision(self, txid: str, coordinator: int | None = None) -> None:
        """Drop one decision record (the GC below is the systematic path)."""
        record = self.decision_record(txid, coordinator)
        if record is None:
            return
        self.kv.delete(self._decision_key(txid, int(record["coordinator"])))

    # -- decision-record garbage collection -------------------------------
    #
    # Decision records are only ever *needed* by a shard recovering with an
    # unresolved (``prepared`` participant / ``started`` coordinator)
    # document for that txid.  A shard's quiesce-point checkpoint implies it
    # holds no unresolved cross-shard state at all (checkpoints require an
    # empty outstanding set), so a decision is dead once **every
    # participating shard has completed a checkpoint after the decision
    # existed**.  Each shard publishes a monotonically increasing *horizon
    # epoch* at every quiesce-point checkpoint; the coordinator then runs a
    # two-phase mark-and-sweep piggybacked on its own checkpoints (the same
    # cost discipline as the worker-claim GC — nothing rides the per-commit
    # write path):
    #
    # * **mark**: stamp the record with every participant's current horizon
    #   epoch (a participant with no published horizon is stamped -1);
    # * **sweep** (a later checkpoint): delete the record once every
    #   participant's current horizon *exceeds* its stamped epoch — i.e.
    #   each has completed a full quiesce checkpoint after the mark.
    #
    # Liveness after GC is preserved without the record: a participant that
    # prepares against an already-resolved transaction (a stale queued
    # prepare) gets its answer from the coordinator's terminal document via
    # the vote/decision message exchange, and recovering participants
    # re-send their vote.  See docs/architecture.md#decision-record-gc.

    HORIZON_PREFIX = "horizons"
    #: Horizon value published for a permanently decommissioned shard: it
    #: compares greater than every real epoch, so coordinators' sweeps
    #: never wait on a participant that will never checkpoint again.
    RETIRED_HORIZON = 1 << 62

    def publish_horizon(self, shard: int, epoch: int) -> None:
        """Advertise that ``shard`` completed quiesce-point checkpoint number
        ``epoch`` (monotonic per shard; re-publishing an epoch after a crash
        only delays GC, never expedites it)."""
        self.kv.put(f"{self.HORIZON_PREFIX}/shard-{int(shard)}", int(epoch))

    def horizons(self) -> dict[int, int]:
        """Every shard's latest published checkpoint horizon epoch.
        Retired shards report :data:`RETIRED_HORIZON` (always past any
        mark)."""
        out: dict[int, int] = {}
        for key, value in self.kv.items(self.HORIZON_PREFIX):
            if value is None:
                continue
            shard = int(key.rsplit("-", 1)[-1])
            if isinstance(value, dict) and value.get("retired"):
                out[shard] = self.RETIRED_HORIZON
            else:
                out[shard] = int(value)
        return out

    def gc_decisions(self, shard: int) -> int:
        """Mark-and-sweep the decision records coordinated by ``shard``
        (each shard garbage-collects its own transactions' outcomes).
        Returns the number of records deleted.  Callers invoke this from a
        quiesce-point checkpoint only.

        With records keyed by coordinator, the sweep lists only this
        shard's own directory — its cost is proportional to the decisions
        *this shard* retains, not to every retained record fleet-wide.
        """
        horizons = self.horizons()
        shard_dir = self._shard_dir(shard)
        removed = 0
        for txid in self.kv.keys(shard_dir):
            record = self.kv.get(f"{shard_dir}/{txid}")
            if not record:
                continue
            participants = [int(p) for p in record.get("participants") or []]
            mark = record.get("gc_horizons")
            if mark is None:
                record["gc_horizons"] = {
                    str(p): int(horizons.get(p, -1)) for p in participants
                }
                self.kv.put(f"{shard_dir}/{txid}", record)
                continue
            # A retired participant is always past any mark — including a
            # mark that itself stored the retirement sentinel (the record
            # was first marked after the retirement), where the strict
            # ``>`` alone would retain the record forever.
            swept = all(
                horizons.get(p, -(1 << 30)) > int(mark.get(str(p), 1 << 30))
                or horizons.get(p, -(1 << 30)) >= self.RETIRED_HORIZON
                for p in participants
            )
            if swept:
                self.kv.delete(f"{shard_dir}/{txid}")
                removed += 1
        return removed

    # -- administrative shard retirement ----------------------------------

    def retire_shard(self, shard: int) -> dict[str, int]:
        """Administrative sweep for a permanently decommissioned shard
        (``cli ... 2pc-gc --retired-shard N``).

        Normal GC needs the *coordinator* alive to mark and sweep its own
        records, and needs every *participant* to keep publishing horizons
        — a retired shard satisfies neither, so without this sweep its
        records (and any record naming it as participant) are retained
        forever.  Retirement:

        * deletes every decision record the retired shard coordinated
          (its directory) — the only
          reader of a decision is a participant recovering with an
          unresolved prepare for it, and a *permanently* decommissioned
          coordinator's peers were required to resolve or be retired
          before decommissioning (see docs/operations.md), and
        * publishes a retired-horizon sentinel so other coordinators'
          mark-and-sweep stops waiting for the shard's checkpoints.

        Idempotent; returns ``{"records_removed": n, "horizon_retired": 1}``.
        """
        removed = 0
        shard_dir = self._shard_dir(shard)
        for txid in list(self.kv.keys(shard_dir)):
            self.kv.delete(f"{shard_dir}/{txid}")
            removed += 1
        self.kv.put(
            f"{self.HORIZON_PREFIX}/shard-{int(shard)}", {"retired": True}
        )
        return {"records_removed": removed, "horizon_retired": 1}


# ----------------------------------------------------------------------
# Splitting a simulated transaction by owning shard
# ----------------------------------------------------------------------

def owner_of(shard_map: "ShardMap", path: str, coordinator: int) -> int:
    """Owning shard of one log/rwset path; paths above the sharding
    granularity fall to the coordinator (it locks them everywhere via the
    per-shard intention locks anyway)."""
    if is_global_path(path):
        return coordinator
    return shard_map.shard_of(path)


def shards_touched(
    shard_map: "ShardMap", log: "ExecutionLog", rwset: "ReadWriteSet", coordinator: int
) -> set[int]:
    """Every shard owning a path the simulation actually touched.

    This is the authoritative participant set: stored procedures may write
    paths that never appear in their arguments (auto-placement), so the
    submit-time routing decision is only provisional.
    """
    shards = {coordinator}
    for record in log:
        shards.add(owner_of(shard_map, record.path, coordinator))
    for path in rwset.writes | rwset.reads | rwset.constraint_reads:
        shards.add(owner_of(shard_map, path, coordinator))
    return shards


def split_log(
    shard_map: "ShardMap", log: "ExecutionLog", shard: int, coordinator: int
) -> list[dict[str, Any]]:
    """The slice of ``log`` (serialised) acting on paths ``shard`` owns,
    original order and sequence numbers preserved."""
    return [
        record.to_dict()
        for record in log
        if owner_of(shard_map, record.path, coordinator) == shard
    ]


def split_rwset(
    shard_map: "ShardMap", rwset: "ReadWriteSet", shard: int, coordinator: int
) -> dict[str, list[str]]:
    """The slice of ``rwset`` (serialised) that ``shard`` must lock.

    Global paths (at or above the sharding granularity) are included in
    every participant's slice — their intention locks anchor the
    participant's lock tree exactly as they do on the coordinator.
    """

    def keep(path: str) -> bool:
        return is_global_path(path) or shard_map.shard_of(path) == shard

    return {
        "reads": sorted(p for p in rwset.reads if keep(p)),
        "writes": sorted(p for p in rwset.writes if keep(p)),
        "constraint_reads": sorted(p for p in rwset.constraint_reads if keep(p)),
    }


def locate_transaction(
    stores: Mapping[int, "TropicStore"], txid: str
) -> "tuple[int, Transaction] | None":
    """The shard holding the client's document for ``txid``, and that
    document.  A participant holds a prepare-record slice under the same
    txid (no arguments, no result), so the coordinator's copy wins; the
    slice is returned only when the coordinator's shard is not among
    ``stores``."""
    fallback = None
    for shard, store in stores.items():
        txn = store.load_transaction(txid)
        if txn is None:
            continue
        if not txn.is_participant_slice(shard):
            return shard, txn
        fallback = fallback or (shard, txn)
    return fallback
