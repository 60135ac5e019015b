"""The decision-log-aware read fence: cross-shard-atomic replica reads.

A fleet view merges per-shard sources at independent watermarks, so
between a 2PC coordinator's commit and a participant's processing of the
decision, a replica-consistency view could contain exactly one
participant's slice of a cross-shard transaction — a *torn* read that
breaks the atomicity the write path's two-phase commit guarantees.

This module closes that window.  Every :class:`~repro.core.replica.
ReadReplica` opens an :class:`~repro.core.replica.Barrier` when it
applies a cross-shard commit (the applied-log entries are stamped with
the participant set; see :meth:`~repro.core.persistence.TropicStore.
record_applied`).  Before a merge, :func:`fence_replica_sources` walks
the open barriers and, for each commit not yet confirmed on every fenced
participant, either

* **advances** the lagging replica — a forced catch-up, then
  :meth:`~repro.core.replica.ReadReplica.early_apply` of the prepared
  slice once the durable commit decision is verified in the
  :class:`~repro.core.twopc.TwoPCLog` (this is safe precisely because a
  barrier can only exist *after* the coordinator made the commit
  decision durable: decision record first, applied entry second), or
* **degrades** shards to partial consistency for this view, when the
  lagging replica cannot be advanced (decision log unreadable, or no
  usable prepared document): the laggards when a leader-served
  participant already shows the commit, otherwise every replica that
  applied it.  By the same ordering an unreadable decision is a
  transient coordination fault, not an open question about the outcome
  — disclosed staleness instead of silent tearing.

Leader-hosted shards are authoritative and never lag behind a durable
decision's effects on their own slice (a participant leader carries the
slice from PREPARE time), so they auto-confirm.  Shards served at
partial consistency are outside the fence's atomicity domain — their
copies are bootstrap-frozen and disclosed as such in the watermarks.

The fence is cheap when quiescent: with no open barriers it performs no
coordination reads at all, so single-shard workloads pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.replica import Barrier, ReadReplica

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.twopc import TwoPCLog


@dataclass
class FenceResult:
    """Outcome of one fence pass over a set of replica sources."""

    #: Commits whose prepared slice was applied early on a lagging shard.
    advanced: int = 0
    #: Commits checked against the fence (confirmed or acted on).
    checked: int = 0
    #: Shards the caller must degrade to partial consistency for this
    #: view (and must not cache it: the degrade depends on decision-log
    #: reachability, which no source stamp captures).
    degraded: list[int] = field(default_factory=list)


def fence_replica_sources(
    replicas: dict[int, ReadReplica],
    leader_shards: set[int],
    twopc: "TwoPCLog | None",
    max_passes: int = 8,
) -> FenceResult:
    """Align replica sources so no cross-shard commit is half-visible.

    ``replicas`` are the shards about to be merged from read replicas;
    ``leader_shards`` the shards merged from in-process leaders (always
    authoritative).  Confirmed barriers are closed; lagging shards are
    advanced via the decision log; failing that, shards are degraded
    (see the module docstring for the full policy).
    """
    result = FenceResult()
    if not replicas:
        return result
    unresolvable: set[str] = set()
    for _ in range(max_passes):
        # Snapshot the frontier: every cross-shard commit some replica has
        # applied but the fence has not yet confirmed fleet-visible.
        candidates: dict[str, Barrier] = {}
        for replica in replicas.values():
            for barrier in replica.open_barriers():
                if barrier.txid not in unresolvable:
                    candidates.setdefault(barrier.txid, barrier)
        if not candidates:
            break
        progressed = False
        for txid, barrier in candidates.items():
            result.checked += 1
            # A participant outside the fenced sources (partial shard) is
            # bootstrap-frozen and disclosed; it cannot be aligned and
            # does not block confirmation of the shards that can be.
            laggards = [
                shard
                for shard in barrier.participants
                if shard in replicas and not replicas[shard].has_applied(txid)
            ]
            if not laggards:
                for shard in barrier.participants:
                    if shard in replicas:
                        replicas[shard].close_barrier(txid)
                progressed = True
                continue
            committed = (
                twopc.commit_participants(txid, barrier.coordinator)
                if twopc is not None
                else None
            )
            if committed is None:
                # No durable commit decision readable — yet some shard
                # applied the commit, so the decision *was* made and this
                # log is unreachable or GC'd.  Degrade instead of
                # advancing on faith.
                _degrade(replicas, leader_shards, barrier, laggards, result)
                unresolvable.add(txid)
                progressed = True
                continue
            for shard in laggards:
                replica = replicas[shard]
                replica.refresh(force=True)
                if replica.has_applied(txid):
                    progressed = True
                    continue
                outcome = replica.early_apply(txid)
                if outcome == "applied":
                    result.advanced += 1
                    progressed = True
                elif outcome == "already":
                    progressed = True
                else:
                    _degrade(replicas, leader_shards, barrier, laggards, result)
                    unresolvable.add(txid)
                    progressed = True
                    break
        if not progressed:
            break
    return result


def _degrade(
    replicas: dict[int, ReadReplica],
    leader_shards: set[int],
    barrier: Barrier,
    laggards: list[int],
    result: FenceResult,
) -> None:
    """Keep an unadvanceable commit out of the atomicity domain.  When a
    leader-served participant already shows the commit, the lagging
    replicas degrade (a leader cannot be cut back); otherwise every
    fenced replica that applied the commit degrades, so no served shard
    holds half of it."""
    if any(shard in leader_shards for shard in barrier.participants):
        shards = laggards
    else:
        shards = [
            shard for shard, replica in replicas.items()
            if replica.has_applied(barrier.txid)
        ]
    for shard in shards:
        if shard not in result.degraded:
            result.degraded.append(shard)
