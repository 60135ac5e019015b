"""Deterministic controller and ensemble fault injection.

The paper claims the controller may fail "at any possible failure point"
without losing submitted transactions (§2.3).  This module makes that claim
testable *deterministically*: the controller reports named failure points
through its ``fault_hook``, and a :class:`FaultInjector` installed there
raises :class:`CrashPoint` at an armed one, by occurrence index, so a test
can crash a controller at exactly the k-th group commit (or checkpoint, or
ack) of a workload and hand the persistent state to a successor.

A crash is an exception: ``Controller._commit`` discards the batch of a
body that raises, so a crash anywhere before the commit writes nothing,
exactly as a dead process would.  Every message a step sends (phyQ
execute items, 2PC prepares, votes, decisions, wounds) and every inputQ
item it consumed rides the same ``multi`` as its state, so a commit has
exactly two sides.  The named points of the controller main loop, all
fired by ``Controller._commit`` and ``Controller._checkpoint``:

* ``pre-commit`` — before a non-empty group commit; every buffered store
  write, message and ack of the loop iteration is lost, and the consumed
  inputQ messages re-deliver to the successor.
* ``post-commit`` — the group commit is durable (state, messages and
  acks), the client notifications are not delivered; the successor
  finds every message the step sent in its queue and nothing to
  re-deliver.
* ``pre-checkpoint`` — before any checkpoint document is buffered.  The
  checkpoint, its applied-log truncation and the step's documents commit
  in one ``multi``, so there is no edge inside a checkpoint.

Cross-shard two-phase commit adds three protocol edges, each inside a
commit body (so a crash there writes nothing of the step):

* ``2pc-pre-decision`` — coordinator: physical outcome known, decision
  record not yet buffered (the unacked result message re-drives cleanup).
* ``2pc-pre-wound`` — coordinator, about to wound a younger PREPARING
  transaction: nothing of the wound is durable yet (the successor
  restores the victim PREPARING, with its prepares in the participants'
  inputQs).
* ``2pc-concurrent-prepare`` — coordinator entering the prepare fan-out
  while other cross-shard transactions are mid-protocol on the same
  shard: the multi-prepare in-flight window wound-wait opened (the
  serialisation ticket used to forbid it).

Crashes *inside* a ``multi`` are not modelled: ZooKeeper applies a multi
atomically through its transaction log, so the real system never observes
a torn group commit.

Beyond controller crashes, :class:`FaultyEnsemble` injects *ensemble-side*
faults scheduled by write round-trip count (deterministic for a
deterministic workload): session expiry of whichever session issues the
first operation after the k-th write, one-shot connection loss, op-latency
spikes, and quorum partitions (a majority of servers crashed for a span of
operations, then restarted).  Counting writes, not all operations, keeps a
schedule in place across a change that only removes reads.  These exercise
the recovery paths — session re-establishment, watch re-arming, election
re-entry, replica re-bootstrap — rather than the crash-replay paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.coordination.ensemble import CoordinationEnsemble
from repro.core.controller import (
    POST_COMMIT,
    PRE_CHECKPOINT,
    PRE_COMMIT,
    TWOPC_CONCURRENT_PREPARE,
    TWOPC_PRE_DECISION,
    TWOPC_PRE_WOUND,
)

#: Named failure points reachable by any workload, in main-loop order.
FAILURE_POINTS = (
    PRE_COMMIT,
    POST_COMMIT,
    PRE_CHECKPOINT,
)

#: Protocol edges of cross-shard two-phase commit (reachable only by
#: workloads containing cross-shard transactions under policy ``2pc``).
TWOPC_FAILURE_POINTS = (
    TWOPC_PRE_DECISION,
    TWOPC_PRE_WOUND,
    TWOPC_CONCURRENT_PREPARE,
)

ALL_FAILURE_POINTS = FAILURE_POINTS + TWOPC_FAILURE_POINTS


class CrashPoint(Exception):
    """An injected controller crash.

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: service
    loops retry those, whereas a crash must surface to the test harness so
    it can abandon the instance (the process died).
    """

    def __init__(self, point: str, occurrence: int):
        super().__init__(f"injected crash at {point} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


class FaultInjector:
    """Counts hits of each failure point and raises when an armed one is
    reached.  Occurrence counting makes runs reproducible: arming
    ``(point, k)`` always crashes at the same place of the same workload."""

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}
        self._hits: dict[str, int] = {}
        self.fired: list[CrashPoint] = []

    def arm(self, point: str, occurrence: int = 0) -> "FaultInjector":
        if point not in ALL_FAILURE_POINTS:
            raise ValueError(
                f"unknown failure point {point!r}; choose from {ALL_FAILURE_POINTS}"
            )
        self._armed[point] = occurrence
        return self

    def hits(self, point: str) -> int:
        return self._hits.get(point, 0)

    def hit(self, point: str) -> None:
        """Record one pass through ``point``; crash if armed for it."""
        count = self._hits.get(point, 0)
        self._hits[point] = count + 1
        target = self._armed.get(point)
        if target is not None and count == target:
            del self._armed[point]
            crash = CrashPoint(point, count)
            self.fired.append(crash)
            raise crash


# ----------------------------------------------------------------------
# Ensemble-side faults
# ----------------------------------------------------------------------

#: Ensemble fault kinds schedulable on a :class:`FaultyEnsemble`.
EXPIRE_SESSION = "expire-session"
CONNECTION_LOSS = "connection-loss"
LATENCY_SPIKE = "latency-spike"
PARTITION = "partition"

ENSEMBLE_FAULT_KINDS = (
    EXPIRE_SESSION,
    CONNECTION_LOSS,
    LATENCY_SPIKE,
    PARTITION,
)


@dataclass
class _ScheduledFault:
    after_writes: int
    kind: str
    duration: int = 0
    value: float = 0.0


class EnsembleFaultSchedule:
    """Schedules ensemble faults by write round-trip count.

    A fault scheduled at ``N`` fires on the first operation, read or
    write, issued after the ``N``-th write attempt.  Writes are what a
    workload's protocol position is made of: a change that batches or
    drops reads leaves every fault at the same place in the write stream,
    while a schedule by raw operation count would move.  Victims are
    *implicit* — an ``expire-session`` fault expires whichever session
    issues the trigger operation, which is exactly how real expiries land:
    on the component that happens to be talking to the ensemble.

    Degradation windows (latency spikes, partitions) are measured in
    operation *attempts* of either kind, so a client retrying only reads
    still drives a partition to heal.
    """

    def __init__(self, ensemble: "FaultyEnsemble"):
        self.ensemble = ensemble
        #: Operation attempts of either kind (the unit of window lengths).
        self.op_count = 0
        #: Write attempts (the unit faults are scheduled in).
        self.write_count = 0
        self._events: list[_ScheduledFault] = []
        #: ``(write_count, kind)`` of every fault fired, for assertions.
        self.fired: list[tuple[int, str]] = []
        self._latency_until: int | None = None
        self._base_latency = 0.0
        self._partition_until: int | None = None
        self._partitioned: list[int] = []

    # -- scheduling ----------------------------------------------------

    def expire_session_at(self, writes: int) -> "EnsembleFaultSchedule":
        """Expire the session issuing the first operation after the
        ``writes``-th write (it raises ``SessionExpiredError`` and must
        reconnect/re-arm/re-elect)."""
        self._events.append(_ScheduledFault(writes, EXPIRE_SESSION))
        return self

    def connection_loss_at(self, writes: int) -> "EnsembleFaultSchedule":
        """Fail the first operation after the ``writes``-th write with
        ``ConnectionError`` (transient: the operation provably did not take
        effect)."""
        self._events.append(_ScheduledFault(writes, CONNECTION_LOSS))
        return self

    def latency_spike_at(
        self, writes: int, latency: float, duration: int
    ) -> "EnsembleFaultSchedule":
        """From the first operation after the ``writes``-th write, charge
        ``latency`` seconds per operation for ``duration`` operations."""
        self._events.append(_ScheduledFault(writes, LATENCY_SPIKE, duration, latency))
        return self

    def partition_at(self, writes: int, duration: int) -> "EnsembleFaultSchedule":
        """Crash a majority of servers at the first operation after the
        ``writes``-th write (quorum loss: every operation raises
        ``QuorumLostError``) and restart them ``duration`` operation
        *attempts* later."""
        self._events.append(_ScheduledFault(writes, PARTITION, duration))
        return self

    def pending(self) -> int:
        return len(self._events)

    def cancel_pending(self) -> None:
        """Drop unfired events and undo any still-active degradation
        (latency spike, partition) so post-run verification reads see a
        healthy ensemble.  Fired history is kept."""
        self._events.clear()
        if self._latency_until is not None:
            self.ensemble.op_latency = self._base_latency
            self._latency_until = None
        if self._partition_until is not None:
            for index in self._partitioned:
                self.ensemble.restart_server(index)
            self._partitioned = []
            self._partition_until = None

    # -- the hook ------------------------------------------------------

    def before_op(self, session_id: str, write: bool) -> None:
        self.op_count += 1
        now, writes = self.op_count, self.write_count
        if write:
            self.write_count += 1
        ensemble = self.ensemble
        if self._latency_until is not None and now >= self._latency_until:
            ensemble.op_latency = self._base_latency
            self._latency_until = None
        if self._partition_until is not None and now >= self._partition_until:
            for index in self._partitioned:
                ensemble.restart_server(index)
            self._partitioned = []
            self._partition_until = None
        due = [event for event in self._events if event.after_writes <= writes]
        for event in due:
            self._events.remove(event)
            self.fired.append((writes, event.kind))
            if event.kind == EXPIRE_SESSION:
                # The triggering operation proceeds into the session check
                # and raises SessionExpiredError there.
                ensemble.expire_session(session_id)
            elif event.kind == CONNECTION_LOSS:
                raise ConnectionError(
                    f"injected connection loss at coordination op {now}"
                )
            elif event.kind == LATENCY_SPIKE:
                if self._latency_until is None:
                    self._base_latency = ensemble.op_latency
                ensemble.op_latency = event.value
                self._latency_until = now + max(event.duration, 1)
            elif event.kind == PARTITION:
                # Crash servers (healthy-last order) until quorum is lost;
                # the triggering op then raises QuorumLostError.  Counting
                # continues on every *attempt*, so retrying clients drive
                # the partition to heal.
                for index in range(len(ensemble.servers)):
                    if ensemble.has_quorum():
                        ensemble.crash_server(index)
                        self._partitioned.append(index)
                self._partition_until = now + max(event.duration, 1)


class FaultyEnsemble(CoordinationEnsemble):
    """Coordination ensemble with a write-scheduled fault plan.

    Drop-in replacement for :class:`~repro.coordination.ensemble.
    CoordinationEnsemble` (pass it as the platform's ``ensemble``); faults
    are scheduled on :attr:`fault_schedule` before or during the workload.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.fault_schedule = EnsembleFaultSchedule(self)

    def _prepare_read(self, session_id: str):
        self.fault_schedule.before_op(session_id, write=False)
        return super()._prepare_read(session_id)

    def _prepare_write(self, session_id: str, payload_bytes: int = 0):
        self.fault_schedule.before_op(session_id, write=True)
        return super()._prepare_write(session_id, payload_bytes)
