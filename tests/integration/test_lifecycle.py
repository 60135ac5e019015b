"""One transaction lifecycle: every terminal route ends in ``Controller._finish``.

The controller ends a transaction in one place for every role —
single-shard, 2PC coordinator and participant — and derives what that
end does from the transaction (``docs/architecture.md``, "One terminal
transition").  The contract test drives every terminal route on a
deterministic two-shard cluster, stepping the controllers by hand and
feeding worker results in directly, and checks on the shard that
finished the transaction:

* the locks are released and the transaction is not outstanding;
* the document is terminal, with an error unless it committed;
* the model keeps the effects, and the applied log names the txid, iff
  the route committed;
* the client is notified iff this shard is not a participant;
* a posted TERM is cleared and a posted KILL is kept — a participant
  touches neither;
* a coordinator whose prepares were out fans its decision out;
* the route's counters move, and only they.

The KILL test pins that a KILL stays posted for every role, so a worker
already holding the dispatched transaction skips it instead of running
it on the devices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import pytest

from repro.common.config import TropicConfig
from repro.core.events import (
    OUTCOME_ABORTED,
    OUTCOME_COMMITTED,
    OUTCOME_FAILED,
    VOTE_NO,
    result_message,
    vote_message,
)
from repro.core.signals import KILL, TERM
from repro.core.txn import Transaction, TransactionState
from repro.testing import ShardedCluster

_CONFIG = TropicConfig(checkpoint_every=100_000)  # the applied log stays whole
_IMAGE = "lifecycle-image"

COMMITTED = TransactionState.COMMITTED
ABORTED = TransactionState.ABORTED
FAILED = TransactionState.FAILED


# ----------------------------------------------------------------------
# Driving helpers
# ----------------------------------------------------------------------


class _Run:
    """A two-shard cluster whose controllers tag each client notification
    with the shard that delivered it."""

    def __init__(self, **config):
        policy = config.pop("cross_shard_policy", "2pc")
        self.cluster = ShardedCluster(
            num_shards=2, config=_CONFIG.with_overrides(**config), cross_shard_policy=policy
        )
        self.notified: list[tuple[int, str]] = []
        for shard in self.cluster.shard_ids:
            self._tag(shard)

    def _tag(self, shard: int) -> None:
        self.cluster.controllers[shard].on_complete = (
            lambda txn, shard=shard: self.notified.append((shard, txn.txid))
        )

    def fail_over(self, shard: int) -> None:
        self.cluster.replace_controller(shard)
        self._tag(shard)

    def step(self, shard: int) -> None:
        self.cluster.controllers[shard].step()

    def kill(self, shard: int, txid: str) -> None:
        self.cluster.controllers[shard].send_kill(txid)

    def step_until(self, done: Callable[[], bool], shards=None, rounds: int = 50) -> None:
        """Step the controllers only (no worker runs) until ``done``."""
        for _ in range(rounds):
            if done():
                return
            for shard in shards if shards is not None else self.cluster.shard_ids:
                self.step(shard)
        assert done(), "route never reached its set-up state"

    def state(self, shard: int, txid: str) -> TransactionState | None:
        txn = self.cluster.stores[shard].load_transaction(txid)
        return None if txn is None else txn.state

    def report(self, shard: int, txid: str, outcome: str, **extra) -> None:
        """Deliver a worker result for ``txid`` and let the shard handle it."""
        self.cluster.input_queues[shard].put(result_message(txid, outcome, **extra))
        self.step(shard)


def _spawn_effects(cluster: ShardedCluster, shard: int, txn: Transaction) -> list[bool]:
    """Presence of each spawnVM effect that ``shard`` owns."""
    vm_host, storage_host = txn.args["vm_host"], txn.args["storage_host"]
    name = txn.args["vm_name"]
    model = cluster.model(shard)
    paths = [f"{vm_host}/{name}", f"{storage_host}/{name}-disk"]
    return [model.exists(path) for path in paths if cluster.router.shard_of(path) == shard]


def _sneaky_effects(cluster: ShardedCluster, shard: int, txn: Transaction) -> list[bool]:
    host = txn.args["vm_host"]
    return [_IMAGE in cluster.model(shard).get(host).get("imported_images", [])]


def _register_sneaky(cluster: ShardedCluster) -> None:
    """A procedure writing a host its arguments never name: routing sees a
    single-shard submission, the simulation touches another shard."""

    def sneaky_import(ctx, vm_host: str, hidden_target: str):
        ctx.do(vm_host, "importImage", _IMAGE)
        ctx.do(f"/vmRoot/{hidden_target}", "importImage", _IMAGE)
        return "ok"

    cluster.procedures.register("sneakyImport", sneaky_import)


@dataclass
class Case:
    """One terminal route, set up to the step before it finishes."""

    shard: int
    txn: Transaction
    act: Callable[[], None]
    state: TransactionState
    counter: str | None = None
    participant: bool = False
    two_phase: bool = False
    fenced: bool = False
    effects: Callable[[ShardedCluster, int, Transaction], list[bool]] = _spawn_effects
    post: str = TERM
    peers: list[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------


def _started_single(run: _Run, name: str = "single") -> tuple[int, Transaction]:
    txn = run.cluster.submit_spawn(name, host_index=0)
    shard = run.cluster.shard_of(txn)
    run.step_until(lambda: run.state(shard, txn.txid) is TransactionState.STARTED)
    return shard, txn


def _started_cross(run: _Run) -> Transaction:
    txn = run.cluster.submit_cross_spawn("cross")
    run.step_until(
        lambda: run.state(txn.coordinator, txn.txid) is TransactionState.STARTED
    )
    return txn


def _preparing_cross(run: _Run) -> Transaction:
    """A cross-shard spawn whose coordinator is PREPARING; the participant
    has not been stepped, so its prepare sits unhandled in its inputQ."""
    txn = run.cluster.submit_cross_spawn("cross")
    run.step_until(
        lambda: run.state(txn.coordinator, txn.txid) is TransactionState.PREPARING,
        shards=[txn.coordinator],
    )
    return txn


def _other(txn: Transaction) -> int:
    (peer,) = [shard for shard in txn.participants if shard != txn.coordinator]
    return peer


def route_single_commit(run: _Run) -> Case:
    shard, txn = _started_single(run)
    return Case(shard, txn, partial(run.report, shard, txn.txid, OUTCOME_COMMITTED), COMMITTED)


def route_single_physical_abort(run: _Run) -> Case:
    shard, txn = _started_single(run)
    act = partial(run.report, shard, txn.txid, OUTCOME_ABORTED, error="device said no")
    return Case(shard, txn, act, ABORTED, counter="aborted_physical")


def route_single_physical_failure(run: _Run) -> Case:
    shard, txn = _started_single(run)

    def act():
        run.report(
            shard, txn.txid, OUTCOME_FAILED,
            error="undo failed", failed_path=txn.args["vm_host"],
        )

    return Case(shard, txn, act, FAILED, counter="failed", fenced=True)


def route_logical_abort(run: _Run) -> Case:
    txn = run.cluster.submit_spawn("huge", host_index=0, mem_mb=99_999)
    shard = run.cluster.shard_of(txn)
    return Case(shard, txn, lambda: run.step(shard), ABORTED, counter="aborted_logical")


def route_kill_queued(run: _Run) -> Case:
    shard, _blocker = _started_single(run)
    txn = run.cluster.submit_spawn("queued", host_index=0)
    run.step_until(lambda: run.state(shard, txn.txid) is TransactionState.DEFERRED)
    act = partial(run.kill, shard, txn.txid)
    return Case(shard, txn, act, ABORTED, counter="killed", post=KILL)


def route_kill_started(run: _Run) -> Case:
    shard, txn = _started_single(run)
    act = partial(run.kill, shard, txn.txid)
    return Case(shard, txn, act, ABORTED, counter="killed", fenced=True, post=KILL)


def route_kill_started_cross(run: _Run) -> Case:
    txn = _started_cross(run)
    act = partial(run.kill, txn.coordinator, txn.txid)
    return Case(
        txn.coordinator, txn, act, ABORTED, counter="killed", fenced=True,
        post=KILL, two_phase=True, peers=[_other(txn)],
    )


def route_reject(run: _Run) -> Case:
    cluster = run.cluster
    _register_sneaky(cluster)
    local = next(h for h in cluster.inventory.vm_hosts if cluster.router.shard_of(h) == 0)
    foreign = next(h for h in cluster.inventory.vm_hosts if cluster.router.shard_of(h) == 1)
    txn = cluster.submit(
        "sneakyImport", {"vm_host": local, "hidden_target": foreign.rsplit("/", 1)[-1]}
    )
    return Case(
        0, txn, lambda: run.step(0), ABORTED, counter="aborted_logical",
        effects=_sneaky_effects,
    )


def route_coordinator_commit(run: _Run) -> Case:
    txn = _started_cross(run)
    act = partial(run.report, txn.coordinator, txn.txid, OUTCOME_COMMITTED)
    return Case(txn.coordinator, txn, act, COMMITTED, two_phase=True, peers=[_other(txn)])


def _vote_no(run: _Run, txn: Transaction) -> None:
    run.cluster.input_queues[txn.coordinator].put(
        vote_message(txn.txid, _other(txn), VOTE_NO, 0, reason="constraint on participant")
    )
    run.step(txn.coordinator)


def route_coordinator_vote_no(run: _Run) -> Case:
    txn = _preparing_cross(run)
    return Case(
        txn.coordinator, txn, lambda: _vote_no(run, txn), ABORTED,
        two_phase=True, peers=[_other(txn)],
    )


def route_coordinator_prepare_timeout(run: _Run) -> Case:
    txn = _preparing_cross(run)

    def act():
        time.sleep(0.03)  # past prepare_timeout
        run.step(txn.coordinator)

    return Case(
        txn.coordinator, txn, act, ABORTED, counter="prepare_timeouts",
        two_phase=True, peers=[_other(txn)],
    )


def route_participant_commit(run: _Run) -> Case:
    txn = _started_cross(run)
    run.report(txn.coordinator, txn.txid, OUTCOME_COMMITTED)
    peer = _other(txn)
    return Case(peer, txn, lambda: run.step(peer), COMMITTED, participant=True, two_phase=True)


def route_participant_abort(run: _Run) -> Case:
    txn = _preparing_cross(run)
    _vote_no(run, txn)  # the abort decision queues behind the prepare
    peer = _other(txn)
    return Case(peer, txn, lambda: run.step(peer), ABORTED, participant=True, two_phase=True)


def route_recovered_coordinator_vote_no(run: _Run) -> Case:
    """A successor restores a PREPARING coordinator (its prepares are
    already in the participants' inputQs) and ends it on a no vote."""
    txn = _preparing_cross(run)

    def act():
        run.fail_over(txn.coordinator)
        _vote_no(run, txn)

    return Case(txn.coordinator, txn, act, ABORTED, two_phase=True, peers=[_other(txn)])


ROUTES = {
    "single-commit": (route_single_commit, {}),
    "single-physical-abort": (route_single_physical_abort, {}),
    "single-physical-failure": (route_single_physical_failure, {}),
    "3A-logical-abort": (route_logical_abort, {}),
    "kill-queued": (route_kill_queued, {}),
    "kill-started": (route_kill_started, {}),
    "kill-started-cross": (route_kill_started_cross, {}),
    "reject": (route_reject, {"cross_shard_policy": "reject"}),
    "coordinator-commit": (route_coordinator_commit, {}),
    "coordinator-vote-no": (route_coordinator_vote_no, {}),
    "coordinator-prepare-timeout": (route_coordinator_prepare_timeout, {"prepare_timeout": 0.02}),
    "participant-commit": (route_participant_commit, {}),
    "participant-abort": (route_participant_abort, {}),
    "recovered-coordinator-vote-no": (route_recovered_coordinator_vote_no, {}),
}


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------


#: Every counter a terminal route may move.
_FINISH_COUNTERS = (
    "committed",
    "aborted_logical",
    "aborted_physical",
    "failed",
    "killed",
    "prepare_timeouts",
    "cross_shard_committed",
    "cross_shard_aborted",
)


def _decisions_queued(cluster: ShardedCluster, shard: int, txid: str) -> int:
    return sum(
        1
        for _, item in cluster.input_queues[shard].take_many(1_000)
        if item.get("kind") == "decision" and item.get("txid") == txid
    )


@pytest.mark.parametrize("name", list(ROUTES))
def test_every_terminal_route_ends_through_one_finish(name):
    route, config = ROUTES[name]
    run = _Run(**config)
    cluster = run.cluster
    case = route(run)
    txid, shard = case.txn.txid, case.shard
    store = cluster.stores[shard]
    if case.post == TERM:
        store.set_signal(txid, TERM)
    before = cluster.controllers[shard]
    stats_before = dict(before.stats)
    decisions_before = {peer: _decisions_queued(cluster, peer, txid) for peer in case.peers}

    case.act()

    controller = cluster.controllers[shard]
    if controller is not before:  # failed over: the successor counts from zero
        stats_before = {key: 0 for key in controller.stats}
    committed = case.state is COMMITTED
    doc = store.load_transaction(txid)
    # Locks released, not outstanding.
    assert txid not in controller.lock_manager.active_transactions()
    assert txid not in controller.outstanding
    # Terminal document; an error unless it committed.
    assert doc.state is case.state
    assert bool(doc.error) is not committed
    # Effects and the applied-log entry iff committed.
    effects = case.effects(cluster, shard, case.txn)
    assert effects and all(present is committed for present in effects)
    assert (txid in store.applied_since(0)) is committed
    # Notification iff the shard holds the client's document.
    assert run.notified.count((shard, txid)) == (0 if case.participant else 1)
    # TERM cleared, KILL kept; a participant's board is left alone.
    if case.post == KILL:
        assert store.get_signal(txid) == KILL
    else:
        assert store.get_signal(txid) == (TERM if case.participant else None)
    # Fencing only where physical effects may be in flight or half undone.
    assert bool(store.load_inconsistent_paths()) is case.fenced
    # A coordinator whose prepares were out fans its decision out.
    for peer in case.peers:
        assert _decisions_queued(cluster, peer, txid) == decisions_before[peer] + 1
    # Counters: the route's own, the 2PC tally, the client-visible commit.
    moved = {
        key: controller.stats[key] - stats_before[key]
        for key in _FINISH_COUNTERS
        if controller.stats[key] != stats_before[key]
    }
    expected = {}
    if case.counter is not None:
        expected[case.counter] = 1
    if case.two_phase:
        expected["cross_shard_committed" if committed else "cross_shard_aborted"] = 1
    if committed and not case.participant:
        expected["committed"] = 1
    assert moved == expected


def test_a_commit_at_the_threshold_takes_the_quiesce_checkpoint():
    run = _Run(checkpoint_every=2)
    shard, txn = _started_single(run)
    controller = run.cluster.controllers[shard]
    checkpoints = controller.stats["checkpoints"]
    run.report(shard, txn.txid, OUTCOME_COMMITTED)
    assert controller.applied_since_checkpoint == 1
    assert controller.stats["checkpoints"] == checkpoints
    shard, txn = _started_single(run, "second")
    run.report(shard, txn.txid, OUTCOME_COMMITTED)
    assert controller.stats["checkpoints"] == checkpoints + 1
    assert controller.applied_since_checkpoint == 0


# ----------------------------------------------------------------------
# KILL of a dispatched transaction (red-first)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cross", "single"])
def test_kill_of_a_dispatched_transaction_stops_the_worker(kind):
    """KILL a STARTED transaction whose execute item is already in phyQ:
    the KILL stays posted, so the worker skips it and the devices never
    see it — for a cross-shard coordinator exactly as for a single-shard
    transaction."""
    cluster = ShardedCluster(num_shards=2)
    if kind == "cross":
        txn = cluster.submit_cross_spawn("killed")
        shard = txn.coordinator
    else:
        txn = cluster.submit_spawn("killed", host_index=0)
        shard = cluster.shard_of(txn)
    for _ in range(50):
        doc = cluster.stores[shard].load_transaction(txn.txid)
        if doc.state is TransactionState.STARTED:
            break
        for each in cluster.shard_ids:
            cluster.controllers[each].step()
    assert doc.state is TransactionState.STARTED
    assert not cluster.phy_queues[shard].is_empty()

    cluster.controllers[shard].send_kill(txn.txid)
    cluster.drain()

    assert cluster.state_of(txn) is TransactionState.ABORTED
    assert sum(worker.transactions_processed for worker in cluster.workers.values()) == 0
    assert cluster.detect_is_clean(shard)
    assert cluster.stores[shard].get_signal(txn.txid) == KILL
