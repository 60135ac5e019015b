"""Wound-wait prepare admission under concurrent cross-shard 2PC (PR 9).

The fleet-wide prepare ticket is gone: disjoint cross-shard prepares run
fully in parallel and conflicts are resolved by txid age — the older
transaction wounds a younger prepare-phase lock holder (release the
attempt at every participant, retry as a fresh attempt after a seeded
backoff); the younger transaction waits for the older.  This suite
proves the replacement protocol over *interleavings* of 2-4 concurrent
cross-shard transactions with overlapping participant sets:

* **No deadlock** — every interleaving (hypothesis-chosen stepping order
  over both controllers and both workers) quiesces within bounded rounds;
  wait-for edges only ever point young -> old, so no cycle can form.
* **No livelock / bounded wounds** — the oldest transaction is never
  wounded, and the total number of wounds per run is bounded; every
  transaction commits once the contention clears.
* **Txid-order wounds** — every wound recorded by the spy is inflicted by
  a strictly older (lexicographically smaller, zero-padded monotonic)
  txid, on both the coordinator-local and the wound-message paths.
* **Atomicity** — both shards or neither, for every cross-shard
  transaction, at every fenced replica read taken mid-interleaving and in
  the final models; recovered replicas reproduce the incumbent model.
* **Crash safety** — the ``2pc-pre-wound``/``2pc-concurrent-prepare``
  edges (and every pre-existing failure point) leave the protocol
  recoverable: a wounded PREPARED participant is released by the RELEASE
  message queued behind its prepare, across any failover.

Contention is real, not simulated: the cluster runs the *aggressive*
scheduler (the §3.1.1 policy that schedules past a blocked queue head),
so a younger cross-shard transaction genuinely overtakes a blocked older
one and ends up holding prepare-phase locks the older transaction then
claims back by wounding.  Under the default FIFO scheduler age order is
preserved and wounds cannot occur — which is itself asserted below.
"""

from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import TropicConfig
from repro.coordination.kvstore import KVStore
from repro.core.controller import Controller
from repro.core.events import wound_message
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.readfence import fence_replica_sources
from repro.core.replica import ReadReplica
from repro.core.twopc import DECISION_COMMIT
from repro.core.txn import TransactionState
from repro.testing import (
    ALL_FAILURE_POINTS,
    CrashPoint,
    FaultInjector,
    ShardedCluster,
)
from repro.testing.faults import TWOPC_CONCURRENT_PREPARE, TWOPC_PRE_WOUND

import pytest

#: Aggressive scheduling is what makes younger-overtakes-older (and hence
#: wounds) reachable; tight checkpoints keep the checkpoint crash edges
#: reachable inside short workloads.
_CONTENTION = dict(checkpoint_every=2, scheduler_policy="aggressive")

#: Lexicographically below every real txid (they start at txn-000001):
#: a synthetic "oldest transaction in the fleet" for directed wounds.
_ANCIENT = "txn-000000"


@contextmanager
def record_wounds():
    """Spy on every wound actually inflicted: (shard, victim, wounded_by)."""
    ledger: list[tuple[int, str, str]] = []
    original = Controller._wound_cross_shard

    def spy(self, txn, by):
        ledger.append((self.shard_id, txn.txid, by))
        return original(self, txn, by)

    Controller._wound_cross_shard = spy
    try:
        yield ledger
    finally:
        Controller._wound_cross_shard = original


def _contended_cluster(injector=None, faulty_shards=(), **config_overrides):
    config = TropicConfig(**{**_CONTENTION, **config_overrides})
    return ShardedCluster(
        num_shards=2,
        cross_shard_policy="2pc",
        config=config,
        injector=injector,
        faulty_shards=faulty_shards,
    )


def _vm_hosts_of(cluster, shard):
    return [
        host
        for host in cluster.inventory.vm_hosts
        if cluster.router.shard_of(host) == shard
    ]


def _host_index(cluster, host):
    return cluster.inventory.vm_hosts.index(host)


def _assert_atomic(cluster, cross):
    """Both shards or neither, matching the terminal outcome."""
    for txn in cross:
        state = cluster.state_of(txn)
        vm_host, storage_host = txn.args["vm_host"], txn.args["storage_host"]
        vm_name = txn.args["vm_name"]
        vm_there = cluster.model(cluster.router.shard_of(vm_host)).exists(
            f"{vm_host}/{vm_name}"
        )
        image_there = cluster.model(cluster.router.shard_of(storage_host)).exists(
            f"{storage_host}/{vm_name}-disk"
        )
        assert vm_there == image_there, f"{txn.txid} half-applied"
        if state is TransactionState.COMMITTED:
            assert vm_there
        else:
            assert state in (TransactionState.ABORTED, TransactionState.FAILED)
            assert not vm_there


def _assert_no_leaks(cluster):
    for shard in cluster.shard_ids:
        assert cluster.controllers[shard].lock_manager.active_transactions() == set()
        assert cluster.controllers[shard].outstanding == {}


def _assert_recovery_equal(cluster):
    """A fresh replica recovering purely from the store reproduces each
    shard's model — including after wounds, retries and crashes."""
    for shard in cluster.shard_ids:
        incumbent = cluster.model(shard).to_dict()
        fresh = cluster.new_controller(shard, faulty=False)
        fresh.recover()
        assert fresh.model.to_dict() == incumbent, (
            f"shard {shard}: recovered model diverged"
        )


def _assert_fenced_reads_atomic(cluster, cross):
    """A fenced replica read taken *now* — possibly mid-protocol — must be
    cross-shard atomic for every transaction in ``cross`` (PR 7's read
    fence composed with PR 9's concurrent prepares)."""
    replicas = {}
    for shard in cluster.shard_ids:
        store = TropicStore(
            KVStore(cluster.client, shard_store_prefix(shard, cluster.num_shards)),
            shard_id=shard,
            num_shards=cluster.num_shards,
        )
        replicas[shard] = ReadReplica(
            store, cluster.schema, cluster.procedures, shard_id=shard
        )
        replicas[shard].refresh(force=True)
    fenced = fence_replica_sources(replicas, set(), cluster.twopc)
    models = {}
    for shard, replica in replicas.items():
        if shard in fenced.degraded:
            continue
        models[shard] = replica.model(refresh=False)
    for txn in cross:
        vm_host, storage_host = txn.args["vm_host"], txn.args["storage_host"]
        vm_shard = cluster.router.shard_of(vm_host)
        img_shard = cluster.router.shard_of(storage_host)
        if vm_shard not in models or img_shard not in models:
            continue
        name = txn.args["vm_name"]
        vm_there = models[vm_shard].exists(f"{vm_host}/{name}")
        image_there = models[img_shard].exists(f"{storage_host}/{name}-disk")
        assert vm_there == image_there, f"fenced read tore {name}"


def _wound_recipe(cluster):
    """The deterministic younger-holds-older-claims interleaving.

    A single-shard blocker holds the older transaction's compute host, so
    the aggressive scheduler lets the *younger* cross-shard transaction
    overtake and acquire the storage host both of them need (a coordinator
    locks its full rwset locally, foreign paths included).  When the older
    transaction next runs it finds the younger PREPARING on the shared
    path and wounds it.  Returns (blocker, older, younger); the blocker's
    physical work is still pending, so the caller controls exactly when
    the contention clears.
    """
    shard0_hosts = _vm_hosts_of(cluster, 0)
    assert len(shard0_hosts) >= 2
    blocker = cluster.submit_spawn(
        "blocker", host_index=_host_index(cluster, shard0_hosts[1])
    )
    older = cluster.submit_cross_spawn(
        "ww-old", vm_host_index=_host_index(cluster, shard0_hosts[1])
    )
    younger = cluster.submit_cross_spawn(
        "ww-young", vm_host_index=_host_index(cluster, shard0_hosts[0])
    )
    assert older.txid < younger.txid
    assert older.args["storage_host"] == younger.args["storage_host"]
    return blocker, older, younger


# ----------------------------------------------------------------------
# Directed interleavings: the wound paths, step by step
# ----------------------------------------------------------------------


def _queued(cluster, shard: int, txid: str, kind: str) -> list[str]:
    """The ``decision`` values (or kinds) of ``txid``'s ``kind`` messages
    waiting in ``shard``'s inputQ, oldest first."""
    return [
        item.get("decision", kind)
        for _, item in cluster.input_queues[shard].take_many(1_000)
        if item.get("kind") == kind and item.get("txid") == txid
    ]


class TestDirectedWounds:
    def test_blocked_older_coordinator_wounds_younger_preparing_holder(self):
        cluster = _contended_cluster()
        with record_wounds() as ledger:
            blocker, older, younger = _wound_recipe(cluster)

            # One pass: the blocker starts (holding older's vm host), the
            # older defers, the younger overtakes into PREPARING, holding
            # the shared storage host.
            cluster.controllers[0].step()
            assert ledger == []
            assert cluster.state_of(younger) is TransactionState.PREPARING

            # Next pass: the older transaction claims the shared storage
            # host back from the younger PREPARING holder — wound by age.
            cluster.controllers[0].step()
            assert ledger == [(0, younger.txid, older.txid)]

        coordinator = cluster.controllers[0]
        assert coordinator.stats["cross_shard_wounded"] == 1
        # The wound logs no decision: its RELEASE committed with the step
        # that wounded, queued behind the attempt's prepare.
        assert cluster.twopc.decision(younger.txid, 0) is None
        assert _queued(cluster, 1, younger.txid, "decision") == ["release"]
        # The victim is requeued as a fresh attempt, cooling down.
        wounded = {t.txid: t for t in coordinator.todo.transactions()}[younger.txid]
        assert wounded.state is TransactionState.DEFERRED
        assert wounded.wound_count == 1
        assert wounded.wound_cooldown >= 1
        assert wounded.defer_count >= 1
        # Its locks are gone: the older transaction is only still waiting
        # on the single-shard blocker, which is past wounding.
        assert younger.txid not in coordinator.lock_manager.active_transactions()

        # Let the blocker finish; everyone commits — wounds defer, they
        # never decide outcomes.
        cluster.drain()
        for txn in (blocker, older, younger):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert cluster.twopc.decision(younger.txid, 0) == DECISION_COMMIT
        _assert_atomic(cluster, [older, younger])
        _assert_no_leaks(cluster)
        _assert_recovery_equal(cluster)

    def test_a_participant_resolves_without_reading_the_decision_log(self, monkeypatch):
        """The participant learns every outcome from its inputQ: the
        wound's RELEASE of its prepared slice and each COMMIT decision
        arrive as messages committed with the coordinator's state, so it
        resolves them with zero decision-log reads."""
        from repro.core.twopc import TwoPCLog

        reads: list[str] = []
        for name in ("decision", "decision_record"):
            real = getattr(TwoPCLog, name)

            def counting(self, txid, coordinator=None, _real=real, _name=name):
                reads.append(_name)
                return _real(self, txid, coordinator)

            monkeypatch.setattr(TwoPCLog, name, counting)
        cluster = _contended_cluster()
        participant = cluster.controllers[1]
        released: list[str] = []
        real_release = participant._release_participant

        def release(txn):
            released.append(txn.txid)
            return real_release(txn)

        participant._release_participant = release
        with record_wounds() as ledger:
            blocker, older, younger = _wound_recipe(cluster)
            cluster.controllers[0].step()  # younger PREPARING
            cluster.controllers[0].step()  # older wounds it: RELEASE queued
            assert ledger == [(0, younger.txid, older.txid)]
            cluster.drain()

        assert released == [younger.txid]  # its prepared slice, released
        for txn in (blocker, older, younger):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert participant.stats["cross_shard_prepared"] == 3
        assert reads == []

    def test_fifo_scheduling_preserves_age_order_and_never_wounds(self):
        """Under the default FIFO policy the queue never lets a younger
        transaction overtake, so the same contention resolves by waiting
        alone — wound-wait degrades to plain age-ordered admission."""
        cluster = _contended_cluster(scheduler_policy="fifo")
        with record_wounds() as ledger:
            blocker, older, younger = _wound_recipe(cluster)
            cluster.drain()
        assert ledger == []
        for txn in (blocker, older, younger):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        _assert_no_leaks(cluster)

    def test_prepared_foreign_slice_draws_a_wound_message(self):
        """An older transaction conflicting with a PREPARED slice of a
        *foreign* coordinator cannot wound locally — it reports the holder
        to that coordinator with a wound message, exactly once."""
        cluster = _contended_cluster()
        txn = cluster.submit_cross_spawn("remote", vm_host_index=0)
        cluster.controllers[0].step()  # coordinator: PREPARING, prepare out
        cluster.controllers[1].step()  # participant: slice PREPARED + locked
        participant = cluster.controllers[1]
        assert participant.outstanding[txn.txid].state is TransactionState.PREPARED

        requests = participant.lock_manager.requests_for(
            participant.outstanding[txn.txid].rwset
        )
        conflicts = participant.lock_manager.find_conflicts(_ANCIENT, requests)
        assert conflicts, "the prepared slice must hold the contested locks"

        wounded_locally = participant._wound_or_wait(_ANCIENT, conflicts)
        assert wounded_locally is False  # foreign coordinator: message, not wound
        # Routed to the victim's coordinator (no commit is open here, so
        # the put is written at once).
        sent = [
            item
            for _, item in cluster.input_queues[0].take_many(100)
            if item.get("kind") == "wound"
        ]
        assert [(m["txid"], m["by"]) for m in sent] == [(txn.txid, _ANCIENT)]
        assert participant.stats["cross_shard_wounds_sent"] == 1

        # Dedup: the same requester re-checking the same holder does not
        # flood the coordinator.
        participant._wound_or_wait(_ANCIENT, conflicts)
        assert participant.stats["cross_shard_wounds_sent"] == 1

    def test_wound_message_defers_a_preparing_coordinator(self):
        """Coordinator side of the message path: a wound arriving while
        the victim is still PREPARING releases the attempt at its
        participants and requeues it — then the retry commits."""
        cluster = _contended_cluster()
        txn = cluster.submit_cross_spawn("victim", vm_host_index=0)
        cluster.controllers[0].step()  # PREPARING (participant never stepped)
        assert cluster.state_of(txn) is TransactionState.PREPARING

        with record_wounds() as ledger:
            cluster.input_queues[0].put(wound_message(txn.txid, _ANCIENT, 1))
            cluster.controllers[0].step()
        assert ledger == [(0, txn.txid, _ANCIENT)]
        assert cluster.twopc.decision(txn.txid, 0) is None
        assert _queued(cluster, 1, txn.txid, "decision") == ["release"]

        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert cluster.twopc.decision(txn.txid, 0) == DECISION_COMMIT
        _assert_atomic(cluster, [txn])
        _assert_no_leaks(cluster)

    def test_stale_wound_messages_are_dropped_idempotently(self):
        """Wounds are advisory: anything but an older txid targeting a
        local PREPARING coordinator is silently ignored."""
        cluster = _contended_cluster()
        local = cluster.submit_spawn("plain", host_index=0)
        cross = cluster.submit_cross_spawn("busy", vm_host_index=0)
        cluster.controllers[0].step()  # local STARTED, cross PREPARING

        with record_wounds() as ledger:
            # Unknown transaction; single-shard STARTED holder; a younger
            # "wounder" (equal and greater txids); missing/odd `by`.
            for message in (
                wound_message("txn-999999", _ANCIENT, 1),
                wound_message(local.txid, _ANCIENT, 1),
                wound_message(cross.txid, cross.txid, 1),
                wound_message(cross.txid, "txn-999999", 1),
                {"kind": "wound", "txid": cross.txid, "by": None, "shard": 1},
            ):
                cluster.input_queues[0].put(message)
            cluster.controllers[0].step()
        assert ledger == []
        assert cluster.controllers[0].stats["cross_shard_wounded"] == 0

        cluster.drain()
        for txn in (local, cross):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        _assert_no_leaks(cluster)


# ----------------------------------------------------------------------
# Directed crashes at the wound edges
# ----------------------------------------------------------------------


class TestWoundCrashPoints:
    def _crash_at(self, point):
        injector = FaultInjector()
        cluster = _contended_cluster(injector=injector, faulty_shards=(0,))
        injector.arm(point, injector.hits(point))
        return injector, cluster

    @pytest.mark.parametrize("point", [TWOPC_PRE_WOUND])
    def test_crash_mid_wound_recovers_atomically(self, point):
        """Dying at the wound edge never tears a transaction: nothing of
        the wound is durable (its DEFERRED document and RELEASE messages
        commit in the step's one ``multi``), so the successor restores the
        PREPARING victim with its prepares queued.  The survivors commit
        and recovery reproduces the models."""
        injector, cluster = self._crash_at(point)
        blocker, older, younger = _wound_recipe(cluster)
        with pytest.raises(CrashPoint):
            for _ in range(50):
                cluster.controllers[0].step()
        assert injector.fired[-1].point == point
        cluster.controllers[0] = cluster.new_controller(0, faulty=False)
        cluster.drain(failover=True)

        for txn in (blocker, older, younger):
            state = cluster.state_of(txn)
            assert state is not None and cluster.load(txn).is_terminal
        assert cluster.state_of(blocker) is TransactionState.COMMITTED
        assert cluster.state_of(older) is TransactionState.COMMITTED
        _assert_atomic(cluster, [older, younger])
        _assert_no_leaks(cluster)
        _assert_recovery_equal(cluster)
        _assert_fenced_reads_atomic(cluster, [older, younger])

    def test_crash_entering_a_concurrent_prepare_recovers(self):
        """``2pc-concurrent-prepare`` fires as a coordinator fans out while
        another cross-shard transaction is mid-protocol on the same shard —
        the concurrency the ticket used to forbid.  A death there leaves
        an un-persisted attempt, which recovery simply requeues, while the
        transaction already mid-prepare resumes: its prepare is queued at
        the participant, so both commit."""
        injector, cluster = self._crash_at(TWOPC_CONCURRENT_PREPARE)
        # Two cross-shard transactions with *disjoint* lock sets (homes on
        # opposite shards, so vm hosts and storage hosts all differ) share
        # the coordinator: the first is mid-protocol when the second fans
        # out, which is exactly the edge.
        foreign_home = _vm_hosts_of(cluster, 1)[0]
        remote = cluster.submit_cross_spawn(
            "conc-remote", vm_host_index=_host_index(cluster, foreign_home)
        )
        cluster.controllers[0].step()
        assert (
            cluster.controllers[0].outstanding[remote.txid].state
            is TransactionState.PREPARING
        )
        local_home = _vm_hosts_of(cluster, 0)[0]
        local = cluster.submit_cross_spawn(
            "conc-local", vm_host_index=_host_index(cluster, local_home)
        )
        with pytest.raises(CrashPoint):
            for _ in range(50):
                cluster.controllers[0].step()
        assert injector.fired[-1].point == TWOPC_CONCURRENT_PREPARE
        cluster.controllers[0] = cluster.new_controller(0, faulty=False)
        cluster.drain(failover=True)

        # The transaction whose coordinator died mid-prepare resumes under
        # the successor; the one whose attempt was never persisted is
        # requeued.  Both commit.
        assert cluster.state_of(remote) is TransactionState.COMMITTED
        assert cluster.state_of(local) is TransactionState.COMMITTED
        _assert_atomic(cluster, [remote, local])
        _assert_no_leaks(cluster)
        _assert_recovery_equal(cluster)


# ----------------------------------------------------------------------
# Hypothesis: arbitrary interleavings and crash plans
# ----------------------------------------------------------------------

#: An interleaving is a sequence of component activations: controller or
#: worker, on either shard.
_component = st.tuples(st.sampled_from(["controller", "worker"]), st.sampled_from([0, 1]))

#: A crash plan entry, as in test_twopc_properties: (point, faulty shard).
_crash = st.tuples(st.sampled_from(ALL_FAILURE_POINTS), st.sampled_from([0, 1]))


def _submit_contenders(cluster, homes, with_blocker):
    """2-4 cross-shard transactions with overlapping participant sets
    (same-home transactions additionally share their foreign storage
    host), optionally behind a single-shard blocker on the first home."""
    shard_hosts = {shard: _vm_hosts_of(cluster, shard) for shard in cluster.shard_ids}
    blockers = []
    if with_blocker:
        host = shard_hosts[homes[0]][0]
        blockers.append(
            cluster.submit_spawn("blk", host_index=_host_index(cluster, host))
        )
    cross = []
    for i, home in enumerate(homes):
        hosts = shard_hosts[home]
        host = hosts[i % len(hosts)]
        cross.append(
            cluster.submit_cross_spawn(
                f"ww{i}", vm_host_index=_host_index(cluster, host)
            )
        )
    return blockers, cross


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    homes=st.lists(st.sampled_from([0, 1]), min_size=2, max_size=4),
    with_blocker=st.booleans(),
    schedule=st.lists(_component, min_size=0, max_size=30),
)
def test_interleaved_concurrent_prepares_commit_without_deadlock(
    homes, with_blocker, schedule
):
    """Any stepping order over 2-4 contending cross-shard transactions
    quiesces with everything committed: wounds happen only in txid order,
    are bounded (no livelock), and fenced reads taken mid-protocol never
    tear — all with zero crash faults, isolating pure concurrency."""
    cluster = _contended_cluster()
    with record_wounds() as ledger:
        blockers, cross = _submit_contenders(cluster, homes, with_blocker)
        for kind, shard in schedule:
            if kind == "controller":
                cluster.controllers[shard].step()
            else:
                cluster.workers[shard].step()
        # A fenced replica read in the thick of the interleaving.
        _assert_fenced_reads_atomic(cluster, cross)
        cluster.drain()

    oldest = min(txn.txid for txn in cross + blockers)
    for shard, victim, by in ledger:
        assert by < victim, "a wound must come from a strictly older txid"
        assert victim != oldest, "the oldest transaction is never wounded"
    # Bounded wounds: contention between n transactions cannot wound
    # unboundedly (no livelock); the constant is generous — observed runs
    # wound a handful of times at most.
    assert len(ledger) <= 3 * len(cross) * max(1, len(cross) - 1)

    for txn in blockers + cross:
        assert cluster.state_of(txn) is TransactionState.COMMITTED
    _assert_atomic(cluster, cross)
    _assert_fenced_reads_atomic(cluster, cross)
    _assert_no_leaks(cluster)
    _assert_recovery_equal(cluster)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    homes=st.lists(st.sampled_from([0, 1]), min_size=2, max_size=3),
    plan=st.lists(_crash, min_size=0, max_size=3),
)
def test_crashed_contended_interleavings_stay_atomic(homes, plan):
    """Controller-death sequences at any failure point — including the
    new wound edges — over contending concurrent prepares: atomicity,
    acked-outcome stability, txid-order wounds and recovered-model
    equality all hold, exactly as the ticketed protocol promised."""
    injector = FaultInjector()
    cluster = ShardedCluster(
        num_shards=2,
        cross_shard_policy="2pc",
        config=TropicConfig(**_CONTENTION),
        injector=injector,
        faulty_shards=(plan[0][1],) if plan else (),
    )
    if plan:
        point = plan[0][0]
        injector.arm(point, injector.hits(point))

    with record_wounds() as ledger:
        blockers, cross = _submit_contenders(cluster, homes, with_blocker=True)
        consumed = 0
        for _ in range(5_000):
            progressed = False
            for shard in cluster.shard_ids:
                try:
                    if cluster.controllers[shard].step():
                        progressed = True
                except CrashPoint:
                    consumed += 1
                    cluster.controllers[shard] = cluster.new_controller(
                        shard, faulty=False
                    )
                    if consumed < len(plan):
                        point, target = plan[consumed]
                        cluster.controllers[target] = cluster.new_controller(
                            target, faulty=True
                        )
                        injector.arm(point, injector.hits(point))
                    progressed = True
                if cluster.workers[shard].step():
                    progressed = True
            if not progressed and cluster.queues_empty():
                break
        else:
            raise AssertionError("cluster did not quiesce under the crash plan")

    for shard, victim, by in ledger:
        assert by < victim

    # Single-shard blockers always survive controller crashes.
    for txn in blockers:
        assert cluster.state_of(txn) is TransactionState.COMMITTED
    # Cross-shard: terminal and atomic.
    for txn in cross:
        loaded = cluster.load(txn)
        assert loaded is not None and loaded.is_terminal
    _assert_atomic(cluster, cross)
    # Acknowledged outcomes are stable across every crash in the plan.
    for acked in cluster.acked:
        assert cluster.state_of(acked) is acked.state
    _assert_no_leaks(cluster)
    _assert_recovery_equal(cluster)
    _assert_fenced_reads_atomic(cluster, cross)
