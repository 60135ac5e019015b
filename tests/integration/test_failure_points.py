"""Controller failure-point injection (§2.3), single-shard and sharded.

The paper claims that "whenever the lead controller fails at any possible
failure point, the new leader ... is able to restore the state of the
controller at failure time".  Two complementary harnesses prove it here:

* **round-based crashes** — abandon the controller after every prefix of
  its processing rounds and finish with a fresh replica (the seed's
  original test, now built on :class:`repro.testing.ShardedCluster`), and
* a **deterministic fault-injection matrix** — crash a *shard* controller
  at each named failure point (pre-commit, post-commit, pre-checkpoint) by
  occurrence index, fail the shard over to a clean replica, and assert the
  recovered data model is identical to a fault-free control run with no
  acknowledged transaction lost.
"""

import pytest

from repro.common.config import TropicConfig
from repro.core.txn import Transaction, TransactionState
from repro.testing import (
    FAILURE_POINTS,
    POST_COMMIT,
    PRE_COMMIT,
    CrashPoint,
    FaultInjector,
    ShardedCluster,
)


def run_with_crash_after(cluster: ShardedCluster, crash_after_rounds: int) -> None:
    """Drive the (single-shard) cluster for a bounded number of rounds,
    then abandon the controller (the crash) and finish with a fresh one."""
    for _ in range(crash_after_rounds):
        progressed = cluster.step_all()
        if not progressed and cluster.queues_empty():
            break
    # Crash: the first controller's memory is simply discarded.
    cluster.replace_controller(0)
    cluster.drain()


class TestCrashAtEveryPoint:
    @pytest.mark.parametrize("crash_after_rounds", list(range(0, 10)))
    def test_no_transaction_lost_or_double_applied(self, make_cluster, crash_after_rounds):
        cluster = make_cluster()
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i % 4) for i in range(3)]
        run_with_crash_after(cluster, crash_after_rounds)
        successor = cluster.controllers[0]

        # Every submitted transaction reached COMMITTED exactly once.
        for txn in txns:
            final = cluster.load(txn)
            assert final.state is TransactionState.COMMITTED, (
                f"{txn.txid} ended as {final.state} after a crash at "
                f"round {crash_after_rounds}")

        # The logical layer has each VM exactly once and the physical layer
        # agrees (no lost or duplicated device effects).
        for index in range(3):
            path = f"/vmRoot/vmHost{index % 4}/vm{index}"
            assert successor.model.exists(path)
            assert successor.model.get(path)["state"] == "running"
            device = cluster.inventory.registry.device_at(f"/vmRoot/vmHost{index % 4}")
            assert device.vm_state(f"vm{index}") == "running"
        assert cluster.reconciler().detect().is_empty

        # No locks leak across the failover.
        assert successor.lock_manager.active_transactions() == set()

    @pytest.mark.parametrize("crash_after_rounds", [1, 2, 3])
    def test_constraint_aborts_survive_failover(self, make_cluster, crash_after_rounds):
        """A transaction that must abort (memory constraint) still aborts —
        and only aborts — when the controller fails around its execution."""
        cluster = make_cluster(host_mem_mb=1024)
        good = cluster.submit_spawn("fits", host_index=0)
        bad = cluster.submit_spawn("too-big", host_index=0, mem_mb=4096)

        run_with_crash_after(cluster, crash_after_rounds)
        assert cluster.state_of(good) is TransactionState.COMMITTED
        assert cluster.state_of(bad) is TransactionState.ABORTED
        host = cluster.inventory.registry.device_at("/vmRoot/vmHost0")
        assert host.vm_state("fits") == "running"
        assert host.vm_state("too-big") is None
        assert cluster.reconciler().detect().is_empty


class TestCrashWhileInPhysicalLayer:
    def test_result_arriving_after_failover_is_cleaned_up(self, make_cluster):
        """The worker finishes a transaction while no controller is alive;
        the next leader must pick up the result and commit exactly once."""
        cluster = make_cluster()
        txn = cluster.submit_spawn("orphan")
        # Accept, simulate, lock and enqueue to phyQ ... then die.
        first = cluster.controllers[0]
        while first.step():
            pass
        assert cluster.state_of(txn) is TransactionState.STARTED

        assert cluster.workers[0].step()  # physical execution, no leader alive

        cluster.replace_controller(0)
        cluster.drain()
        successor = cluster.controllers[0]
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert successor.model.get("/vmRoot/vmHost0/orphan")["state"] == "running"
        assert successor.lock_manager.active_transactions() == set()
        assert cluster.reconciler().detect().is_empty

    def test_repeated_failovers_between_every_transaction(self, make_cluster):
        """A new leader for every transaction: state is rebuilt from the
        store each time and the fleet stays consistent throughout."""
        cluster = make_cluster()
        for index in range(5):
            txn = cluster.submit_spawn(f"gen{index}", host_index=index % 4)
            cluster.replace_controller(0)  # previous leader is gone
            cluster.drain()
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        final = cluster.replace_controller(0)
        final.recover()
        assert final.model.count("vm") == 5
        assert cluster.reconciler().detect().is_empty


# ----------------------------------------------------------------------
# Deterministic shard fault matrix (PR 2 tentpole proof)
# ----------------------------------------------------------------------

#: Aggressive checkpointing so the checkpoint failure points are reachable
#: within a short deterministic workload.
_MATRIX_CONFIG = TropicConfig(checkpoint_every=1)
_NUM_SHARDS = 2
_FAULTY_SHARD = 0
_WORKLOAD = 6  # spawns spread across both shards' hosts


def _run_workload(cluster: ShardedCluster, failover: bool) -> list[Transaction]:
    txns = [cluster.submit_spawn(f"vm{i}", host_index=i % 4) for i in range(_WORKLOAD)]
    cluster.drain(failover=failover)
    return txns


def _control_run() -> tuple[list[dict], set[str], list[Transaction]]:
    """Fault-free reference: per-shard model dicts + committed txn names."""
    cluster = ShardedCluster(
        num_shards=_NUM_SHARDS, config=_MATRIX_CONFIG, with_devices=True
    )
    txns = _run_workload(cluster, failover=False)
    models = [cluster.model(s).to_dict() for s in cluster.shard_ids]
    committed = {
        t.args["vm_name"]
        for t in txns
        if cluster.state_of(t) is TransactionState.COMMITTED
    }
    return models, committed, txns


class TestShardFaultMatrix:
    """Crash shard 0's controller at every named failure point and assert
    the replacement recovers an identical data model and loses no
    acknowledged transaction."""

    @pytest.fixture(scope="class")
    def control(self):
        return _control_run()

    @pytest.mark.parametrize("occurrence", [0, 1, 2, 3])
    @pytest.mark.parametrize("point", FAILURE_POINTS)
    def test_shard_failover_recovers_identical_model(self, control, point, occurrence):
        control_models, control_committed, _ = control
        injector = FaultInjector().arm(point, occurrence)
        cluster = ShardedCluster(
            num_shards=_NUM_SHARDS,
            config=_MATRIX_CONFIG,
            with_devices=True,
            injector=injector,
            faulty_shards=(_FAULTY_SHARD,),
        )
        txns = _run_workload(cluster, failover=True)

        # The data model of every shard is identical to the fault-free run.
        for shard in cluster.shard_ids:
            assert cluster.model(shard).to_dict() == control_models[shard], (
                f"shard {shard} diverged after crash at {point}#{occurrence}"
            )

        # No submitted transaction is lost and outcomes match the control.
        for txn in txns:
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            assert txn.args["vm_name"] in control_committed

        # No acknowledged transaction is lost: everything the client was
        # notified about (including notifications delivered *before* the
        # crash) is still committed, exactly
        # once, in the recovered store and on the devices.
        acked_commits = [t for t in cluster.acked
                         if t.state is TransactionState.COMMITTED]
        seen: set[str] = set()
        for txn in acked_commits:
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            vm = txn.args["vm_name"]
            assert vm not in seen, f"{vm} acknowledged twice as committed"
            seen.add(vm)
            host = txn.args["vm_host"]
            device = cluster.inventory.registry.device_at(host)
            assert device.vm_state(vm) == "running"

        # Cross-layer agreement over each shard's owned subtrees and no
        # leaked locks on either shard.
        for shard in cluster.shard_ids:
            assert cluster.detect_is_clean(shard)
            assert cluster.controllers[shard].lock_manager.active_transactions() == set()

        # The sibling shard must be completely unaffected by the fault.
        assert all(crash.point == point for crash in injector.fired)

    def test_matrix_actually_fires_every_point(self):
        """Guard against the matrix silently testing nothing: at occurrence
        0 every named point must be reachable in this workload."""
        for point in FAILURE_POINTS:
            injector = FaultInjector().arm(point, 0)
            cluster = ShardedCluster(
                num_shards=_NUM_SHARDS,
                config=_MATRIX_CONFIG,
                with_devices=True,
                injector=injector,
                faulty_shards=(_FAULTY_SHARD,),
            )
            _run_workload(cluster, failover=True)
            assert [crash.point for crash in injector.fired] == [point]

    def test_post_commit_fires_once_per_commit(self):
        """One hit per edge: every non-empty commit passes ``pre-commit``
        and then ``post-commit`` exactly once, so each occurrence index of
        the matrix crashes a different commit."""
        injector = FaultInjector()
        cluster = ShardedCluster(
            num_shards=_NUM_SHARDS,
            config=_MATRIX_CONFIG,
            with_devices=True,
            injector=injector,
            faulty_shards=(_FAULTY_SHARD,),
        )
        store = cluster.controllers[_FAULTY_SHARD].store
        real_commit = store.commit_batches
        commits: list[int] = []

        def commit_batches(batches):
            commits.append(len(batches))
            return real_commit(batches)

        store.commit_batches = commit_batches
        _run_workload(cluster, failover=False)
        assert commits
        assert injector.hits(POST_COMMIT) == injector.hits(PRE_COMMIT) == len(commits)


# ----------------------------------------------------------------------
# Unwind of a step that raises mid-handling
# ----------------------------------------------------------------------


def _raise_on_message(controller, index: int) -> list[str]:
    """Make ``_handle_message`` raise on the ``index``-th message of a step
    (0-based); returns the txids handed to the handler."""
    handled: list[str] = []
    real_handle = controller._handle_message

    def handle(item):
        handled.append(item["txid"])
        if len(handled) == index + 1:
            raise RuntimeError(f"handler failed on message {index}")
        real_handle(item)

    controller._handle_message = handle
    return handled


def _assert_each_commits_exactly_once(cluster, txns) -> None:
    for txn in txns:
        assert cluster.state_of(txn) is TransactionState.COMMITTED
    acked = [t.txid for t in cluster.acked if t.is_terminal]
    assert sorted(acked) == sorted(t.txid for t in txns)
    applied = [txid for _, txid in cluster.stores[0].applied_entries()]
    assert sorted(applied) == sorted(t.txid for t in txns)
    assert cluster.controllers[0].lock_manager.active_transactions() == set()
    assert cluster.detect_is_clean(0)


class TestStepUnwind:
    """A crash is an exception: a step whose body raises writes nothing —
    no state, no message, no ack — notifies no client, and leaves every
    consumed message on inputQ for the re-recovered controller — exactly a
    crash at ``pre-commit``."""

    def _assert_nothing_durable(self, cluster, controller, writes) -> None:
        assert cluster.ensemble.write_round_trips == writes
        assert cluster.acked == []
        assert not controller.recovered

    def test_raise_mid_batch_commits_nothing(self, make_cluster):
        cluster = make_cluster()
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i) for i in range(3)]
        controller = cluster.controllers[0]
        controller.recover()
        handled = _raise_on_message(controller, 1)
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(RuntimeError):
            controller.step()

        assert handled == [txns[0].txid, txns[1].txid]
        # The first message's buffered acceptance was discarded with the batch.
        assert [cluster.state_of(t) for t in txns] == [TransactionState.INITIALIZED] * 3
        self._assert_nothing_durable(cluster, controller, writes)
        assert cluster.input_queues[0].size() == 3

        del controller._handle_message
        cluster.drain()
        _assert_each_commits_exactly_once(cluster, txns)

    @pytest.mark.parametrize("index", [0, 2])
    def test_raise_commits_nothing_wherever_it_lands(self, make_cluster, index):
        """Raising on the first message or on the last: either way no
        acceptance is durable and the step costs no commit round-trip."""
        cluster = make_cluster()
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i) for i in range(3)]
        controller = cluster.controllers[0]
        controller.recover()
        _raise_on_message(controller, index)
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(RuntimeError):
            controller.step()

        assert [cluster.state_of(t) for t in txns] == [TransactionState.INITIALIZED] * 3
        self._assert_nothing_durable(cluster, controller, writes)
        assert cluster.input_queues[0].size() == 3

        del controller._handle_message
        cluster.drain()
        _assert_each_commits_exactly_once(cluster, txns)

    def test_raise_after_scheduling_writes_no_started_state(self, make_cluster):
        """A raise after simulation and locking loses the STARTED states
        with the batch, so nothing is left to re-dispatch: the re-recovered
        controller accepts and schedules each transaction afresh."""
        cluster = make_cluster()
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i) for i in range(3)]
        controller = cluster.controllers[0]
        controller.recover()
        real_schedule = controller.schedule
        started = []

        def schedule():
            started.append(real_schedule())
            raise RuntimeError("failed after scheduling")

        controller.schedule = schedule
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(RuntimeError):
            controller.step()

        assert started == [True], "the scheduling pass started nothing"
        assert [cluster.state_of(t) for t in txns] == [TransactionState.INITIALIZED] * 3
        self._assert_nothing_durable(cluster, controller, writes)
        assert cluster.input_queues[0].size() == 3
        assert cluster.phy_queues[0].is_empty()

        del controller.schedule
        cluster.drain()
        _assert_each_commits_exactly_once(cluster, txns)

    def test_raise_after_a_result_loses_the_commit_and_its_applied_entry(
        self, make_cluster
    ):
        """A result message handled before the raise loses its COMMITTED
        document, its applied-log entry and its token entry together; the
        redelivered result commits it exactly once."""
        cluster = make_cluster()
        done = cluster.submit_spawn("done", host_index=0)
        store = cluster.stores[0]
        # Give it an idempotency token: the terminal token entry rides the
        # same commit as the document.
        done.idempotency_token = "tok-done"
        store.save_transaction(done)
        store.record_token("tok-done", done.txid, done.state.value)
        controller = cluster.controllers[0]
        controller.step()
        assert cluster.workers[0].step()  # posts the result to inputQ
        later = cluster.submit_spawn("later", host_index=1)
        _raise_on_message(controller, 1)
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(RuntimeError):
            controller.step()

        assert cluster.state_of(done) is TransactionState.STARTED
        assert store.applied_entries() == []
        assert store.lookup_token("tok-done")["state"] == "initialized"
        assert cluster.state_of(later) is TransactionState.INITIALIZED
        self._assert_nothing_durable(cluster, controller, writes)
        assert cluster.input_queues[0].size() == 2

        del controller._handle_message
        cluster.drain()
        _assert_each_commits_exactly_once(cluster, [done, later])
        assert store.lookup_token("tok-done")["state"] == "committed"

    def test_a_raising_body_never_reaches_the_pre_commit_edge(self):
        """The raise discards the batch before ``pre-commit``, so an armed
        crash there waits for the next real commit — the re-recovery's —
        and a successor still processes every message exactly once."""
        injector = FaultInjector()
        cluster = ShardedCluster(num_shards=1, injector=injector, faulty_shards=(0,))
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i) for i in range(3)]
        controller = cluster.controllers[0]
        controller.recover()
        hits = injector.hits("pre-commit")
        injector.arm("pre-commit", hits)
        _raise_on_message(controller, 1)
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(RuntimeError):
            controller.step()

        assert injector.fired == [] and injector.hits("pre-commit") == hits
        assert [cluster.state_of(t) for t in txns] == [TransactionState.INITIALIZED] * 3
        self._assert_nothing_durable(cluster, controller, writes)
        assert cluster.input_queues[0].size() == 3

        del controller._handle_message
        with pytest.raises(CrashPoint):
            controller.step()
        assert [crash.point for crash in injector.fired] == ["pre-commit"]
        assert cluster.ensemble.write_round_trips == writes

        cluster.replace_controller(0)
        cluster.drain()
        _assert_each_commits_exactly_once(cluster, txns)

    def test_a_transient_raise_mid_prepare_does_not_presume_abort(self):
        """A transient fault after the coordinator's scheduling pass loses
        its PREPARING record with the batch instead of leaving it durable
        with no prepare sent, so the re-recovery has no coordinator to
        presume-abort and the transaction commits."""
        cluster = ShardedCluster(num_shards=2)
        txn = cluster.submit_cross_spawn("x", vm_host_index=0)
        coordinator = cluster.controllers[txn.coordinator]
        coordinator.recover()
        real_schedule = coordinator.schedule

        def schedule():
            real_schedule()
            raise ConnectionError("transient coordination fault")

        coordinator.schedule = schedule
        with pytest.raises(ConnectionError):
            coordinator.step()
        del coordinator.schedule

        assert cluster.state_of(txn) is TransactionState.INITIALIZED
        assert not coordinator.recovered
        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.COMMITTED, final.error

    def test_a_transient_raise_after_the_prepare_commit_resumes_the_coordinator(self):
        """One step leaves a cross-shard spawn PREPARING with its prepare
        queued; the next step's body raises a transient ``ConnectionError``
        and the replica demotes.  The re-recovery restores the coordinator
        PREPARING — its prepare is already at the participant — so the
        transaction commits instead of being presumed aborted."""
        cluster = ShardedCluster(num_shards=2)
        txn = cluster.submit_cross_spawn("x")
        coordinator = cluster.controllers[txn.coordinator]
        coordinator.step()
        assert cluster.state_of(txn) is TransactionState.PREPARING
        (peer,) = [shard for shard in txn.participants if shard != txn.coordinator]
        assert [item["kind"] for _, item in cluster.input_queues[peer].take_many(10)] == [
            "prepare"
        ]

        def take_many(limit):
            raise ConnectionError("transient coordination fault")

        coordinator.input_queue.take_many = take_many
        with pytest.raises(ConnectionError):
            coordinator.step()
        del coordinator.input_queue.take_many
        assert not coordinator.recovered

        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.COMMITTED, final.error
