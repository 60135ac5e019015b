"""Unit tests for physical execution, undo rollback and workers (§3.2)."""

import pytest

from repro.common.config import TropicConfig
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.events import KIND_EXECUTE, KIND_RESULT, execute_message
from repro.core.persistence import TropicStore
from repro.core.physical import PhysicalExecutor
from repro.core.signals import SignalBoard, TERM
from repro.core.simulation import LogicalExecutor
from repro.core.txn import Transaction
from repro.core.worker import Worker


@pytest.fixture
def store(ensemble):
    return TropicStore(KVStore(CoordinationClient(ensemble)))


@pytest.fixture
def simulated_spawn(executor, make_spawn_txn):
    txn = make_spawn_txn("vm1")
    assert executor.simulate(txn).ok
    return txn


class TestPhysicalExecutor:
    def test_commit_applies_all_actions(self, registry, simulated_spawn):
        executor = PhysicalExecutor(registry)
        outcome = executor.execute(simulated_spawn)
        assert outcome.committed
        assert outcome.executed == 5
        host = registry.device_at("/vmRoot/vmHost0")
        assert host.vm_state("vm1") == "running"
        storage = registry.device_at("/storageRoot/storageHost0")
        assert storage.has_image("vm1-disk")

    def test_failure_triggers_reverse_undo(self, registry, simulated_spawn):
        host = registry.device_at("/vmRoot/vmHost0")
        host.faults.fail_next("startVM")
        executor = PhysicalExecutor(registry)
        outcome = executor.execute(simulated_spawn)
        assert outcome.outcome == "aborted"
        assert outcome.executed == 4
        assert outcome.undone == 4
        # All physical effects rolled back.
        assert host.vm_state("vm1") is None
        assert "vm1-disk" not in host.imported_images
        assert not registry.device_at("/storageRoot/storageHost0").has_image("vm1-disk")

    def test_undo_failure_reports_failed(self, registry, simulated_spawn):
        host = registry.device_at("/vmRoot/vmHost0")
        host.faults.fail_next("startVM")
        host.faults.fail_next("removeVM")  # first undo step fails
        executor = PhysicalExecutor(registry)
        outcome = executor.execute(simulated_spawn)
        assert outcome.outcome == "failed"
        assert outcome.undo_errors
        # Remaining undos were skipped: the image is still on the storage host.
        assert registry.device_at("/storageRoot/storageHost0").has_image("vm1-disk")

    def test_logical_only_mode_skips_devices(self, registry, simulated_spawn):
        config = TropicConfig(logical_only=True)
        executor = PhysicalExecutor(registry, config)
        outcome = executor.execute(simulated_spawn)
        assert outcome.committed
        assert registry.device_at("/vmRoot/vmHost0").vm_state("vm1") is None

    def test_no_registry_behaves_as_logical_only(self, simulated_spawn):
        outcome = PhysicalExecutor(None).execute(simulated_spawn)
        assert outcome.committed

    def test_counters(self, registry, simulated_spawn):
        executor = PhysicalExecutor(registry)
        executor.execute(simulated_spawn)
        assert executor.transactions_executed == 1
        assert executor.actions_executed == 5


class TestTermSignal:
    def test_term_stops_execution_and_rolls_back(self, registry, schema, procedures, model,
                                                 make_spawn_txn):
        ensemble = CoordinationEnsemble(num_servers=1, default_session_timeout=60.0)
        store = TropicStore(KVStore(CoordinationClient(ensemble)))
        signals = SignalBoard(store)
        txn = make_spawn_txn("vm1")
        LogicalExecutor(model, schema, procedures).simulate(txn)
        signals.send(txn.txid, TERM)
        executor = PhysicalExecutor(registry, signals=signals)
        outcome = executor.execute(txn)
        assert outcome.outcome == "aborted"
        assert "TERM" in (outcome.error or "")
        assert outcome.executed == 0

    def test_term_posted_between_actions_rolls_back(self, registry, executor, store,
                                                    make_spawn_txn):
        """The executor's board re-lists after the post's watch fires, so
        a TERM sent while the first action runs stops the second one."""
        txn = make_spawn_txn("vm1")
        assert executor.simulate(txn).ok
        physical = PhysicalExecutor(registry, signals=SignalBoard(store))
        invoke = physical._invoke

        def invoke_then_term(path, action, args, phase="forward"):
            invoke(path, action, args, phase)
            if phase == "forward":
                SignalBoard(store).term(txn.txid)  # e.g. the controller

        physical._invoke = invoke_then_term
        outcome = physical.execute(txn)
        assert outcome.outcome == "aborted"
        assert "TERM" in (outcome.error or "")
        assert (outcome.executed, outcome.undone) == (1, 1)
        storage = registry.device_at("/storageRoot/storageHost0")
        assert not storage.has_image("vm1-disk")

    def test_thousand_executions_leave_watchers_flat(self, ensemble, store):
        def watchers():
            return sum(
                len(w) for table in (ensemble._data_watches, ensemble._child_watches)
                for w in table.values()
            )

        physical = PhysicalExecutor(None, TropicConfig(logical_only=True),
                                    signals=SignalBoard(store))
        txn = Transaction("p")
        txn.log.append("/a", "noop", [], None, [])
        txn.log.append("/b", "noop", [], None, [])
        physical.execute(txn)  # arms the board's one child watch
        before, ops_before = watchers(), ensemble.op_count
        for _ in range(1000):
            assert physical.execute(txn).committed
        assert watchers() == before
        assert ensemble.op_count == ops_before


class TestWorker:
    @pytest.fixture
    def worker_env(self, registry):
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=60.0)
        client = CoordinationClient(ensemble)
        store = TropicStore(KVStore(client))
        input_queue = DistributedQueue(client, "/queues/inputQ")
        phy_queue = DistributedQueue(client, "/queues/phyQ")
        worker = Worker("w0", store, phy_queue, input_queue, registry)
        return store, input_queue, phy_queue, worker

    def test_worker_reports_commit(self, worker_env, simulated_spawn):
        store, input_queue, phy_queue, worker = worker_env
        phy_queue.put(execute_message(simulated_spawn.txid, simulated_spawn.log.to_dict()))
        assert worker.step() is True
        ((_, result),) = input_queue.take_many(5)
        assert result["kind"] == KIND_RESULT
        assert result["outcome"] == "committed"
        assert result["txid"] == simulated_spawn.txid

    def test_worker_reports_abort_with_error(self, worker_env, simulated_spawn, registry):
        store, input_queue, phy_queue, worker = worker_env
        registry.device_at("/vmRoot/vmHost0").faults.fail_next("startVM")
        phy_queue.put(execute_message(simulated_spawn.txid, simulated_spawn.log.to_dict()))
        worker.step()
        ((_, result),) = input_queue.take_many(5)
        assert result["outcome"] == "aborted"
        assert "injected fault" in result["error"]
        assert result["failed_path"] == "/vmRoot/vmHost0"

    def test_worker_idle_step_returns_false(self, worker_env):
        _, _, _, worker = worker_env
        assert worker.step() is False

    def test_worker_skips_unknown_transaction(self, worker_env):
        """An execute item the worker cannot run (it carries no log) is
        dropped like an unknown kind: acked, never claimed, no result."""
        store, input_queue, phy_queue, worker = worker_env
        phy_queue.put({"kind": KIND_EXECUTE, "txid": "txn-does-not-exist", "epoch": 0})
        assert worker.step() is True
        assert input_queue.is_empty()
        assert phy_queue.is_empty()
        assert store.load_claim("txn-does-not-exist") is None
        assert worker.transactions_processed == 0

    def test_worker_never_reads_transaction_documents(self, worker_env, simulated_spawn):
        """The log rides the message: the worker commits a transaction
        whose document was never written."""
        store, input_queue, phy_queue, worker = worker_env
        phy_queue.put(execute_message(simulated_spawn.txid, simulated_spawn.log.to_dict()))
        assert store.load_transaction(simulated_spawn.txid) is None
        loads = []
        store.load_transaction = lambda txid: loads.append(txid)
        assert worker.step() is True
        ((_, result),) = input_queue.take_many(5)
        assert result["outcome"] == "committed"
        assert loads == []

    def test_run_pending_drains_queue(self, worker_env, executor, make_spawn_txn):
        store, input_queue, phy_queue, worker = worker_env
        for index in range(3):
            txn = make_spawn_txn(f"vm{index}", vm_host=f"/vmRoot/vmHost{index}")
            assert executor.simulate(txn).ok
            phy_queue.put(execute_message(txn.txid, txn.log.to_dict()))
        processed = worker.run_pending()
        assert processed == 3
        assert phy_queue.is_empty()
        assert input_queue.size() == 3
