"""Unit tests for the controller's logical-layer processing (Figure 2)."""


from repro.common.config import TropicConfig
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.controller import Controller
from repro.core.events import request_message, result_message
from repro.core.persistence import TropicStore
from repro.core.txn import Transaction, TransactionState
from repro.tcloud.entities import build_schema
from repro.tcloud.inventory import build_inventory
from repro.tcloud.procedures import build_procedures


def make_controller(policy="fifo", num_hosts=4, host_mem_mb=4096):
    """Controller + queues + store wired to an in-memory ensemble."""
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=60.0)
    client = CoordinationClient(ensemble)
    store = TropicStore(KVStore(client))
    input_queue = DistributedQueue(client, "/queues/inputQ")
    phy_queue = DistributedQueue(client, "/queues/phyQ")
    inventory = build_inventory(num_vm_hosts=num_hosts, num_storage_hosts=2,
                                host_mem_mb=host_mem_mb, with_devices=False)
    store.save_checkpoint(inventory.model, 0)
    config = TropicConfig(scheduler_policy=policy)
    controller = Controller(
        name="ctrl-test",
        config=config,
        store=store,
        input_queue=input_queue,
        phy_queue=phy_queue,
        schema=build_schema(),
        procedures=build_procedures(),
    )
    return controller, store, input_queue, phy_queue


def submit_spawn(store, input_queue, vm_name, vm_host="/vmRoot/vmHost0",
                 storage_host="/storageRoot/storageHost0", mem_mb=1024):
    txn = Transaction(
        procedure="spawnVM",
        args={
            "vm_name": vm_name,
            "image_template": "template-small",
            "storage_host": storage_host,
            "vm_host": vm_host,
            "mem_mb": mem_mb,
        },
    )
    txn.mark(TransactionState.INITIALIZED, 0.0)
    store.save_transaction(txn)
    input_queue.put(request_message(txn.txid))
    return txn


class TestAcceptance:
    def test_request_accepted_into_todo(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.step()
        loaded = store.load_transaction(txn.txid)
        # Accepted and immediately scheduled to the physical layer.
        assert loaded.state is TransactionState.STARTED
        assert controller.stats["accepted"] == 1

    def test_duplicate_request_ignored(self):
        controller, store, input_queue, phy_queue = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.step()
        input_queue.put(request_message(txn.txid))  # duplicate delivery
        controller.step()
        assert controller.stats["accepted"] == 1
        assert phy_queue.size() == 1

    def test_unknown_txid_request_ignored(self):
        controller, _, input_queue, _ = make_controller()
        input_queue.put(request_message("txn-ghost"))
        controller.step()
        assert controller.stats["accepted"] == 0

    def test_acked_only_after_processing(self):
        controller, store, input_queue, _ = make_controller()
        submit_spawn(store, input_queue, "vm1")
        assert input_queue.size() == 1
        controller.step()
        assert input_queue.size() == 0


class TestDrainReads:
    """A drain reads its requests' documents in one round-trip, and the
    prefetched copy never outlives a write of the same document."""

    @staticmethod
    def count_txn_reads(monkeypatch, ensemble):
        """Record, per read round-trip, whether it touched a document."""
        reads = []
        for name in ("get", "get_many"):
            real = getattr(ensemble, name, None)
            if real is None:  # an ensemble without the read-only multi
                continue

            def wrapped(session_id, paths, *args, _real=real, **kwargs):
                touched = [paths] if isinstance(paths, str) else paths
                reads.append(any("/txns/" in path for path in touched))
                return _real(session_id, paths, *args, **kwargs)

            monkeypatch.setattr(ensemble, name, wrapped)
        return reads

    def test_a_drain_of_k_requests_reads_documents_once(self, monkeypatch):
        controller, store, input_queue, phy_queue = make_controller()
        controller.recover()
        txns = [
            submit_spawn(store, input_queue, f"vm{index}", vm_host=f"/vmRoot/vmHost{index}")
            for index in range(4)
        ]
        reads = self.count_txn_reads(monkeypatch, store.kv.client.ensemble)
        controller.step()
        assert sum(reads) == 1
        assert controller.stats["accepted"] == len(txns)
        assert not phy_queue.is_empty()

    def test_two_requests_for_one_txid_in_one_drain_accept_once(self):
        controller, store, input_queue, phy_queue = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        input_queue.put(request_message(txn.txid))  # delivered twice
        controller.run_until_idle()
        assert controller.stats["accepted"] == 1
        assert phy_queue.size() == 1
        assert input_queue.is_empty()

    def test_a_kill_before_accept_ends_aborted_and_dispatches_nothing(self):
        controller, store, input_queue, phy_queue = make_controller()
        controller.recover()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.send_kill(txn.txid)
        controller.run_until_idle()
        assert store.load_transaction(txn.txid).state is TransactionState.ABORTED
        assert controller.stats["accepted"] == 0
        assert phy_queue.is_empty()
        assert input_queue.is_empty()


class TestSchedulingDispositions:
    def test_runnable_transaction_dispatched_to_phyq(self):
        controller, store, input_queue, phy_queue = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.step()
        ((_, dispatched),) = phy_queue.take_many(5)
        assert dispatched["txid"] == txn.txid
        assert txn.txid in controller.outstanding

    def test_constraint_violation_aborts_immediately(self):
        controller, store, input_queue, phy_queue = make_controller()
        txn = submit_spawn(store, input_queue, "huge", mem_mb=99999)
        controller.step()
        loaded = store.load_transaction(txn.txid)
        assert loaded.state is TransactionState.ABORTED
        assert phy_queue.is_empty()
        assert controller.stats["aborted_logical"] == 1

    def test_conflicting_transaction_deferred_fifo(self):
        controller, store, input_queue, phy_queue = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        second = submit_spawn(store, input_queue, "vm2")  # same host/storage
        controller.step()
        controller.step()
        assert store.load_transaction(first.txid).state is TransactionState.STARTED
        assert store.load_transaction(second.txid).state is TransactionState.DEFERRED
        assert controller.stats["deferred"] >= 1
        assert phy_queue.size() == 1

    def test_deferred_transaction_runs_after_commit(self):
        controller, store, input_queue, phy_queue = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        second = submit_spawn(store, input_queue, "vm2")
        controller.run_until_idle()
        input_queue.put(result_message(first.txid, "committed"))
        controller.run_until_idle()
        assert store.load_transaction(second.txid).state is TransactionState.STARTED

    def test_non_conflicting_transactions_run_concurrently(self):
        controller, store, input_queue, phy_queue = make_controller()
        submit_spawn(store, input_queue, "vm1", vm_host="/vmRoot/vmHost0",
                     storage_host="/storageRoot/storageHost0")
        submit_spawn(store, input_queue, "vm2", vm_host="/vmRoot/vmHost1",
                     storage_host="/storageRoot/storageHost1")
        controller.run_until_idle()
        assert phy_queue.size() == 2
        assert controller.outstanding_count() == 2

    def test_aggressive_policy_schedules_past_conflicting_head(self):
        controller, store, input_queue, phy_queue = make_controller(policy="aggressive")
        submit_spawn(store, input_queue, "vm1")
        submit_spawn(store, input_queue, "vm2")  # conflicts with vm1
        other = submit_spawn(store, input_queue, "vm3", vm_host="/vmRoot/vmHost2",
                             storage_host="/storageRoot/storageHost1")
        controller.run_until_idle()
        # FIFO would block vm3 behind vm2; aggressive dispatches it.
        assert store.load_transaction(other.txid).state is TransactionState.STARTED
        assert phy_queue.size() == 2


class TestCleanup:
    def test_commit_cleanup_releases_locks_and_records_applied(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        loaded = store.load_transaction(txn.txid)
        assert loaded.state is TransactionState.COMMITTED
        assert store.applied_since(0) == [txn.txid]
        assert controller.lock_manager.active_transactions() == set()
        assert controller.model.exists("/vmRoot/vmHost0/vm1")

    def test_abort_cleanup_rolls_back_logical_layer(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "aborted", error="device exploded"))
        controller.run_until_idle()
        loaded = store.load_transaction(txn.txid)
        assert loaded.state is TransactionState.ABORTED
        assert loaded.error == "device exploded"
        assert not controller.model.exists("/vmRoot/vmHost0/vm1")
        assert controller.lock_manager.active_transactions() == set()

    def test_failed_cleanup_fences_subtree(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(
            result_message(txn.txid, "failed", error="undo failed",
                           failed_path="/vmRoot/vmHost0")
        )
        controller.run_until_idle()
        assert store.load_transaction(txn.txid).state is TransactionState.FAILED
        assert controller.model.is_fenced("/vmRoot/vmHost0")
        assert "/vmRoot/vmHost0" in store.load_inconsistent_paths()

    def test_duplicate_result_is_idempotent(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        assert controller.stats["committed"] == 1
        assert store.applied_since(0) == [txn.txid]

    def test_checkpoint_after_configured_commits(self):
        controller, store, input_queue, _ = make_controller()
        controller.config = controller.config.with_overrides(checkpoint_every=2)
        names = ["vm1", "vm2"]
        for index, name in enumerate(names):
            txn = submit_spawn(store, input_queue, name, vm_host=f"/vmRoot/vmHost{index}",
                               storage_host="/storageRoot/storageHost0")
            controller.run_until_idle()
            input_queue.put(result_message(txn.txid, "committed"))
            controller.run_until_idle()
        assert controller.stats["checkpoints"] == 1
        model, seq = store.load_checkpoint()
        assert seq == 2
        assert model.exists("/vmRoot/vmHost0/vm1")
        assert store.applied_since(seq) == []


class TestKill:
    def test_kill_outstanding_transaction(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        controller.send_kill(txn.txid)
        loaded = store.load_transaction(txn.txid)
        assert loaded.state is TransactionState.ABORTED
        assert not controller.model.exists("/vmRoot/vmHost0/vm1")
        # The touched subtrees are fenced pending repair (§4).
        assert controller.model.is_fenced("/vmRoot/vmHost0")
        # A late worker result must not resurrect the transaction.
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        assert store.load_transaction(txn.txid).state is TransactionState.ABORTED

    def test_kill_queued_transaction(self):
        controller, store, input_queue, _ = make_controller()
        submit_spawn(store, input_queue, "vm1")
        blocked = submit_spawn(store, input_queue, "vm2")
        controller.run_until_idle()  # vm2 is deferred behind vm1
        controller.send_kill(blocked.txid)
        assert store.load_transaction(blocked.txid).state is TransactionState.ABORTED

    def test_busy_seconds_accumulate(self):
        controller, store, input_queue, _ = make_controller()
        submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        assert controller.busy_seconds() > 0.0
