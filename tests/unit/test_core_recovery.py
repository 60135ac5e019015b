"""Unit tests for leader-failover state recovery (§2.3)."""

from repro.common.config import TropicConfig
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.core.events import result_message
from repro.core.controller import Controller
from repro.core.persistence import TropicStore
from repro.core.recovery import recover_state
from repro.core.txn import TransactionState
from repro.tcloud.entities import build_schema
from repro.tcloud.procedures import build_procedures

from tests.unit.test_core_controller import make_controller, submit_spawn


def recover(store, policy="fifo"):
    return recover_state(
        store, build_schema(), build_procedures(), TropicConfig(scheduler_policy=policy)
    )


class TestRecovery:
    def test_recovery_from_empty_store(self):
        ensemble = CoordinationEnsemble(num_servers=1, default_session_timeout=60.0)
        store = TropicStore(KVStore(CoordinationClient(ensemble)))
        state = recover(store)
        assert state.model.count() == 1  # bare root
        assert len(state.todo) == 0
        assert state.outstanding == {}

    def test_committed_transactions_replayed_from_applied_log(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()

        state = recover(store)
        assert state.model.get("/vmRoot/vmHost0/vm1")["state"] == "running"
        assert txn.txid in state.replayed_committed

    def test_started_transactions_reapplied_with_locks(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()  # started, result not yet delivered

        state = recover(store)
        assert txn.txid in state.outstanding
        assert state.model.exists("/vmRoot/vmHost0/vm1")
        assert state.lock_manager.active_transactions() == {txn.txid}

    def test_accepted_transactions_requeued(self):
        controller, store, input_queue, _ = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        second = submit_spawn(store, input_queue, "vm2")  # deferred behind vm1
        controller.run_until_idle()

        state = recover(store)
        queued = [txn.txid for txn in state.todo.transactions()]
        assert second.txid in queued
        assert first.txid in state.outstanding

    def test_recovery_is_idempotent(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()

        first = recover(store)
        second = recover(store)
        assert first.model.to_dict() == second.model.to_dict()

    def test_inconsistent_paths_restored(self):
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "failed", failed_path="/vmRoot/vmHost0"))
        controller.run_until_idle()

        state = recover(store)
        assert state.model.is_fenced("/vmRoot/vmHost0")

    def test_recovery_reads_no_token_entries(self, monkeypatch):
        """A token entry commits in the same multi as its terminal
        document, so recovery has no token index to rebuild: its cost does
        not grow with the tokens the store retains."""
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        txn.idempotency_token = "tok-1"
        store.save_transaction(txn)
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        assert store.lookup_token("tok-1")["state"] == "committed"

        read = []
        for name in ("get", "keys"):
            real = getattr(store.kv, name)

            def recording(key="", *args, _real=real, **kwargs):
                read.append(key)
                return _real(key, *args, **kwargs)

            monkeypatch.setattr(store.kv, name, recording)
        state = recover(store)
        assert txn.txid in state.replayed_committed
        assert read  # the recorder saw recovery's reads
        assert not [key for key in read if key.startswith(store.TOKEN_PREFIX)]

    def test_new_controller_resumes_processing(self):
        """A fresh controller attached to the same store picks up where the
        failed leader stopped: pending results are processed, deferred
        transactions eventually start."""
        controller, store, input_queue, phy_queue = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        second = submit_spawn(store, input_queue, "vm2")
        controller.run_until_idle()
        input_queue.put(result_message(first.txid, "committed"))
        # The old leader dies here; build a replacement on the same store.
        replacement = Controller(
            name="ctrl-replacement",
            config=TropicConfig(),
            store=store,
            input_queue=input_queue,
            phy_queue=phy_queue,
            schema=build_schema(),
            procedures=build_procedures(),
        )
        replacement.run_until_idle()
        assert store.load_transaction(first.txid).state is TransactionState.COMMITTED
        assert store.load_transaction(second.txid).state is TransactionState.STARTED
        assert replacement.model.exists("/vmRoot/vmHost0/vm1")
        assert replacement.model.exists("/vmRoot/vmHost0/vm2")


class TestRecoveryReads:
    def test_recovery_reads_in_chunks(self):
        """Recovery over D documents and U checkpoint units costs
        O(D/chunk + U/chunk) read round-trips, not one per document."""
        from math import ceil

        from repro.coordination.client import READ_MULTI_LIMIT
        from repro.core.txn import Transaction

        controller, store, input_queue, _ = make_controller(num_hosts=150)
        committed = []
        for index in range(3):
            txn = submit_spawn(store, input_queue, f"vm{index}", vm_host=f"/vmRoot/vmHost{index}")
            controller.run_until_idle()
            input_queue.put(result_message(txn.txid, "committed"))
            controller.run_until_idle()
            committed.append(txn.txid)
        with store.kv.batch():
            for index in range(300):
                old = Transaction(procedure="spawnVM", args={"vm_name": f"old{index}"})
                old.mark(TransactionState.INITIALIZED, 0.0)
                old.mark(TransactionState.ABORTED, 0.0)
                store.save_transaction(old)
        model, _ = store.load_checkpoint()
        units = sum(len(top.children) for top in model.root.children.values())
        docs = len(store.transaction_ids())
        ensemble = store.kv.client.ensemble
        before = ensemble.read_round_trips
        state = recover(store)
        reads = ensemble.read_round_trips - before
        assert state.replayed_committed == committed
        chunks = ceil(docs / READ_MULTI_LIMIT) + ceil(units / READ_MULTI_LIMIT)
        # The fenced set, the checkpoint meta, two listings and the applied
        # log's entries and documents come on top of the chunks.
        assert reads <= chunks + 6, (reads, docs, units)
