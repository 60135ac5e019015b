"""Unit tests for the persistent store, todo queue and signal board."""

import pytest

from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.scheduler import TodoQueue
from repro.core.signals import KILL, TERM, SignalBoard
from repro.core.txn import Transaction, TransactionState
from repro.datamodel.tree import DataModel


@pytest.fixture
def store():
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=60.0)
    return TropicStore(KVStore(CoordinationClient(ensemble)))


class TestTransactionPersistence:
    def test_save_load_roundtrip(self, store):
        txn = Transaction("spawnVM", {"vm_name": "vm1"})
        txn.mark(TransactionState.ACCEPTED, 1.0)
        store.save_transaction(txn)
        loaded = store.load_transaction(txn.txid)
        assert loaded.procedure == "spawnVM"
        assert loaded.state is TransactionState.ACCEPTED

    def test_load_missing_returns_none(self, store):
        assert store.load_transaction("txn-999999") is None

    def test_list_and_count_by_state(self, store):
        a = Transaction("p")
        b = Transaction("p", state=TransactionState.COMMITTED)
        store.save_transaction(a)
        store.save_transaction(b)
        assert set(store.transaction_ids()) == {a.txid, b.txid}
        counts = store.count_by_state()
        assert counts["initialized"] == 1
        assert counts["committed"] == 1

    def test_active_transactions_filter(self, store):
        active = Transaction("p", state=TransactionState.STARTED)
        done = Transaction("p", state=TransactionState.COMMITTED)
        store.save_transaction(active)
        store.save_transaction(done)
        assert [t.txid for t in store.load_active_transactions()] == [active.txid]

    def test_delete_transaction(self, store):
        txn = Transaction("p")
        store.save_transaction(txn)
        store.delete_transaction(txn.txid)
        assert store.load_transaction(txn.txid) is None


class TestCheckpointAndAppliedLog:
    def test_checkpoint_roundtrip(self, store):
        model = DataModel()
        model.create("/vmRoot", "vmRoot")
        store.save_checkpoint(model, 7)
        restored, seq = store.load_checkpoint()
        assert seq == 7
        assert restored.exists("/vmRoot")

    def test_missing_checkpoint(self, store):
        model, seq = store.load_checkpoint()
        assert model is None and seq == 0

    def test_applied_log_order_and_since(self, store):
        assert store.applied_seq() == 0
        store.record_applied("t1")
        store.record_applied("t2")
        store.record_applied("t3")
        assert store.applied_seq() == 3
        assert store.applied_since(0) == ["t1", "t2", "t3"]
        assert store.applied_since(2) == ["t3"]

    def test_record_applied_reads_applied_seq_once_per_writer(self, store):
        ensemble = store.kv.client.ensemble
        store.record_applied("t1")
        reads = ensemble.read_round_trips
        assert [store.record_applied(t) for t in ("t2", "t3")] == [2, 3]
        assert ensemble.read_round_trips == reads
        # A reset (leadership change, failed commit) re-reads the store.
        store.reset_applied_seq()
        assert store.record_applied("t4") == 4
        assert ensemble.read_round_trips == reads + 1

    def test_truncate_applied_issues_no_get(self, store):
        for name in ("t1", "t2", "t3"):
            store.record_applied(name)
        gets = []
        original = store.kv.get
        store.kv.get = lambda key, default=None: gets.append(key) or original(key, default)
        assert store.truncate_applied(2) == 2
        assert gets == []
        assert store.applied_since(0) == ["t3"]

    def test_truncate_applied(self, store):
        for name in ("t1", "t2", "t3"):
            store.record_applied(name)
        removed = store.truncate_applied(2)
        assert removed == 2
        assert store.applied_since(0) == ["t3"]
        # The sequence counter keeps increasing after truncation.
        assert store.record_applied("t4") == 4

    def test_inconsistent_paths_roundtrip(self, store):
        store.save_inconsistent_paths(["/a", "/b", "/a"])
        assert store.load_inconsistent_paths() == ["/a", "/b"]

    def test_meta_roundtrip(self, store):
        store.put_meta("bootstrapped", True)
        assert store.get_meta("bootstrapped") is True
        assert store.get_meta("missing", "x") == "x"


class TestSignalBoard:
    def test_send_get_clear(self, store):
        board = SignalBoard(store)
        assert board.present() == frozenset()
        board.term("t1")
        assert board.get("t1") == TERM
        assert board.present() == {"t1"}
        assert board.signal_of("t1") == TERM
        board.clear("t1")
        assert board.get("t1") is None
        assert board.signal_of("t1") is None
        assert board.present() == frozenset()

    def test_kill(self, store):
        board = SignalBoard(store)
        board.kill("t2")
        assert board.get("t2") == KILL

    def test_unknown_signal_rejected(self, store):
        with pytest.raises(ValueError):
            SignalBoard(store).send("t1", "HUP")


class TestTodoQueue:
    def _txn(self, name):
        return Transaction(name)

    def test_push_front_and_peek(self):
        queue = TodoQueue()
        a, b = self._txn("a"), self._txn("b")
        queue.push_back(a)
        queue.push_front(b)
        assert queue.peek() is b
        assert len(queue) == 2

    def test_remove_by_txid(self):
        queue = TodoQueue()
        a, b = self._txn("a"), self._txn("b")
        queue.push_back(a)
        queue.push_back(b)
        assert queue.remove(a.txid) is a
        assert queue.remove(a.txid) is None
        assert queue.transactions() == [b]

    def test_unknown_policy_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TodoQueue("random")

    def test_empty_queue(self):
        queue = TodoQueue()
        assert queue.is_empty()
        assert queue.peek() is None
