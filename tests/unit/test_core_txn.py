"""Unit tests for transactions, execution logs and read/write sets."""

import pytest

from repro.core.txn import (
    ExecutionLog,
    LogRecord,
    ReadWriteSet,
    Transaction,
    TransactionState,
)


class TestTransactionState:
    def test_terminal_states(self):
        assert TransactionState.COMMITTED.is_terminal
        assert TransactionState.ABORTED.is_terminal
        assert TransactionState.FAILED.is_terminal

    def test_non_terminal_states(self):
        for state in (
            TransactionState.INITIALIZED,
            TransactionState.ACCEPTED,
            TransactionState.DEFERRED,
            TransactionState.STARTED,
        ):
            assert not state.is_terminal


class TestExecutionLog:
    def test_append_assigns_sequence_numbers(self):
        log = ExecutionLog()
        log.append("/a", "doX", [1], "undoX", [1])
        log.append("/b", "doY", [], None, [])
        assert [record.seq for record in log] == [1, 2]

    def test_roundtrip(self):
        log = ExecutionLog()
        log.append("/storageRoot/s0", "cloneImage", ["tpl", "img"], "removeImage", ["img"])
        restored = ExecutionLog.from_dict(log.to_dict())
        assert len(restored) == 1
        assert restored[0].action == "cloneImage"
        assert restored[0].undo_args == ["img"]

    def test_as_table_shape(self):
        log = ExecutionLog()
        log.append("/a", "doX", [1, 2], "undoX", [2])
        rows = log.as_table()
        assert rows[0][0] == 1
        assert rows[0][2] == "doX"
        assert rows[0][4] == "undoX"

    def test_format_table_contains_header_and_rows(self):
        log = ExecutionLog()
        log.append("/vmRoot/h", "startVM", ["vm1"], "stopVM", ["vm1"])
        text = log.format_table()
        assert "resource object path" in text
        assert "startVM" in text

    def test_record_roundtrip(self):
        record = LogRecord(3, "/x", "act", ["a"], "undo", ["b"])
        assert LogRecord.from_dict(record.to_dict()) == record


class TestReadWriteSet:
    def test_record_and_serialise(self):
        rwset = ReadWriteSet()
        rwset.record_read("/a")
        rwset.record_write("/b")
        rwset.record_constraint_read("/c")
        restored = ReadWriteSet.from_dict(rwset.to_dict())
        assert restored.reads == {"/a"}
        assert restored.writes == {"/b"}
        assert restored.constraint_reads == {"/c"}

    def test_from_empty_dict(self):
        rwset = ReadWriteSet.from_dict({})
        assert rwset.reads == set() and rwset.writes == set()


class TestTransaction:
    def test_unique_monotonic_ids(self):
        a = Transaction("p")
        b = Transaction("p")
        assert a.txid != b.txid
        assert a.txid < b.txid

    def test_mark_records_timestamp(self):
        txn = Transaction("p")
        txn.mark(TransactionState.ACCEPTED, 12.5)
        assert txn.state is TransactionState.ACCEPTED
        assert txn.timestamps["accepted"] == 12.5

    def test_latency_requires_both_timestamps(self):
        txn = Transaction("p")
        assert txn.latency() is None
        txn.mark(TransactionState.INITIALIZED, 1.0)
        txn.mark(TransactionState.ACCEPTED, 2.0)
        txn.mark(TransactionState.STARTED, 3.0)
        assert txn.latency() is None
        txn.mark(TransactionState.COMMITTED, 3.5)
        assert txn.latency() == pytest.approx(2.5)

    def test_mark_refuses_an_edge_outside_the_state_machine(self):
        txn = Transaction("p")
        with pytest.raises(ValueError, match="INITIALIZED -> COMMITTED"):
            txn.mark(TransactionState.COMMITTED, 1.0)
        assert txn.state is TransactionState.INITIALIZED
        assert txn.timestamps == {}
        done = Transaction("p", state=TransactionState.ABORTED)
        with pytest.raises(ValueError):
            done.mark(TransactionState.ACCEPTED)

    @pytest.mark.parametrize(
        "path",
        [
            # submit_batch stamps a new transaction's submission time
            ["INITIALIZED"],
            # a participant's prepare record
            ["PREPARED"],
            # a deferred retry blocked again
            ["ACCEPTED", "DEFERRED", "DEFERRED"],
            # a wound or a lock-conflict vote sends a prepare back to todoQ
            ["ACCEPTED", "PREPARING", "DEFERRED"],
        ],
    )
    def test_edges_shipped_code_takes_are_legal(self, path):
        txn = Transaction("p")
        for name in path:
            txn.mark(TransactionState[name], 1.0)
        assert txn.state is TransactionState[path[-1]]

    def test_serialisation_roundtrip(self):
        txn = Transaction("spawnVM", {"vm_name": "vm1"})
        txn.log.append("/a", "doX", [1], "undoX", [1])
        txn.rwset.record_write("/a")
        txn.mark(TransactionState.ACCEPTED, 1.0)
        txn.mark(TransactionState.STARTED, 2.0)
        txn.error = None
        restored = Transaction.from_dict(txn.to_dict())
        assert restored.txid == txn.txid
        assert restored.procedure == "spawnVM"
        assert restored.state is TransactionState.STARTED
        assert len(restored.log) == 1
        assert restored.rwset.writes == {"/a"}

    def test_is_terminal(self):
        txn = Transaction("p")
        assert not txn.is_terminal
        txn.mark(TransactionState.ABORTED)
        assert txn.is_terminal

    def test_result_survives_roundtrip(self):
        txn = Transaction("p")
        txn.result = {"vm": "/vmRoot/h0/vm1"}
        assert Transaction.from_dict(txn.to_dict()).result == {"vm": "/vmRoot/h0/vm1"}
