"""Unit tests for the discipline checkers: CoW funnel, KV write funnel,
transaction-state machine, transient-swallow (repro.analysis.checkers)."""

from repro.analysis.checkers import (
    RULE_COW,
    RULE_KV,
    RULE_STATE_ASSIGN,
    RULE_STATE_EDGE,
    RULE_SWALLOW,
    check_cow_funnel,
    check_kv_writes,
    check_transient_swallowed,
    check_txn_state,
)
from repro.analysis.core import index_from_sources as make_index

# ---------------------------------------------------------------------------
# cow-funnel
# ---------------------------------------------------------------------------

COW_BAD_MUTATOR = '''
class Service:
    def rename(self, model, path):
        node = model.get(path)
        node.add_child(make_node("x"))
'''

COW_BAD_ATTR_WRITE = '''
class Service:
    def retag(self, model, path):
        node = model.get(path)
        node.attrs["tag"] = "hot"
'''

COW_BAD_DICT_MUTATION = '''
class Service:
    def retag(self, model, path):
        node = model.get(path)
        node.attrs.update({"tag": "hot"})
'''

COW_GOOD_READS = '''
class Service:
    def tally(self, model, path):
        host = model.get(path)
        used = sum(vm.attrs.get("ram", 0) for vm in host.children.values())
        names = list(host.children)
        return used, names
'''

COW_GOOD_OWNED = '''
class Service:
    def rename(self, model, path):
        node = model.get_for_write(path)
        node.attrs["tag"] = "hot"
        node.add_child(make_node("x"))
'''


class TestCowFunnel:
    def test_mutator_call_on_shared_node(self):
        findings = check_cow_funnel(make_index({"repro.fix.cow": COW_BAD_MUTATOR}))
        assert [f.rule for f in findings] == [RULE_COW]
        assert "get_for_write" in findings[0].message

    def test_subscript_assignment_on_shared_node(self):
        findings = check_cow_funnel(make_index({"repro.fix.cow": COW_BAD_ATTR_WRITE}))
        assert len(findings) == 1

    def test_dict_mutation_on_shared_node(self):
        findings = check_cow_funnel(make_index({"repro.fix.cow": COW_BAD_DICT_MUTATION}))
        assert len(findings) == 1

    def test_reads_of_shared_node_are_snapshot_safe(self):
        assert check_cow_funnel(make_index({"repro.fix.cow": COW_GOOD_READS})) == []

    def test_get_for_write_claims_ownership(self):
        assert check_cow_funnel(make_index({"repro.fix.cow": COW_GOOD_OWNED})) == []

    def test_datamodel_package_is_exempt(self):
        index = make_index({"repro.datamodel.fix": COW_BAD_MUTATOR})
        assert check_cow_funnel(index) == []


# ---------------------------------------------------------------------------
# kv-write-outside-funnel
# ---------------------------------------------------------------------------

KV_BAD = '''
class Sidecar:
    def stash(self, kv, doc):
        kv.put("notes/latest", doc)
'''

KV_GOOD_READ = '''
class Sidecar:
    def peek(self, kv):
        return kv.get("notes/latest")
'''


class TestKvWrites:
    def test_raw_write_outside_funnel_is_flagged(self):
        findings = check_kv_writes(make_index({"repro.fix.kv": KV_BAD}))
        assert [f.rule for f in findings] == [RULE_KV]

    def test_reads_are_fine(self):
        assert check_kv_writes(make_index({"repro.fix.kv": KV_GOOD_READ})) == []

    def test_persistence_funnel_is_exempt(self):
        index = make_index({"repro.core.persistence_fix": KV_BAD})
        assert check_kv_writes(index) == []


# ---------------------------------------------------------------------------
# txn-state discipline
# ---------------------------------------------------------------------------

STATE_DIRECT = '''
class Handler:
    def force(self, txn):
        txn.state = TransactionState.COMMITTED
'''

STATE_BAD_EDGE = '''
class Handler:
    def resolve(self, txn):
        if txn.state is TransactionState.COMMITTED:
            txn.mark(TransactionState.PREPARING)
'''

STATE_GOOD_EDGE = '''
class Handler:
    def resolve(self, txn):
        if txn.state is TransactionState.PREPARING:
            txn.mark(TransactionState.PREPARED)
'''

STATE_GOOD_MEMBERSHIP = '''
class Handler:
    def resolve(self, txn):
        if txn.state in (TransactionState.PREPARED, TransactionState.STARTED):
            txn.mark(TransactionState.COMMITTED)
'''


class TestTxnState:
    def test_direct_assignment_is_flagged(self):
        findings = check_txn_state(make_index({"repro.fix.txn": STATE_DIRECT}))
        assert [f.rule for f in findings] == [RULE_STATE_ASSIGN]
        assert "mark()" in findings[0].message

    def test_undocumented_transition_is_flagged(self):
        findings = check_txn_state(make_index({"repro.fix.txn": STATE_BAD_EDGE}))
        assert [f.rule for f in findings] == [RULE_STATE_EDGE]
        assert findings[0].detail == "COMMITTED->PREPARING"

    def test_documented_transition_is_silent(self):
        assert check_txn_state(make_index({"repro.fix.txn": STATE_GOOD_EDGE})) == []

    def test_membership_guard_checks_every_source_state(self):
        assert check_txn_state(make_index({"repro.fix.txn": STATE_GOOD_MEMBERSHIP})) == []

    def test_mark_itself_may_assign(self):
        source = STATE_DIRECT.replace("class Handler", "class Transaction").replace(
            "def force", "def mark"
        ).replace("txn.state", "self.state").replace("(self, txn)", "(self)")
        assert check_txn_state(make_index({"repro.fix.txn": source})) == []


# ---------------------------------------------------------------------------
# transient-swallowed
# ---------------------------------------------------------------------------

SWALLOW_BAD = '''
class Runner:
    def run(self):
        while True:
            try:
                self.step()
            except Exception:
                pass
'''

SWALLOW_CLASSIFIED = '''
class Runner:
    def run(self):
        while True:
            try:
                self.step()
            except Exception as exc:
                self.counters.record_failure(exc)
'''

SWALLOW_RERAISED = '''
class Runner:
    def run(self):
        while True:
            try:
                self.step()
            except QuorumLostError:
                raise
'''

SWALLOW_NOT_IN_LOOP = '''
class Runner:
    def run_once(self):
        try:
            self.step()
        except Exception:
            pass
'''

SWALLOW_SPECIFIC_OK = '''
class Runner:
    def run(self):
        while True:
            try:
                self.step()
            except ValueError:
                pass
'''


class TestTransientSwallowed:
    def test_catch_all_in_retry_loop_is_flagged(self):
        findings = check_transient_swallowed(make_index({"repro.fix.sw": SWALLOW_BAD}))
        assert [f.rule for f in findings] == [RULE_SWALLOW]

    def test_classifying_handler_is_fine(self):
        index = make_index({"repro.fix.sw": SWALLOW_CLASSIFIED})
        assert check_transient_swallowed(index) == []

    def test_reraising_handler_is_fine(self):
        index = make_index({"repro.fix.sw": SWALLOW_RERAISED})
        assert check_transient_swallowed(index) == []

    def test_outside_a_loop_is_not_a_retry_path(self):
        index = make_index({"repro.fix.sw": SWALLOW_NOT_IN_LOOP})
        assert check_transient_swallowed(index) == []

    def test_non_taxonomy_exception_is_out_of_scope(self):
        index = make_index({"repro.fix.sw": SWALLOW_SPECIFIC_OK})
        assert check_transient_swallowed(index) == []
