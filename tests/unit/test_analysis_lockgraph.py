"""Unit tests for the static lock-order graph (repro.analysis.lockgraph)."""

from repro.analysis.core import index_from_sources as make_index
from repro.analysis.lockgraph import (
    RULE_CYCLE,
    RULE_NAME_MISMATCH,
    RULE_SELF_DEADLOCK,
    LockAnalysis,
    LockGraph,
    LockEdge,
    build_lock_graph,
)


def edge(src, dst):
    return LockEdge(src=src, dst=dst, function=None, lineno=0, via="")


class TestCycleDetection:
    def test_acyclic_graph_has_no_cycles(self):
        graph = LockGraph()
        graph.add_edge(edge("A", "B"))
        graph.add_edge(edge("B", "C"))
        graph.add_edge(edge("A", "C"))
        assert graph.cycles() == []

    def test_two_lock_cycle(self):
        graph = LockGraph()
        graph.add_edge(edge("A", "B"))
        graph.add_edge(edge("B", "A"))
        assert graph.cycles() == [("A", "B")]

    def test_three_lock_cycle_reported_once_canonically(self):
        graph = LockGraph()
        graph.add_edge(edge("B", "C"))
        graph.add_edge(edge("C", "A"))
        graph.add_edge(edge("A", "B"))
        assert graph.cycles() == [("A", "B", "C")]

    def test_self_loop(self):
        graph = LockGraph()
        graph.add_edge(edge("A", "A"))
        assert graph.cycles() == [("A",)]

    def test_disjoint_cycles_both_found(self):
        graph = LockGraph()
        for src, dst in [("A", "B"), ("B", "A"), ("X", "Y"), ("Y", "X")]:
            graph.add_edge(edge(src, dst))
        assert graph.cycles() == [("A", "B"), ("X", "Y")]


NESTED = '''
import threading

class Box:
    def __init__(self):
        self._a = threading.RLock()
        self._b = threading.Lock()

    def both(self):
        with self._a:
            with self._b:
                pass
'''

INVERTED = '''
import threading

class Box:
    def __init__(self):
        self._a = threading.RLock()
        self._b = threading.RLock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
'''

INTERPROCEDURAL = '''
import threading

class Inner:
    def __init__(self):
        self._lock = threading.RLock()

    def locked_op(self):
        with self._lock:
            return 1

class Outer:
    def __init__(self, inner: Inner):
        self.inner = inner
        self._mutex = threading.RLock()

    def drive(self):
        with self._mutex:
            self.inner.locked_op()
'''


class TestExtraction:
    def test_lexical_nesting_builds_edge(self):
        graph = build_lock_graph(make_index({"repro.fix.nested": NESTED}))
        assert graph.nodes == {"Box._a": "RLock", "Box._b": "Lock"}
        assert ("Box._a", "Box._b") in graph.edge_pairs()
        assert graph.cycles() == []

    def test_inverted_orders_report_cycle(self):
        index = make_index({"repro.fix.inverted": INVERTED})
        analysis = LockAnalysis(index)
        assert analysis.graph.cycles() == [("Box._a", "Box._b")]
        rules = [f.rule for f in analysis.findings()]
        assert RULE_CYCLE in rules

    def test_interprocedural_edge_through_typed_attribute(self):
        graph = build_lock_graph(make_index({"repro.fix.inter": INTERPROCEDURAL}))
        assert ("Outer._mutex", "Inner._lock") in graph.edge_pairs()
        edges = graph.edges[("Outer._mutex", "Inner._lock")]
        assert any("locked_op" in e.via for e in edges)

    def test_edge_through_a_callable_parameter(self):
        """A function passed to a method that calls it under a lock — by
        reference or as a one-call lambda — contributes its locks."""
        graph = build_lock_graph(make_index({"repro.fix.body": CALLABLE_PARAM}))
        assert ("Outer._mutex", "Inner._lock") in graph.edge_pairs()
        assert ("Outer._mutex", "Outer._side") in graph.edge_pairs()


CALLABLE_PARAM = INTERPROCEDURAL.replace(
    "        self._mutex = threading.RLock()\n",
    "        self._mutex = threading.RLock()\n        self._side = threading.Lock()\n",
).replace(
    """    def drive(self):
        with self._mutex:
            self.inner.locked_op()
""",
    """    def run(self, body):
        with self._mutex:
            body()

    def drive(self):
        self.run(self.step)
        self.run(lambda: self.side(1))

    def step(self):
        self.inner.locked_op()

    def side(self, value):
        with self._side:
            return value
""",
)

SELF_DEADLOCK = '''
import threading

class Box:
    def __init__(self):
        self._plain = threading.Lock()

    def re_enter(self):
        with self._plain:
            with self._plain:
                pass
'''

REENTRANT_OK = SELF_DEADLOCK.replace("threading.Lock()", "threading.RLock()")


class TestSelfDeadlock:
    def test_nested_plain_lock_is_flagged(self):
        analysis = LockAnalysis(make_index({"repro.fix.sd": SELF_DEADLOCK}))
        assert RULE_SELF_DEADLOCK in [f.rule for f in analysis.findings()]

    def test_nested_rlock_is_fine(self):
        analysis = LockAnalysis(make_index({"repro.fix.sd": REENTRANT_OK}))
        assert RULE_SELF_DEADLOCK not in [f.rule for f in analysis.findings()]


TRACED_WRONG = '''
import threading
from repro.analysis.recorder import traced

class Box:
    def __init__(self):
        self._a = traced(threading.RLock(), "Box._wrong_name")
'''

TRACED_RIGHT = TRACED_WRONG.replace("Box._wrong_name", "Box._a")


class TestTracedNames:
    def test_mismatched_traced_literal_is_flagged(self):
        analysis = LockAnalysis(make_index({"repro.fix.tr": TRACED_WRONG}))
        findings = [f for f in analysis.findings() if f.rule == RULE_NAME_MISMATCH]
        assert len(findings) == 1
        assert "Box._a" in findings[0].message

    def test_matching_traced_literal_is_silent(self):
        analysis = LockAnalysis(make_index({"repro.fix.tr": TRACED_RIGHT}))
        assert analysis.graph.nodes == {"Box._a": "RLock"}
        assert [f for f in analysis.findings() if f.rule == RULE_NAME_MISMATCH] == []
