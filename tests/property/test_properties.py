"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.locks import LockManager, LockMode, compatible
from repro.core.txn import ExecutionLog, ReadWriteSet, Transaction, TransactionState
from repro.datamodel.path import ResourcePath
from repro.datamodel.tree import DataModel
from repro.metrics.stats import cdf_points, percentile
from repro.workloads.ec2 import EC2TraceParams, synthesize_launch_counts

# -- strategies --------------------------------------------------------------

path_component = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)
path_strategy = st.lists(path_component, min_size=0, max_size=5).map(ResourcePath)
nonempty_path = st.lists(path_component, min_size=1, max_size=5).map(ResourcePath)
attrs_strategy = st.dictionaries(
    path_component,
    st.one_of(st.integers(-1000, 1000), st.booleans(), path_component),
    max_size=4,
)


class TestPathProperties:
    @given(path_strategy)
    def test_parse_str_roundtrip(self, path):
        assert ResourcePath.parse(str(path)) == path

    @given(nonempty_path)
    def test_parent_is_strict_ancestor(self, path):
        assert path.parent.is_ancestor_of(path)
        assert path.parent.depth == path.depth - 1

    @given(path_strategy, path_component)
    def test_child_relationship(self, path, name):
        child = path.child(name)
        assert child.parent == path
        assert path.is_ancestor_of(child)
        assert child.relative_to(path) == (name,)

    @given(path_strategy)
    def test_ancestors_are_prefixes(self, path):
        ancestors = list(path.ancestors(include_self=True))
        assert ancestors[-1] == path
        for shorter, longer in zip(ancestors, ancestors[1:]):
            assert shorter.is_ancestor_of(longer)


class TestDataModelProperties:
    @given(st.lists(st.tuples(path_component, attrs_strategy), min_size=1, max_size=10))
    def test_serialisation_roundtrip(self, hosts):
        model = DataModel()
        model.create("/root1", "container")
        for index, (name, attrs) in enumerate(hosts):
            model.ensure(f"/root1/{name}-{index}", "vmHost", attrs)
        restored = DataModel.from_dict(model.to_dict())
        assert restored.to_dict() == model.to_dict()
        assert restored.count() == model.count()

    @given(st.lists(path_component, min_size=1, max_size=10, unique=True))
    def test_create_then_delete_restores_count(self, names):
        model = DataModel()
        base = model.count()
        for name in names:
            model.create(f"/{name}", "vmHost")
        for name in names:
            model.delete(f"/{name}")
        assert model.count() == base


class TestLockProperties:
    @given(st.sampled_from(list(LockMode)), st.sampled_from(list(LockMode)))
    def test_compatibility_is_symmetric(self, a, b):
        assert compatible(a, b) == compatible(b, a)

    @given(st.sets(st.text("abc/", min_size=1, max_size=12), min_size=1, max_size=6))
    def test_acquire_then_release_leaves_no_state(self, raw_paths):
        paths = ["/" + p.strip("/").replace("//", "/") for p in raw_paths if p.strip("/")]
        if not paths:
            return
        rwset = ReadWriteSet(writes=set(paths))
        manager = LockManager()
        assert manager.try_acquire("t1", rwset) is None
        manager.release_all("t1")
        assert manager.total_locked_paths() == 0
        assert manager.active_transactions() == set()

    @given(
        st.lists(st.sampled_from(["/a/x", "/a/y", "/b/x", "/b/y"]), min_size=1, max_size=4),
        st.lists(st.sampled_from(["/a/x", "/a/y", "/b/x", "/b/y"]), min_size=1, max_size=4),
    )
    def test_disjoint_write_sets_never_conflict(self, writes_a, writes_b):
        writes_b = [p for p in writes_b if p not in writes_a]
        manager = LockManager()
        assert manager.try_acquire("t1", ReadWriteSet(writes=set(writes_a))) is None
        conflict = manager.try_acquire("t2", ReadWriteSet(writes=set(writes_b)))
        assert conflict is None  # siblings only take intention locks on shared ancestors

    @given(st.sampled_from(["/a", "/a/b", "/a/b/c"]))
    def test_overlapping_writes_always_conflict(self, path):
        manager = LockManager()
        assert manager.try_acquire("t1", ReadWriteSet(writes={"/a/b"})) is None
        assert manager.try_acquire("t2", ReadWriteSet(writes={path})) is not None


class TestTransactionProperties:
    @given(
        st.text("abcdefg", min_size=1, max_size=10),
        st.dictionaries(path_component, st.integers(-5, 5), max_size=3),
        st.sampled_from(list(TransactionState)),
    )
    def test_serialisation_roundtrip(self, procedure, args, state):
        txn = Transaction(procedure, args, state=state, timestamps={state.value: 1.0})
        restored = Transaction.from_dict(txn.to_dict())
        assert restored.procedure == procedure
        assert restored.args == args
        assert restored.state == state

    @given(st.lists(st.tuples(path_component, path_component), min_size=1, max_size=8))
    def test_execution_log_sequence_numbers_are_dense(self, steps):
        log = ExecutionLog()
        for path, action in steps:
            log.append("/" + path, action, [], None, [])
        assert [record.seq for record in log] == list(range(1, len(steps) + 1))
        restored = ExecutionLog.from_dict(log.to_dict())
        assert [r.action for r in restored] == [r.action for r in log]


class TestStatsProperties:
    @settings(suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=100))
    def test_percentile_bounded_by_min_max(self, values):
        for q in (0, 25, 50, 75, 100):
            result = percentile(values, q)
            assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=100))
    def test_cdf_is_monotone_and_ends_at_one(self, values):
        points = cdf_points(values)
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        xs = [value for value, _ in points]
        assert xs == sorted(xs)


class TestWorkloadProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(60, 600), st.integers(1, 8), st.integers(0, 10_000))
    def test_ec2_calibration_always_met(self, duration, mean_rate, seed):
        total = duration * mean_rate
        params = EC2TraceParams(duration_s=duration, total_spawns=total,
                                peak_rate=14, seed=seed)
        counts = synthesize_launch_counts(params)
        assert len(counts) == duration
        assert sum(counts) == total
        assert max(counts) <= 14
        assert min(counts) >= 0
