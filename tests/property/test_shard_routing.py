"""Property-based tests for the shard routing layer (PR 2).

Invariants proved here:

* every resource path routes to exactly one shard, always in range;
* routing is *stable across process restarts* — a shard map round-tripped
  through its persisted form (and a freshly constructed router) makes
  identical decisions, and the hash fallback is content-stable (CRC-32,
  not Python's salted ``hash``);
* the shard map *partitions* the tree: ownership is decided by the
  second-level unit prefix, so no path (and no unit) is owned by two
  shards, deeper paths inherit their unit's owner, and per-shard ownership
  sets are pairwise disjoint while covering every unit;
* the cross-shard policy behaves as documented (reject raises with the
  involved shards; 2pc coordinates on the lowest deterministically).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CrossShardTransaction
from repro.core.sharding import (
    RouteDecision,
    ShardMap,
    ShardRouter,
    colocated_assignments,
    extract_paths,
    is_global_path,
    stable_shard,
    unit_key,
)
from repro.datamodel.path import ResourcePath

component = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)
deep_path = st.lists(component, min_size=2, max_size=5).map(lambda p: "/" + "/".join(p))
any_path = st.lists(component, min_size=0, max_size=5).map(lambda p: "/" + "/".join(p))
num_shards = st.integers(min_value=1, max_value=8)


@st.composite
def shard_maps(draw):
    n = draw(num_shards)
    keys = draw(st.lists(deep_path, max_size=6, unique=True))
    assignments = {key: draw(st.integers(0, n - 1)) for key in keys}
    return ShardMap(n, assignments)


class TestOwnership:
    @given(shard_maps(), any_path)
    def test_every_path_routes_to_exactly_one_in_range_shard(self, shard_map, path):
        shard = shard_map.shard_of(path)
        assert isinstance(shard, int)
        assert 0 <= shard < shard_map.num_shards
        # Deterministic: asking again gives the same answer.
        assert shard_map.shard_of(path) == shard

    @given(shard_maps(), deep_path, st.lists(component, min_size=0, max_size=3))
    def test_descendants_inherit_their_units_owner(self, shard_map, path, suffix):
        """The partition is by subtree: any path below a unit is owned by
        the unit's shard — no path can be owned by two shards."""
        deeper = path + ("/" + "/".join(suffix) if suffix else "")
        assert shard_map.shard_of(deeper) == shard_map.shard_of(unit_key(path))

    @given(shard_maps(), st.lists(deep_path, min_size=1, max_size=12, unique=True))
    def test_per_shard_ownership_sets_partition_the_units(self, shard_map, paths):
        units = {unit_key(p) for p in paths}
        owned = {
            shard: {u for u in units if shard_map.owns(shard, u)}
            for shard in range(shard_map.num_shards)
        }
        # Pairwise disjoint ...
        for a in range(shard_map.num_shards):
            for b in range(a + 1, shard_map.num_shards):
                assert not (owned[a] & owned[b])
        # ... and jointly exhaustive.
        assert set().union(*owned.values()) == units

    @given(st.integers(1, 8),
           st.lists(deep_path, min_size=1, max_size=12, unique=True),
           st.integers(1, 4))
    def test_colocated_groups_land_on_one_shard(self, n, paths, group_size):
        # Chunk disjoint unit keys into groups; each group must co-locate.
        units = sorted({unit_key(p) for p in paths})
        groups = [units[i:i + group_size] for i in range(0, len(units), group_size)]
        shard_map = ShardMap(n, colocated_assignments(groups, n))
        for group in groups:
            owners = {shard_map.shard_of(path) for path in group}
            assert len(owners) == 1


class TestRestartStability:
    @given(shard_maps(), st.lists(any_path, max_size=8))
    def test_routing_survives_persist_and_reload(self, shard_map, paths):
        """A 'process restart': the map is serialised to its stored form
        and reloaded by a brand-new router; every decision must match."""
        reloaded = ShardMap.from_dict(shard_map.to_dict())
        assert reloaded == shard_map
        for path in paths:
            assert reloaded.shard_of(path) == shard_map.shard_of(path)

    @given(deep_path, num_shards)
    def test_hash_fallback_is_content_stable(self, path, n):
        # Known CRC-32 anchors: stable across processes and Python builds
        # (unlike the salted builtin hash()).
        assert stable_shard(unit_key(path), n) == stable_shard(unit_key(path), n)
        assert stable_shard("/vmRoot/vmHost0", 4) == 3435013667 % 4

    def test_known_key_regression_anchor(self):
        import zlib

        for key in ("/vmRoot/vmHost0", "/storageRoot/storageHost3", "/netRoot/router0"):
            assert stable_shard(key, 8) == zlib.crc32(key.encode()) % 8


class TestRoutingPolicy:
    def _router(self, n, policy="reject"):
        return ShardRouter(ShardMap(n, {"/a/one": 0, "/a/two": 1 % n, "/a/three": 2 % n}),
                           policy)

    def test_single_shard_args_route_to_owner(self):
        router = self._router(4)
        decision = router.route_args({"x": "/a/one/leaf", "y": "/a/one"})
        assert decision == RouteDecision(
            shard=0, shards=frozenset({0}), paths=("/a/one/leaf", "/a/one")
        )
        assert router.resolve("p", {"x": "/a/one/leaf"}) == 0

    def test_cross_shard_rejected_with_involved_shards(self):
        router = self._router(4)
        try:
            router.resolve("p", {"x": "/a/one", "y": "/a/two"})
        except CrossShardTransaction as exc:
            assert exc.shards == [0, 1]
        else:  # pragma: no cover
            raise AssertionError("cross-shard submission was not rejected")

    def test_2pc_coordinator_is_the_lowest_shard(self):
        router = self._router(4, policy="2pc")
        assert router.resolve("p", {"x": "/a/two", "y": "/a/three"}) == 1
        assert router.resolve("p", {"x": "/a/three", "y": "/a/two"}) == 1

    def test_global_paths_span_every_shard(self):
        router = self._router(3)
        decision = router.route_args({"x": "/a", "y": "/a/one"})
        assert decision.global_scope and decision.cross_shard
        assert decision.shards == frozenset({0, 1, 2})
        # ... but a single-shard deployment routes everything to shard 0.
        single = ShardRouter(ShardMap(1, {}))
        assert single.resolve("p", {"x": "/a", "y": "/a/one"}) == 0

    def test_pathless_args_route_to_default_shard(self):
        router = self._router(4)
        assert router.resolve("p", {"count": 3, "name": "no-paths"}) == 0
        assert router.resolve("p", None) == 0

    @given(st.lists(deep_path, min_size=1, max_size=6, unique=True), num_shards)
    @settings(max_examples=50)
    def test_resolve_matches_member_ownership(self, paths, n):
        router = ShardRouter(ShardMap(n, {}), policy="2pc")
        shard = router.resolve("p", {str(i): p for i, p in enumerate(paths)})
        owners = {router.shard_of(p) for p in paths}
        expected = min(owners)  # single owner, or the 2PC coordinator
        assert shard == expected


class TestPathExtraction:
    def test_nested_structures_are_scanned(self):
        args = {
            "vm_host": "/vmRoot/vmHost3",
            "vms": [{"storage_host": "/storageRoot/storageHost1"}],
            "nested": {"deep": ["/netRoot/router0"]},
            "not_paths": ["name", 42, None, True],
        }
        assert sorted(extract_paths(args)) == [
            "/netRoot/router0", "/storageRoot/storageHost1", "/vmRoot/vmHost3",
        ]

    def test_non_path_strings_are_ignored(self):
        assert list(extract_paths({"x": "vm-1", "y": "/bad path!", "z": ""})) == []

    @given(any_path)
    def test_extracted_paths_parse(self, path):
        for found in extract_paths({"p": path}):
            ResourcePath.parse(found)

    def test_global_path_detection(self):
        assert is_global_path("/")
        assert is_global_path("/vmRoot")
        assert not is_global_path("/vmRoot/vmHost0")
        assert not is_global_path("/vmRoot/vmHost0/vm1")
