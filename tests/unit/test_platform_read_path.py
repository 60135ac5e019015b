"""Platform read path on CoW snapshots (PR 5): fleet-view forks, the
merged-view cache, and platform-level subscriptions via the ReadProxy."""

from __future__ import annotations

import pytest

from repro.common.config import TropicConfig
from repro.common.errors import ConfigurationError
from repro.coordination.ensemble import CoordinationEnsemble
from repro.tcloud.service import build_tcloud


def _sharded_pair(num_shards: int = 2, hosts: int = 8):
    """(owner platform hosting shards 1..N-1, observer hosting shard 0)."""
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
    config = TropicConfig(
        logical_only=True, checkpoint_every=100_000, num_shards=num_shards
    )

    def build(local_shards):
        return build_tcloud(
            num_vm_hosts=hosts,
            num_storage_hosts=max(hosts // 4, 1),
            config=config,
            logical_only=True,
            ensemble=ensemble,
            local_shards=local_shards,
        )

    return build(list(range(1, num_shards))), build([0])


def _spawn_on(cloud, host: str, name: str):
    inventory = cloud.inventory
    index = inventory.vm_hosts.index(host)
    return cloud.platform.submit(
        "spawnVM",
        {
            "vm_name": name,
            "image_template": "template-small",
            "storage_host": inventory.storage_host_for(index),
            "vm_host": host,
            "mem_mb": 256,
        },
    )


def _host_owned_by(cloud, shard: int) -> str:
    router = cloud.platform.shard_router
    return next(h for h in cloud.inventory.vm_hosts if router.shard_of(h) == shard)


class TestFleetViewForks:
    def test_each_view_is_an_independent_fork(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            view = observer.platform.model_view()
            victim = next(iter(view.find(entity_type="vmHost")))
            view.set_attrs(victim, mem_mb=1)  # caller scribbles on its view
            clean = observer.platform.model_view()
            assert clean.get(victim)["mem_mb"] != 1

    def test_cache_invalidated_by_foreign_commits(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            foreign_host = _host_owned_by(observer, 1)
            before = observer.platform.fleet_view()
            assert not before.model.exists(f"{foreign_host}/fresh")
            txn = _spawn_on(owner, foreign_host, "fresh")
            assert txn.state.value == "committed"
            after = observer.platform.fleet_view()
            assert after.model.exists(f"{foreign_host}/fresh")
            assert after.watermarks[1].applied_txn > (
                before.watermarks[1].applied_txn or 0
            )

    def test_cache_invalidated_by_local_commits(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            local_host = _host_owned_by(observer, 0)
            observer.platform.fleet_view()  # prime the cache
            _spawn_on(observer, local_host, "local")
            view = observer.platform.fleet_view()
            assert view.model.exists(f"{local_host}/local")

    def test_unchanged_fleet_serves_views_without_coordination_ops(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            _spawn_on(owner, _host_owned_by(observer, 1), "warm")
            observer.platform.fleet_view()
            ops_before = observer.platform.ensemble.op_count
            for _ in range(25):
                observer.platform.fleet_view()
            assert observer.platform.ensemble.op_count == ops_before


class TestReadProxySubscribe:
    def test_subscribe_to_foreign_shard_delivers_deltas(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            foreign_host = _host_owned_by(observer, 1)
            sub = observer.platform.read_proxy.subscribe(foreign_host)
            _spawn_on(owner, foreign_host, "subbed")
            events = sub.poll()
            assert events
            assert all(event.path.startswith(foreign_host) for event in events)
            assert "createVM" in {event.action for event in events}

    def test_subscribe_to_local_shard_works(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            local_host = _host_owned_by(observer, 0)
            sub = observer.platform.read_proxy.subscribe(local_host)
            _spawn_on(observer, local_host, "localsub")
            assert any(
                event.action == "createVM" for event in sub.poll()
            )

    def test_global_path_subscription_refused_when_sharded(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            with pytest.raises(ConfigurationError, match="sharding granularity"):
                observer.platform.read_proxy.subscribe("/")

    def test_single_shard_subscription(self):
        cloud = build_tcloud(
            num_vm_hosts=4, num_storage_hosts=2,
            config=TropicConfig(logical_only=True, checkpoint_every=100_000),
            logical_only=True,
        )
        with cloud.platform:
            host = cloud.inventory.vm_hosts[0]
            sub = cloud.platform.read_proxy.subscribe(host)
            _spawn_on(cloud, host, "solo")
            assert any(event.action == "createVM" for event in sub.poll())
            assert cloud.platform.read_proxy.pump() == 0  # already caught up


class TestViewCacheSourceKeys:
    """PR 7 regression guard: the fleet-view cache key names every shard's
    *source kind* (leader/replica/partial) alongside its change stamp, so
    a view computed under one sourcing can never be served under another
    even when the surviving stamps coincide."""

    def test_key_spells_out_every_shards_source_kind(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            platform = observer.platform
            leader_model = platform.leader(0).model
            parts = platform._view_cache_key({0: leader_model}, {})
            assert parts[0][:2] == (0, "leader")
            assert parts[0][2] is leader_model  # identity, not equality
            assert parts[1] == (1, "partial")
            replica = platform.read_proxy.replica(1)
            replica.refresh()
            key2 = platform._view_cache_key({0: leader_model}, {1: replica})
            assert key2[0][:2] == (0, "leader")
            assert key2[1] == (
                1, "replica", replica.applied_txn, replica.early_seq,
                replica.has_checkpoint,
            )

    def test_replica_stamp_includes_early_seq(self):
        """A fence early-application changes the replica model without
        moving ``applied_txn``; the key must still change or a stale
        cached merge would be served over the advanced model."""
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            platform = observer.platform
            replica = platform.read_proxy.replica(1)
            replica.refresh()
            local = {0: platform.leader(0).model}
            before = platform._view_cache_key(local, {1: replica})
            replica._early_seq += 1  # what early_apply() does to the stamp
            after = platform._view_cache_key(local, {1: replica})
            assert before != after

    def test_partial_to_replica_transition_serves_fresh_content(self):
        """Behavioral: a view cached while a foreign shard was partial
        (owner not yet started, so no checkpoint to tail) must not be
        served once the shard becomes replica-backed."""
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        config = TropicConfig(
            logical_only=True, checkpoint_every=100_000, num_shards=2
        )

        def build(local_shards):
            return build_tcloud(
                num_vm_hosts=8, num_storage_hosts=2, config=config,
                logical_only=True, ensemble=ensemble, local_shards=local_shards,
            )

        observer = build([0])
        with observer.platform:
            early = observer.platform.fleet_view()
            assert early.watermarks[1].source == "partial"
            owner = build([1])
            with owner.platform:
                foreign_host = _host_owned_by(observer, 1)
                _spawn_on(owner, foreign_host, "healed")
                late = observer.platform.fleet_view()
                assert late.watermarks[1].source == "replica"
                assert late.model.exists(f"{foreign_host}/healed")


class TestViewCacheRebuild:
    """The fleet-view cache has one path: an exact key hit serves an O(1)
    fork of the cached tree, and any source change rebuilds the merge."""

    def test_foreign_commit_is_visible_and_untouched_units_are_kept(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            host_a = _host_owned_by(observer, 1)
            host_b = next(
                h for h in observer.inventory.vm_hosts
                if observer.platform.shard_router.shard_of(h) == 1 and h != host_a
            )
            _spawn_on(owner, host_a, "seed")
            observer.platform.fleet_view()  # prime the cache
            _spawn_on(owner, host_b, "rebuilt")
            view = observer.platform.fleet_view()
            assert view.model.exists(f"{host_b}/rebuilt")
            assert view.model.exists(f"{host_a}/seed")  # untouched unit kept

    def test_unchanged_fleet_serves_the_same_cached_tree(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            _spawn_on(owner, _host_owned_by(observer, 1), "cached")
            observer.platform.fleet_view()
            key, tree = observer.platform._view_cache["replica"]
            again = observer.platform.fleet_view()
            assert observer.platform._view_cache["replica"][1] is tree
            assert observer.platform._view_cache["replica"][0] == key
            assert again.model is not tree  # callers get a fork
            assert again.model.to_dict() == tree.to_dict()

    def test_cached_view_equals_a_fresh_build(self):
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            host = _host_owned_by(observer, 1)
            _spawn_on(owner, host, "first")
            observer.platform.fleet_view()
            _spawn_on(owner, host, "second")
            observer.platform.fleet_view()
            cached = observer.platform.fleet_view().model
            observer.platform._view_cache.clear()
            fresh = observer.platform.fleet_view().model
            assert cached.to_dict() == fresh.to_dict()

    def test_local_commit_on_the_base_shard_is_visible(self):
        """The observer's own shard is the merge base; its commit moves
        the leader's version, so the next view rebuilds from a new base."""
        owner, observer = _sharded_pair()
        with owner.platform, observer.platform:
            local_host = _host_owned_by(observer, 0)
            observer.platform.fleet_view()
            _spawn_on(observer, local_host, "basewrite")
            view = observer.platform.fleet_view()
            assert view.model.exists(f"{local_host}/basewrite")
