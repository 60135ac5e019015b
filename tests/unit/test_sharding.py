"""Unit tests for the sharded platform wiring (PR 2 tentpole).

Covers: per-shard namespaces (stores, queues, elections), client-side
routing of submissions, cross-shard policies, submit-side batching
round-trip counts, the merged read view, restricted ``local_shards``
hosting, shard-map persistence, and the recovery shard-stamp guard.
"""

import pytest

from repro.common.config import TropicConfig
from repro.common.errors import (
    ConfigurationError,
    CrossShardTransaction,
    RecoveryError,
    ShardNotLocalError,
)
from repro.coordination.ensemble import CoordinationEnsemble
from repro.core.recovery import recover_state
from repro.core.txn import TransactionState
from repro.cli import build_parser
from repro.core.sharding import ShardMap, ShardRouter
from repro.tcloud.service import build_tcloud, tcloud_shard_assignments
from repro.testing import ShardedCluster


def _sharded_cloud(num_shards=2, num_vm_hosts=8, threaded=False, ensemble=None,
                   local_shards=None, **overrides):
    config = TropicConfig(num_shards=num_shards, logical_only=True, **overrides)
    return build_tcloud(
        num_vm_hosts=num_vm_hosts,
        num_storage_hosts=2,
        config=config,
        logical_only=True,
        threaded=threaded,
        ensemble=ensemble,
        local_shards=local_shards,
    )


def _spawn_args(cloud, host_index, vm_name):
    return {
        "vm_name": vm_name,
        "image_template": "template-small",
        "storage_host": cloud.inventory.storage_host_for(host_index),
        "vm_host": cloud.inventory.vm_hosts[host_index],
        "mem_mb": 256,
    }


class TestShardedNamespaces:
    def test_each_shard_gets_its_own_store_queues_and_election(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            assert platform.local_shards == [0, 1]
            prefixes = {rt.store.kv.prefix for rt in platform.shards.values()}
            assert prefixes == {"/tropic/store/shard-0", "/tropic/store/shard-1"}
            queue_paths = {rt.input_queue.path for rt in platform.shards.values()}
            assert queue_paths == {
                "/tropic/queues/shard-0/inputQ",
                "/tropic/queues/shard-1/inputQ",
            }
            elections = {rt.election_path for rt in platform.shards.values()}
            assert elections == {"/tropic/election/shard-0", "/tropic/election/shard-1"}

    def test_single_shard_keeps_legacy_namespaces(self):
        cloud = _sharded_cloud(num_shards=1)
        with cloud.platform as platform:
            assert platform.store.kv.prefix == "/tropic/store"
            assert platform.input_queue.path == "/tropic/queues/inputQ"

    def test_transactions_land_in_owning_shards_store(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            t0 = platform.submit("spawnVM", _spawn_args(cloud, 0, "a"))
            t1 = platform.submit("spawnVM", _spawn_args(cloud, 5, "b"))
            assert t0.state is TransactionState.COMMITTED
            assert t1.state is TransactionState.COMMITTED
            s0, s1 = platform.shards[0].store, platform.shards[1].store
            assert s0.load_transaction(t0.txid) is not None
            assert s0.load_transaction(t1.txid) is None
            assert s1.load_transaction(t1.txid) is not None
            assert platform.shard_of_txn(t0.txid) == 0
            assert platform.shard_of_txn(t1.txid) == 1

    def test_shard_map_is_persisted_and_validated(self):
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        cloud = _sharded_cloud(ensemble=ensemble)
        with cloud.platform as platform:
            persisted = platform.shard_router.map.to_dict()
            assert persisted["num_shards"] == 2
            assert persisted["assignments"]
        # A restart with a different shard count must refuse to start.
        other = _sharded_cloud(num_shards=4, ensemble=ensemble)
        with pytest.raises(ConfigurationError, match="resharding"):
            other.platform.start()


class TestRoutingPolicies:
    @pytest.mark.parametrize("where", ["TropicConfig", "ShardRouter", "ShardedCluster", "cli"])
    def test_default_cross_shard_policy_is_2pc(self, where):
        default = {
            "TropicConfig": lambda: TropicConfig().cross_shard_policy,
            "ShardRouter": lambda: ShardRouter(ShardMap(2)).policy,
            "ShardedCluster": lambda: ShardedCluster(num_shards=2).config.cross_shard_policy,
            "cli": lambda: build_parser().parse_args(["table1"]).cross_shard,
        }[where]
        assert default() == "2pc"

    def test_cross_shard_rejected_under_reject(self):
        cloud = _sharded_cloud(cross_shard_policy="reject")
        with cloud.platform as platform:
            args = _spawn_args(cloud, 0, "x")
            args["storage_host"] = cloud.inventory.storage_host_for(5)
            with pytest.raises(CrossShardTransaction) as excinfo:
                platform.submit("spawnVM", args)
            assert excinfo.value.shards == [0, 1]

    def test_2pc_coordinates_cross_shard_on_lowest_shard(self):
        cloud = _sharded_cloud(cross_shard_policy="2pc")
        with cloud.platform as platform:
            args = _spawn_args(cloud, 4, "xs")  # vm host on shard 1 ...
            args["storage_host"] = cloud.inventory.storage_host_for(0)  # ... storage shard 0
            txn = platform.submit("spawnVM", args)
            assert txn.state is TransactionState.COMMITTED
            assert platform.shard_of_txn(txn.txid) == 0
            vm_owner = platform.shard_router.shard_of(args["vm_host"])
            assert platform.leader(vm_owner).model.exists(f"{args['vm_host']}/xs")

    def test_one_shard_plan_never_extracts_paths(self, monkeypatch):
        def refuse(args):
            raise AssertionError("one-shard routing read the argument paths")

        monkeypatch.setattr("repro.core.sharding.extract_paths", refuse)
        decision = ShardRouter(ShardMap(1)).plan("spawnVM", {"vm_host": "/vmRoot/vmHost0"})
        assert (decision.shard, decision.shards, decision.cross_shard) == (0, {0}, False)

    def test_tcloud_assignments_colocate_paired_hosts(self):
        cloud = _sharded_cloud(num_shards=4, num_vm_hosts=16)
        assignments = tcloud_shard_assignments(cloud.inventory, 4)
        for index, vm_host in enumerate(cloud.inventory.vm_hosts):
            storage = cloud.inventory.storage_host_for(index)
            assert assignments[vm_host] == assignments[storage]


class TestSubmitSideBatching:
    def test_submit_many_uses_two_round_trips_per_shard(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            requests = [
                ("spawnVM", _spawn_args(cloud, i % 8, f"b{i}")) for i in range(12)
            ]
            before = platform.ensemble.write_round_trips
            handles = platform.submit_many(requests, wait=False)
            submit_rts = platform.ensemble.write_round_trips - before
            # One store group commit + one queue group write per shard.
            assert submit_rts == 2 * platform.config.num_shards
            results = [h.wait(timeout=30.0) for h in handles]
            assert all(t.state is TransactionState.COMMITTED for t in results)

    def test_submit_many_preserves_request_order_of_handles(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            requests = [
                ("spawnVM", _spawn_args(cloud, i % 8, f"o{i}")) for i in range(6)
            ]
            results = platform.submit_many(requests, timeout=30.0)
            assert [t.args["vm_name"] for t in results] == [f"o{i}" for i in range(6)]


class TestMergedReadView:
    def test_model_view_merges_owned_subtrees(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            platform.submit("spawnVM", _spawn_args(cloud, 0, "left"))
            platform.submit("spawnVM", _spawn_args(cloud, 5, "right"))
            view = platform.model_view()
            assert view.exists(f"{cloud.inventory.vm_hosts[0]}/left")
            assert view.exists(f"{cloud.inventory.vm_hosts[5]}/right")
            # Neither shard's own model sees the other's VM ...
            assert not platform.leader(0).model.exists(
                f"{cloud.inventory.vm_hosts[5]}/right"
            )
            # ... but the service-level reads do.
            assert {r.name for r in cloud.list_vms()} == {"left", "right"}

    def test_resource_count_uses_the_merged_view(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            base = platform.resource_count()
            platform.submit("spawnVM", _spawn_args(cloud, 0, "l"))
            platform.submit("spawnVM", _spawn_args(cloud, 5, "r"))
            # spawnVM creates a VM node and a disk image node per call.
            assert platform.resource_count() == base + 4


class TestLocalShards:
    def test_process_hosting_one_shard_serves_only_it(self):
        cloud = _sharded_cloud(local_shards=[1])
        with cloud.platform as platform:
            assert platform.local_shards == [1]
            assert list(platform.shards) == [1]
            txn = platform.submit("spawnVM", _spawn_args(cloud, 5, "mine"))
            assert txn.state is TransactionState.COMMITTED
            with pytest.raises(ShardNotLocalError):
                platform.submit("spawnVM", _spawn_args(cloud, 0, "theirs"))

    def test_invalid_local_shard_rejected(self):
        with pytest.raises(ConfigurationError):
            _sharded_cloud(local_shards=[7])


class TestRecoveryStampGuard:
    def test_recovery_refuses_checkpoint_from_other_layout(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            platform.submit("spawnVM", _spawn_args(cloud, 0, "v"))
            store = platform.shards[0].store
            # Simulate a misconfigured restart: same namespace, different
            # believed layout.
            store.shard_id, store.num_shards = 1, 4
            with pytest.raises(RecoveryError, match="refusing to recover"):
                recover_state(store, platform.schema, platform.procedures,
                              platform.config)

    def test_reload_of_global_paths_is_refused_when_sharded(self):
        cloud = _sharded_cloud()
        with cloud.platform as platform:
            with pytest.raises(ConfigurationError, match="sharding granularity"):
                platform.reload("/")


class TestShardedRepair:
    def test_global_repair_fans_out_over_owned_devices(self):
        """A global repair('/') in a sharded deployment repairs every
        locally owned device against its owner's model instead of raising
        (regression: it used to raise)."""
        config = TropicConfig(num_shards=2)
        cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, config=config)
        with cloud.platform as platform:
            # One VM per shard, then knock a shard-1 host out of band.
            for host_index, name in ((0, "a"), (5, "b")):
                cloud.spawn_vm(name, mem_mb=256,
                               vm_host=cloud.inventory.vm_hosts[host_index],
                               storage_host=cloud.inventory.storage_host_for(host_index))
            device = cloud.inventory.registry.device_at(cloud.inventory.vm_hosts[5])
            device.power_cycle()
            report = platform.repair("/")
            assert report.clean
            assert any(action == "startVM" for _, action, _ in report.actions_executed)
            assert device.vm_state("b") == "running"
