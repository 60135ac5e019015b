"""Fleet-wide reads through the read-replica subsystem (PR 4 tentpole).

These tests simulate the multi-process deployment the subsystem exists
for: several :class:`~repro.core.platform.TropicPlatform` instances share
one coordination ensemble, each hosting a subset of the shards (one
"process" per platform).  A process hosting only shard 0 of a 4-shard
fleet serves ``model_view()`` equal to the union of the shard leaders'
models at a quiesce point, instead of refusing with ``ShardUnavailable``
or merging foreign subtrees at their bootstrap-frozen contents.

The crashing-leader tests reuse the deterministic fault harness
(:mod:`repro.testing`) to assert the replica watermark is monotonic and
converges through failovers.
"""

from __future__ import annotations

import pytest

from repro.common.config import TropicConfig
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.replica import ReadReplica
from repro.core.txn import TransactionState
from repro.datamodel.snapshot import diff_models
from repro.tcloud.procedures import disk_image_name
from repro.testing import (
    POST_COMMIT_PRE_ACK,
    PRE_COMMIT,
    FaultInjector,
    ShardedCluster,
)
from repro.tcloud.service import build_tcloud

NUM_SHARDS = 4


def _fleet(local_shards_per_process):
    """Build one platform ("process") per local-shard list, all sharing a
    single coordination ensemble — the multi-process deployment shape."""
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
    config = TropicConfig(num_shards=NUM_SHARDS, logical_only=True)
    clouds = []
    for local in local_shards_per_process:
        cloud = build_tcloud(
            num_vm_hosts=8,
            num_storage_hosts=4,
            config=config,
            logical_only=True,
            ensemble=ensemble,
            local_shards=local,
        )
        cloud.platform.start()
        clouds.append(cloud)
    return clouds


def _spawn_everywhere(clouds, count_per_host=1):
    """Spawn VMs on every compute host, routed through the process hosting
    the owning shard; returns the number of committed spawns."""
    inventory = clouds[0].inventory
    router = clouds[0].platform.shard_router
    committed = 0
    for repeat in range(count_per_host):
        for index, host in enumerate(inventory.vm_hosts):
            shard = router.shard_of(host)
            cloud = next(
                c for c in clouds if shard in c.platform.local_shards
            )
            txn = cloud.platform.submit(
                "spawnVM",
                {
                    "vm_name": f"vm-{repeat}-{index}",
                    "image_template": "template-small",
                    "storage_host": inventory.storage_host_for(index),
                    "vm_host": host,
                    "mem_mb": 256,
                },
            )
            assert txn.state is TransactionState.COMMITTED
            committed += 1
    return committed


def _leader_of(clouds, shard):
    cloud = next(c for c in clouds if shard in c.platform.local_shards)
    return cloud.platform.leader(shard)


class TestMultiProcessFleetView:
    def test_shard0_process_serves_the_union_of_leader_models(self):
        """The acceptance scenario: a process hosting only shard 0 of a
        4-shard fleet returns a replica-backed fleet view equal, unit by
        unit, to the owning leaders' models at a quiesce point."""
        clouds = _fleet([[0], [1, 2, 3]])
        observer = clouds[0]  # hosts shard 0 only
        committed = _spawn_everywhere(clouds)
        fleet = observer.platform.fleet_view()

        assert fleet.replica_shards() == [1, 2, 3]
        assert fleet.model.count("vm") == committed
        # Every second-level unit matches its owning leader's copy exactly.
        router = observer.platform.shard_router
        for top_name, top in fleet.model.root.children.items():
            for child_name in top.children:
                path = f"/{top_name}/{child_name}"
                leader = _leader_of(clouds, router.shard_of(path))
                assert leader.model.exists(path)
                assert diff_models(fleet.model, leader.model, path).is_empty
        # ... and no owned unit is missing from the view.
        for shard in range(NUM_SHARDS):
            leader = _leader_of(clouds, shard)
            for top_name, top in leader.model.root.children.items():
                for child_name in top.children:
                    path = f"/{top_name}/{child_name}"
                    if router.shard_of(path) == shard:
                        assert fleet.model.exists(path)

    def test_replica_watermarks_match_owner_applied_seq_at_quiesce(self):
        clouds = _fleet([[0], [1, 2, 3]])
        observer, owner = clouds
        _spawn_everywhere(clouds)
        fleet = observer.platform.fleet_view()
        assert fleet.watermarks[0].source == "leader"
        for shard in (1, 2, 3):
            mark = fleet.watermarks[shard]
            assert mark.source == "replica"
            assert mark.applied_txn == owner.platform.shards[shard].store.applied_seq()

    def test_cold_start_observer_catches_up_after_owners_appear(self):
        """An observer that starts (and reads) before the owning processes
        have committed anything serves their subtrees once they exist —
        the checkpoint/applied watches fire and the replicas catch up."""
        clouds = _fleet([[0], [1, 2, 3]])
        observer = clouds[0]
        early = observer.platform.fleet_view()
        assert early.model.count("vm") == 0
        committed = _spawn_everywhere(clouds)
        late = observer.platform.fleet_view()
        assert late.model.count("vm") == committed
        for shard in (1, 2, 3):
            assert late.watermarks[shard].applied_txn >= 1

    def test_service_layer_reads_work_from_the_partial_process(self):
        """TCloud's read helpers go through model_view(): the shard-0
        process can answer fleet inventory questions it used to refuse."""
        clouds = _fleet([[0], [1, 2, 3]])
        observer = clouds[0]
        committed = _spawn_everywhere(clouds)
        assert observer.vm_count() == committed
        assert observer.platform.resource_count() == clouds[1].platform.resource_count()


class TestWatermarkUnderFailover:
    def _replica_for(self, cluster, shard=0):
        store = TropicStore(KVStore(cluster.client, f"/tropic/store/shard-{shard}"))
        return ReadReplica(store, cluster.schema, cluster.procedures, shard_id=shard)

    @pytest.mark.parametrize("point", [PRE_COMMIT, POST_COMMIT_PRE_ACK])
    def test_watermark_is_monotonic_across_leader_crashes(self, point):
        """The replica tails a shard whose leader crashes mid-stream (fault
        harness crash + clean-successor failover): the watermark never
        regresses, and at quiesce the replica equals the recovered leader."""
        injector = FaultInjector().arm(point, 1)
        cluster = ShardedCluster(
            num_shards=1,
            config=TropicConfig(checkpoint_every=3),
            injector=injector,
            faulty_shards=(0,),
        )
        replica = self._replica_for(cluster)
        for i in range(6):
            cluster.submit_spawn(f"vm{i}", host_index=i % 4)
        marks = [replica.applied_txn]
        for _ in range(10_000):
            progressed = cluster.step_all(failover=True)
            replica.refresh()
            marks.append(replica.applied_txn)
            if not progressed and cluster.queues_empty():
                break
        assert injector.fired, "the armed crash point never fired"
        assert all(a <= b for a, b in zip(marks, marks[1:])), marks
        assert replica.model().to_dict() == cluster.model(0).to_dict()
        assert replica.applied_txn == cluster.stores[0].applied_seq()
        for i in range(6):
            assert cluster.state_of(
                cluster.submitted[i]
            ) is TransactionState.COMMITTED

    def test_replica_survives_checkpointing_leader_and_failover(self):
        """Checkpoints truncate the log under the replica while the leader
        is replaced; the replica re-bootstraps as needed and converges."""
        cluster = ShardedCluster(
            num_shards=1, config=TropicConfig(checkpoint_every=2)
        )
        replica = self._replica_for(cluster)
        replica.model()
        for i in range(3):
            cluster.submit_spawn(f"a{i}", host_index=i)
        cluster.drain()
        replica.refresh()
        watermark = replica.applied_txn
        cluster.replace_controller(0)
        for i in range(3):
            cluster.submit_spawn(f"b{i}", host_index=i)
        cluster.drain()
        replica.refresh()
        assert replica.applied_txn >= watermark
        assert replica.model().to_dict() == cluster.model(0).to_dict()


def _twopc_fleet():
    """Writer process hosting shards 0 and 1, observer hosting shard 2
    only, under the 2PC cross-shard policy — every participant of a
    0<->1 cross-shard commit is replica-served at the observer (PR 7)."""
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
    config = TropicConfig(
        num_shards=3,
        logical_only=True,
        checkpoint_every=100_000,
        cross_shard_policy="2pc",
    )

    def build(local):
        cloud = build_tcloud(
            num_vm_hosts=9,
            num_storage_hosts=6,
            config=config,
            logical_only=True,
            ensemble=ensemble,
            local_shards=local,
        )
        cloud.platform.start()
        return cloud

    return build([0, 1]), build([2])


def _cross_pairs(cloud, count):
    """``count`` distinct (vm_host, storage_host) pairs spanning two
    shards, neither of them the observer's shard 2."""
    router = cloud.platform.shard_router
    pairs = []
    for vm_host in cloud.inventory.vm_hosts:
        a = router.shard_of(vm_host)
        if a == 2:
            continue
        for storage_host in cloud.inventory.storage_hosts:
            b = router.shard_of(storage_host)
            if b != a and b != 2:
                pairs.append((vm_host, storage_host))
                break
        if len(pairs) == count:
            return pairs
    raise AssertionError(f"only {len(pairs)} cross-shard pairs available")


def _step_writer_shard(platform, shard) -> bool:
    progressed = platform.leader(shard).step()
    for worker in platform.shards[shard].workers:
        if worker.step():
            progressed = True
    return progressed


class TestCrossShardAtomicReads:
    """PR 7 satellite: 2PC commits interleaved with concurrent replica
    fleet views — no view ever holds exactly one participant's half."""

    def _spawn_cross(self, platform, name, vm_host, storage_host):
        return platform.submit(
            "spawnVM",
            {
                "vm_name": name,
                "image_template": "template-small",
                "storage_host": storage_host,
                "vm_host": vm_host,
                "mem_mb": 128,
            },
            wait=False,
        )

    def test_interleaved_commits_never_tear_the_fleet_view(self):
        """Three overlapping cross-shard commits driven step-by-step with
        a fenced fleet view taken between every step: each commit is
        always both-or-neither visible, and all converge to visible."""
        writer, observer = _twopc_fleet()
        with writer.platform, observer.platform:
            pairs = _cross_pairs(writer, 3)
            handles = [
                self._spawn_cross(writer.platform, f"x{i}", vm, sh)
                for i, (vm, sh) in enumerate(pairs)
            ]
            expected = [
                (f"{vm}/x{i}", f"{sh}/{disk_image_name(f'x{i}')}")
                for i, (vm, sh) in enumerate(pairs)
            ]
            for _ in range(10_000):
                progressed = False
                for shard in (0, 1):
                    progressed |= _step_writer_shard(writer.platform, shard)
                    view = observer.platform.fleet_view()
                    for vm_path, image_path in expected:
                        vm_there = view.model.exists(vm_path)
                        image_there = view.model.exists(image_path)
                        assert vm_there == image_there, (
                            f"torn mid-interleaving: {vm_path}={vm_there} "
                            f"{image_path}={image_there}"
                        )
                if not progressed and all(h.is_done() for h in handles):
                    break
            writer.platform.run_until_idle()
            for handle in handles:
                assert handle.wait(timeout=30.0).state is TransactionState.COMMITTED
            final = observer.platform.fleet_view().model
            for vm_path, image_path in expected:
                assert final.exists(vm_path) and final.exists(image_path)
