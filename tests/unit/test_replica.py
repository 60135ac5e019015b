"""Unit tests for the per-shard read replica (PR 4 tentpole).

A :class:`~repro.core.replica.ReadReplica` tails one shard's store
namespace: bootstrap from the latest checkpoint, watch-driven catch-up
over the applied (committed-transaction) log, a monotonic ``applied_txn``
watermark, and zero coordination operations while idle.
"""

from __future__ import annotations

from repro.common.config import TropicConfig
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.replica import ReadReplica
from repro.core.txn import TransactionState
from repro.testing import ShardedCluster


def _replica_for(cluster: ShardedCluster, shard: int = 0) -> ReadReplica:
    """A replica over its own store facade (a separate reader, the way a
    foreign process would construct one), tailing ``shard``'s namespace."""
    store = TropicStore(KVStore(cluster.client, shard_store_prefix(shard, cluster.num_shards)))
    return ReadReplica(store, cluster.schema, cluster.procedures, shard_id=shard)


def _no_checkpoint_cluster(**kwargs) -> ShardedCluster:
    return ShardedCluster(
        num_shards=1, config=TropicConfig(checkpoint_every=100_000), **kwargs
    )


class TestBootstrap:
    def test_bootstrap_equals_leader_model_after_quiesce(self):
        cluster = _no_checkpoint_cluster()
        for i in range(4):
            cluster.submit_spawn(f"vm{i}", host_index=i)
        cluster.drain()
        replica = _replica_for(cluster)
        assert replica.model().to_dict() == cluster.model(0).to_dict()
        assert replica.applied_txn == cluster.stores[0].applied_seq() == 4

    def test_bootstrap_from_checkpoint_plus_log_tail(self):
        """Commits after the checkpoint are replayed on top of it — the
        exact recovery composition (checkpoint + applied-log replay)."""
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("early", host_index=0)
        cluster.drain()
        assert cluster.controllers[0].checkpoint()
        cluster.submit_spawn("late", host_index=1)
        cluster.drain()
        replica = _replica_for(cluster)
        model = replica.model()
        assert model.to_dict() == cluster.model(0).to_dict()
        assert replica.stats["bootstraps"] == 1

    def test_empty_namespace_bootstraps_empty(self):
        """A replica of a shard whose host process never started serves an
        empty placeholder model at watermark 0 and reports
        ``has_checkpoint=False`` so consumers (the ReadProxy merge) fall
        back to their bootstrap-frozen copy instead of trusting it."""
        cluster = _no_checkpoint_cluster()
        store = TropicStore(KVStore(cluster.client, shard_store_prefix(9, num_shards=10)))
        replica = ReadReplica(store, cluster.schema, cluster.procedures, shard_id=9)
        assert replica.model().count() >= 1  # bare root only
        assert replica.applied_txn == 0
        assert not replica.has_checkpoint
        # ... and flips to a real source once the namespace is bootstrapped.
        store.save_checkpoint(cluster.inventory.model, 0)
        assert replica.refresh()
        assert replica.has_checkpoint


class TestCatchUp:
    def test_watch_driven_catch_up(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("first", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        assert replica.model().exists(f"{cluster.inventory.vm_hosts[0]}/first")
        watermark = replica.applied_txn
        # New commits fire the armed applied-log watch; the next refresh
        # applies exactly the tail.
        cluster.submit_spawn("second", host_index=1)
        cluster.drain()
        assert replica.refresh()
        assert replica.applied_txn == watermark + 1
        assert replica.model().exists(f"{cluster.inventory.vm_hosts[1]}/second")
        assert replica.stats["bootstraps"] == 1  # tail applied, not rebuilt
        assert replica.stats["catchup_batches"] == 1

    def test_idle_replica_issues_zero_coordination_ops(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("vm", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()  # bootstrap + arm watches
        ops_before = cluster.ensemble.op_count
        for _ in range(50):
            replica.model()
        assert cluster.ensemble.op_count == ops_before
        assert replica.stats["refreshes_skipped"] == 50

    def test_rebootstrap_after_checkpoint_truncated_the_gap(self):
        """A replica that missed entries a quiesce-point checkpoint
        truncated re-bootstraps from the checkpoint; the watermark only
        moves forward."""
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        before = replica.applied_txn
        # Advance the log while the replica sleeps across two checkpoints
        # (the second truncates the entries it never saw), then advance
        # again.
        cluster.submit_spawn("b", host_index=1)
        cluster.drain()
        assert cluster.controllers[0].checkpoint()
        assert cluster.controllers[0].checkpoint()
        cluster.submit_spawn("c", host_index=2)
        cluster.drain()
        assert replica.refresh()
        assert replica.applied_txn == cluster.stores[0].applied_seq()
        assert replica.applied_txn > before
        assert replica.stats["bootstraps"] == 2  # gap forced a rebuild
        assert replica.model().to_dict() == cluster.model(0).to_dict()

    def test_truncation_without_new_commits_is_detected(self):
        """Checkpoint + truncation with no further commits: the applied
        prefix is empty but applied_seq moved past the watermark — the
        replica must re-bootstrap, not conclude it is current."""
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        cluster.submit_spawn("b", host_index=1)
        cluster.drain()
        assert cluster.controllers[0].checkpoint()
        assert cluster.controllers[0].checkpoint()  # truncates "b"'s entry
        assert cluster.stores[0].applied_entries(0) == []
        assert replica.refresh()
        assert replica.stats["bootstraps"] == 2
        assert replica.model().to_dict() == cluster.model(0).to_dict()

    def test_repeated_catchups_do_not_accumulate_watch_registrations(self):
        """Each catch-up fires (and re-arms) the applied-log watch but the
        checkpoint/meta watch stays armed; re-registering it every refresh
        would leak one ensemble watcher entry per refresh until the next
        checkpoint finally fires them all."""
        cluster = _no_checkpoint_cluster()
        replica = _replica_for(cluster)
        replica.model()
        for i in range(8):
            cluster.submit_spawn(f"w{i}", host_index=i % 4)
            cluster.drain()
            assert replica.refresh()
        meta_path = f"{shard_store_prefix(0, cluster.num_shards)}/checkpoint/meta"
        registered = len(cluster.ensemble._data_watches.get(meta_path, []))
        assert registered <= 1, f"{registered} stacked checkpoint/meta watchers"

    def test_lag_counts_unapplied_commits(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        assert replica.lag() == 0
        cluster.submit_spawn("b", host_index=1)
        cluster.drain()
        assert replica.lag() == 1
        replica.refresh()
        assert replica.lag() == 0


class TestLaggedTruncation:
    """A checkpoint truncates the applied log only up to the checkpoint
    before it, so the store keeps the interval behind the latest one."""

    def test_a_replica_less_than_one_interval_behind_catches_up(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        cluster.submit_spawn("b", host_index=1)
        cluster.drain()
        assert cluster.controllers[0].checkpoint()
        cluster.submit_spawn("c", host_index=2)
        cluster.drain()
        assert replica.refresh()
        assert replica.stats["bootstraps"] == 1  # crossed it from the log
        assert replica.applied_txn == cluster.stores[0].applied_seq() == 3
        assert replica.model().to_dict() == cluster.model(0).to_dict()

    def test_a_replica_more_than_one_interval_behind_rebootstraps(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        for index, name in enumerate(("b", "c"), start=1):
            cluster.submit_spawn(name, host_index=index)
            cluster.drain()
            assert cluster.controllers[0].checkpoint()
        # The second checkpoint truncated "b" (seq 2), which it never read.
        assert [seq for seq, _ in cluster.stores[0].applied_entries(0)] == [3]
        assert replica.refresh()
        assert replica.stats["bootstraps"] == 2
        assert replica.applied_txn == 3
        assert replica.model().to_dict() == cluster.model(0).to_dict()

    def test_the_store_keeps_at_most_the_two_latest_intervals(self):
        cluster = ShardedCluster(num_shards=1, config=TropicConfig(checkpoint_every=3))
        store = cluster.stores[0]
        checkpoints = [0]  # the bootstrap checkpoint
        for index in range(12):
            cluster.submit_spawn(f"vm{index}", host_index=index % 4)
            cluster.drain()
            latest = store.load_checkpoint()[1]
            if latest != checkpoints[-1]:
                checkpoints.append(latest)
            previous = checkpoints[-2] if len(checkpoints) > 1 else 0
            retained = [seq for seq, _ in store.applied_entries(0)]
            assert retained == list(range(previous + 1, store.applied_seq() + 1))
            assert len(retained) <= 2 * 3
        assert checkpoints == [0, 3, 6, 9, 12]

    def test_recovery_after_a_lagged_truncation_replays_only_the_tail(self):
        """The entries the latest checkpoint covers are still in the store;
        a failover replays only those after it, so nothing applies twice."""
        cluster = ShardedCluster(num_shards=1, config=TropicConfig(checkpoint_every=3))
        for index in range(8):
            cluster.submit_spawn(f"vm{index}", host_index=index % 4)
            cluster.drain()
        store, controller = cluster.stores[0], cluster.controllers[0]
        _, checkpoint_seq = store.load_checkpoint()
        assert (checkpoint_seq, store.applied_seq()) == (6, 8)
        assert [seq for seq, _ in store.applied_entries(0)] == [4, 5, 6, 7, 8]
        before = controller.model.to_dict()

        controller.demote()
        controller.recover()

        assert controller.applied_since_checkpoint == 2  # seqs 7 and 8
        assert controller.model.to_dict() == before
        assert controller.model.count(entity_type="vm") == 8


class TestCommitMarkerDurability:
    def test_acknowledged_commit_is_replica_visible(self):
        """The write path needs no replica-specific markers: the applied-
        log entry rides the same group commit as the terminal document and
        is durable *before* the completion notification, so a replica
        refreshing at ack time always observes the acknowledged commit."""
        cluster = _no_checkpoint_cluster()
        replica = _replica_for(cluster)
        replica.model()
        seen_at_ack: list[bool] = []
        original = cluster.controllers[0].on_complete

        def on_complete(txn):
            if txn.state is TransactionState.COMMITTED:
                replica.refresh()
                seen_at_ack.append(
                    replica.model(refresh=False).exists(
                        f"{txn.args['vm_host']}/{txn.args['vm_name']}"
                    )
                )
            original(txn)

        cluster.controllers[0].on_complete = on_complete
        cluster.submit_spawn("acked", host_index=0)
        cluster.drain()
        assert seen_at_ack == [True]


class TestSnapshot:
    def test_snapshot_is_a_private_clone(self):
        cluster = _no_checkpoint_cluster()
        cluster.submit_spawn("vm", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        clone, watermark = replica.snapshot()
        assert watermark == replica.applied_txn
        clone.set_attrs(cluster.inventory.vm_hosts[0], mem_mb=1)
        assert replica.model(refresh=False).get_attr(
            cluster.inventory.vm_hosts[0], "mem_mb"
        ) != 1
