"""Unit tests for what a read replica keeps: a model tail with fence barriers.

A :class:`~repro.core.replica.ReadReplica` bootstraps from checkpoint plus
log, catches up from the applied log in commit order, remembers recent
commits for the read fence's ``has_applied`` check, opens an atomicity
barrier per cross-shard commit it applies, and applies a prepared slice
early on the fence's request.  These tests pin each of those duties
through the replica's public surface.
"""

from __future__ import annotations

import pytest

from repro.common.config import TropicConfig
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.replica import Barrier, ReadReplica
from repro.core.twopc import DECISION_COMMIT
from repro.core.txn import TransactionState
from repro.testing import ShardedCluster


def _replica_for(cluster: ShardedCluster, shard: int = 0) -> ReadReplica:
    store = TropicStore(
        KVStore(cluster.client, shard_store_prefix(shard, cluster.num_shards)),
        shard_id=shard if cluster.num_shards > 1 else None,
        num_shards=cluster.num_shards if cluster.num_shards > 1 else None,
    )
    return ReadReplica(store, cluster.schema, cluster.procedures, shard_id=shard)


def _cluster(**config) -> ShardedCluster:
    config.setdefault("checkpoint_every", 100_000)
    return ShardedCluster(num_shards=1, config=TropicConfig(**config))


def _cross_cluster() -> ShardedCluster:
    return ShardedCluster(
        num_shards=2,
        cross_shard_policy="2pc",
        config=TropicConfig(checkpoint_every=100_000),
    )


def _vm_path(txn) -> str:
    return f"{txn.args['vm_host']}/{txn.args['vm_name']}"


def _vm_paths(model) -> set[str]:
    return {str(path) for path in model.find(entity_type="vm")}


class TestTail:
    def test_catch_up_applies_commits_on_every_host(self):
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.model()
        a = cluster.submit_spawn("a", host_index=0)
        b = cluster.submit_spawn("b", host_index=1)
        cluster.drain()
        assert replica.refresh()
        model = replica.model(refresh=False)
        assert model.exists(_vm_path(a)) and model.exists(_vm_path(b))
        assert replica.applied_txn == cluster.stores[0].applied_seq() == 2

    def test_watermark_advances_once_per_commit(self):
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.model()
        watermarks = []
        for index in range(3):
            cluster.submit_spawn(f"vm{index}", host_index=0)
            cluster.drain()
            replica.refresh()
            watermarks.append(replica.applied_txn)
        assert watermarks == [1, 2, 3]

    def test_replica_created_after_commits_starts_at_the_leaders_watermark(self):
        """Commits made before the replica existed arrive through its
        bootstrap: the first snapshot already covers them."""
        cluster = _cluster()
        early = cluster.submit_spawn("early", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        model, watermark = replica.snapshot()
        assert watermark == cluster.stores[0].applied_seq() == 1
        assert model.exists(_vm_path(early))
        assert replica.lag() == 0
        assert not replica.refresh()  # nothing new since the bootstrap

    def test_forced_refresh_without_new_commits_changes_nothing(self):
        cluster = _cluster()
        cluster.submit_spawn("only", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        before = replica.model().to_dict()
        assert not replica.refresh(force=True)
        assert replica.applied_txn == 1
        assert replica.stats["bootstraps"] == 1
        assert replica.stats["catchup_batches"] == 0
        assert replica.model(refresh=False).to_dict() == before

    def test_stats_count_bootstrap_replay_and_catch_up(self):
        cluster = _cluster()
        cluster.submit_spawn("replayed", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        assert replica.stats["txns_applied"] == 1  # replayed by the bootstrap
        cluster.submit_spawn("x", host_index=1)
        cluster.submit_spawn("y", host_index=2)
        cluster.drain()
        assert replica.refresh()
        assert replica.stats["txns_applied"] == 3
        assert replica.stats["catchup_batches"] == 1
        assert replica.stats["bootstraps"] == 1

    def test_a_refresh_that_fails_stays_pending(self):
        """A catch-up that raises leaves the replica pending, so the next
        refresh catches up with no new commit to fire a watch."""
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.model()
        cluster.submit_spawn("a", host_index=0)
        cluster.drain()

        def connection_loss(*_):
            raise ConnectionError("injected connection loss")

        replica.store.applied_records = connection_loss
        with pytest.raises(ConnectionError):
            replica.refresh()
        del replica.store.applied_records

        assert replica.refresh()
        assert replica.applied_txn == cluster.stores[0].applied_seq() == 1

    def test_a_bootstrap_reads_the_applied_log_once(self):
        """The replay hands back the records it read; the barriers open
        from those, not from a second read of the tail."""
        cluster = _cluster()
        for index in range(3):
            cluster.submit_spawn(f"vm{index}", host_index=index)
        cluster.drain()
        replica = _replica_for(cluster)
        reads: list[int] = []
        real_applied_records = replica.store.applied_records

        def applied_records(after_seq=0):
            reads.append(after_seq)
            return real_applied_records(after_seq)

        replica.store.applied_records = applied_records
        replica.model()
        assert reads == [0]
        assert replica.applied_txn == 3
        assert all(replica.has_applied(t.txid) for t in cluster.submitted)

    def test_a_catch_up_costs_the_same_reads_whatever_its_length(self):
        """Catching up on E entries reads the log's listing, the entries
        and their documents in a fixed number of round-trips, not 2E."""
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.model()
        ensemble = cluster.ensemble
        costs = []
        for count in (1, 8):
            for index in range(count):
                cluster.submit_spawn(f"c{count}vm{index}", host_index=index % 4)
            cluster.drain()
            before = ensemble.read_round_trips
            assert replica.refresh()
            costs.append(ensemble.read_round_trips - before)
        assert replica.stats["bootstraps"] == 1
        assert replica.applied_txn == cluster.stores[0].applied_seq() == 9
        assert costs[0] == costs[1] <= 4, costs

    def test_each_commit_applied_once_under_aggressive_checkpointing(self):
        """Checkpoints every two commits, a refresh every three: the
        replica sleeps across one checkpoint (catch-up from the retained
        interval) or two (the second truncated its gap: re-bootstrap), in
        turn.  Its watermark only moves forward and every VM appears
        exactly once."""
        cluster = _cluster(checkpoint_every=2)
        replica = _replica_for(cluster)
        replica.model()
        watermarks, bootstraps = [], []
        for index in range(12):
            cluster.submit_spawn(f"vm{index}", host_index=index % 4)
            cluster.drain()
            if index % 3 != 2:
                continue
            replica.refresh()
            watermarks.append(replica.applied_txn)
            bootstraps.append(replica.stats["bootstraps"])
            model = replica.model(refresh=False)
            assert model.count(entity_type="vm") == index + 1
            assert model.to_dict() == cluster.model(0).to_dict()
        assert watermarks == sorted(watermarks)
        assert watermarks[-1] == cluster.stores[0].applied_seq()
        assert bootstraps == [1, 2, 2, 3]  # truncated gaps forced rebuilds

    def test_snapshot_stays_frozen_across_later_refreshes(self):
        cluster = _cluster()
        first = cluster.submit_spawn("first", host_index=0)
        cluster.drain()
        replica = _replica_for(cluster)
        old, old_watermark = replica.snapshot()
        second = cluster.submit_spawn("second", host_index=1)
        cluster.drain()
        new, new_watermark = replica.snapshot()
        assert new_watermark == old_watermark + 1
        assert _vm_paths(old) == {_vm_path(first)}
        assert _vm_paths(new) == {_vm_path(first), _vm_path(second)}

    def test_tailing_issues_no_coordination_writes(self):
        """Catch-up and a truncation-forced re-bootstrap are reads only:
        the replica never writes to the store it tails."""
        cluster = _cluster()
        replica = _replica_for(cluster)
        ensemble = cluster.ensemble
        for index in range(2):
            cluster.submit_spawn(f"vm{index}", host_index=index)
            cluster.drain()
            before = ensemble.write_round_trips
            assert replica.refresh()
            assert ensemble.write_round_trips == before
        # A commit the replica never saw is truncated by the second
        # checkpoint after it.
        cluster.submit_spawn("missed", host_index=2)
        cluster.drain()
        assert cluster.controllers[0].checkpoint()
        assert cluster.controllers[0].checkpoint()
        cluster.submit_spawn("after", host_index=3)
        cluster.drain()
        before = ensemble.write_round_trips
        assert replica.refresh()
        assert ensemble.write_round_trips == before
        assert replica.stats["bootstraps"] == 2


class TestRecentCommits:
    def test_has_applied_follows_catch_up(self):
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.model()
        txn = cluster.submit_spawn("seen", host_index=0)
        assert not replica.has_applied(txn.txid)
        cluster.drain()
        assert not replica.has_applied(txn.txid)  # not refreshed yet
        replica.refresh()
        assert replica.has_applied(txn.txid)
        assert not replica.has_applied("no-such-txn")

    def test_bootstrap_remembers_the_replayed_commits(self):
        cluster = _cluster()
        txns = [cluster.submit_spawn(f"vm{i}", host_index=i) for i in range(3)]
        cluster.drain()
        replica = _replica_for(cluster)
        replica.model()
        assert all(replica.has_applied(txn.txid) for txn in txns)

    def test_recent_commit_memory_is_bounded(self):
        cluster = _cluster()
        replica = _replica_for(cluster)
        replica.RECENT_TXIDS = 2
        replica.model()
        txns = []
        for index in range(3):
            txns.append(cluster.submit_spawn(f"vm{index}", host_index=index))
            cluster.drain()
            replica.refresh()
        assert [replica.has_applied(txn.txid) for txn in txns] == [False, True, True]


class TestBarriers:
    def test_cross_shard_commit_opens_a_barrier_on_both_participants(self):
        cluster = _cross_cluster()
        replicas = {shard: _replica_for(cluster, shard) for shard in cluster.shard_ids}
        for replica in replicas.values():
            replica.model()
        txn = cluster.submit_cross_spawn("xbar")
        cluster.drain()
        expected = Barrier(
            txid=txn.txid,
            participants=tuple(sorted(txn.participants)),
            coordinator=txn.coordinator,
        )
        for shard in txn.participants:
            assert replicas[shard].refresh()
            assert replicas[shard].open_barriers() == [expected]
            assert replicas[shard].stats["barriers_opened"] == 1
            assert replicas[shard].has_applied(txn.txid)

    def test_close_barrier_drops_only_the_named_commit(self):
        cluster = _cross_cluster()
        first = cluster.submit_cross_spawn("x1", vm_host_index=0)
        second = cluster.submit_cross_spawn("x2", vm_host_index=0)
        cluster.drain()
        replica = _replica_for(cluster, first.coordinator)
        replica.model()
        assert [b.txid for b in replica.open_barriers()] == [first.txid, second.txid]
        replica.close_barrier(first.txid)
        replica.close_barrier("no-such-txn")
        assert [b.txid for b in replica.open_barriers()] == [second.txid]
        # Closing a barrier confirms visibility; the commit stays applied.
        assert replica.has_applied(first.txid)

    def test_barrier_window_keeps_the_newest_commits(self):
        cluster = _cross_cluster()
        replica = _replica_for(cluster, cluster.router.shard_of(
            cluster.inventory.vm_hosts[0]
        ))
        replica.BARRIER_WINDOW = 2
        replica.model()
        txns = []
        for index in range(3):
            txns.append(cluster.submit_cross_spawn(f"x{index}", vm_host_index=0))
            cluster.drain()
            replica.refresh()
        assert [b.txid for b in replica.open_barriers()] == [t.txid for t in txns[1:]]
        assert replica.stats["barriers_opened"] == 3

    def test_open_barriers_returns_a_copy(self):
        cluster = _cross_cluster()
        txn = cluster.submit_cross_spawn("xcopy")
        cluster.drain()
        replica = _replica_for(cluster, txn.coordinator)
        replica.model()
        barriers = replica.open_barriers()
        barriers.clear()
        assert [b.txid for b in replica.open_barriers()] == [txn.txid]

    def test_bootstrap_opens_barriers_for_the_replayed_tail(self):
        cluster = _cross_cluster()
        txn = cluster.submit_cross_spawn("xtail")
        cluster.drain()
        for shard in txn.participants:
            replica = _replica_for(cluster, shard)
            replica.model()
            assert replica.stats["bootstraps"] == 1
            assert [b.txid for b in replica.open_barriers()] == [txn.txid]

    def test_bootstrap_opens_barriers_for_checkpoint_covered_commits(self):
        """A checkpoint truncated the commit's applied entry (the second
        one after it: truncation lags by one): its COMMITTED document still
        proves the rebuilt model holds this shard's half, so the barrier
        and the recent-commit memory are restored from it."""
        cluster = _cross_cluster()
        txn = cluster.submit_cross_spawn("xcovered")
        cluster.drain()
        shard = txn.coordinator
        assert cluster.controllers[shard].checkpoint()
        assert cluster.controllers[shard].checkpoint()
        assert txn.txid not in cluster.stores[shard].applied_since(0)
        replica = _replica_for(cluster, shard)
        assert replica.model().to_dict() == cluster.model(shard).to_dict()
        assert [b.txid for b in replica.open_barriers()] == [txn.txid]
        assert replica.has_applied(txn.txid)

    def test_a_bootstrap_that_fails_midway_is_retried_whole(self):
        """A transient fault during a bootstrap's reads leaves no half-built
        replica: the next refresh rebuilds it, recent-commit memory and
        barriers included, instead of tailing a model that lacks them."""
        cluster = _cross_cluster()
        txn = cluster.submit_cross_spawn("xcovered")
        cluster.drain()
        shard = txn.coordinator
        assert cluster.controllers[shard].checkpoint()
        replica = _replica_for(cluster, shard)

        def connection_loss():
            raise ConnectionError("injected connection loss")

        replica.store.load_all_transactions = connection_loss
        with pytest.raises(ConnectionError):
            replica.refresh()
        del replica.store.load_all_transactions

        assert replica.refresh()
        assert replica.stats["bootstraps"] == 1
        assert replica.has_applied(txn.txid)
        assert [b.txid for b in replica.open_barriers()] == [txn.txid]
        assert replica.model().to_dict() == cluster.model(shard).to_dict()


def _drive_torn(cluster: ShardedCluster):
    """Drive a cross-shard spawn until the commit decision is durable and
    the coordinator committed, while the other participant's decision
    stays unprocessed (its slice is PREPARED, not applied)."""
    txn = cluster.submit_cross_spawn("vm-torn")
    coordinator = txn.coordinator
    lagging = next(s for s in txn.participants if s != coordinator)
    for _ in range(10_000):
        if cluster.twopc.decision(txn.txid, coordinator) == DECISION_COMMIT:
            break
        cluster.controllers[lagging].step()
        cluster.workers[lagging].step()
        cluster.controllers[coordinator].step()
        cluster.workers[coordinator].step()
    else:
        raise AssertionError("no commit decision")
    for _ in range(10_000):
        doc = cluster.stores[coordinator].load_transaction(txn.txid)
        if doc is not None and doc.state is TransactionState.COMMITTED:
            break
        cluster.controllers[coordinator].step()
        cluster.workers[coordinator].step()
    assert txn.txid not in cluster.stores[lagging].applied_since(0)
    return txn, lagging


class TestEarlyApply:
    def test_unknown_commit_is_unavailable(self):
        cluster = _cross_cluster()
        replica = _replica_for(cluster, 0)
        replica.model()
        assert replica.early_apply("no-such-txn") == "unavailable"
        assert replica.early_seq == 0
        assert replica.stats["early_applies"] == 0
        assert replica.open_barriers() == []

    def test_caught_up_commit_is_already_applied(self):
        cluster = _cross_cluster()
        txn = cluster.submit_cross_spawn("xdone")
        cluster.drain()
        replica = _replica_for(cluster, txn.coordinator)
        replica.model()
        assert replica.early_apply(txn.txid) == "already"
        assert replica.early_seq == 0

    def test_committed_but_unrefreshed_commit_is_caught_up(self):
        """The document is COMMITTED, so its applied entry is durable: the
        replica catches up the normal way instead of applying early."""
        cluster = _cross_cluster()
        replica = _replica_for(cluster, 0)
        replica.model()
        txn = cluster.submit_cross_spawn("xlate")
        cluster.drain()
        assert 0 in txn.participants
        assert not replica.has_applied(txn.txid)
        assert replica.early_apply(txn.txid) == "already"
        assert replica.has_applied(txn.txid)
        assert replica.applied_txn == cluster.stores[0].applied_seq()
        assert replica.early_seq == 0

    def test_prepared_slice_is_applied_once(self):
        cluster = _cross_cluster()
        txn, lagging = _drive_torn(cluster)
        replica = _replica_for(cluster, lagging)
        replica.model()
        assert not replica.has_applied(txn.txid)
        assert replica.early_apply(txn.txid) == "applied"
        assert replica.has_applied(txn.txid)
        assert [b.txid for b in replica.open_barriers()] == [txn.txid]
        assert replica.early_apply(txn.txid) == "already"
        assert replica.early_seq == 1
        assert replica.stats["early_applies"] == 1
        # The watermark did not move: the applied entry is not written yet.
        assert replica.applied_txn == cluster.stores[lagging].applied_seq()
