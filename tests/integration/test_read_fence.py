"""Cross-shard-atomic replica reads: the decision-log-aware read fence.

The replica read path (PR 4/5) merges per-shard snapshots at independent
watermarks, so a ``fleet_view()`` taken between a
2PC coordinator's commit and a participant's decision processing used to
show exactly one participant's slice of the transaction — a *torn*
cross-shard read, violating the atomicity the write path's two-phase
commit pays for.

These tests construct that window deterministically: a cross-shard
spawnVM is driven shard-by-shard (inline stepping) until the commit
decision is durable and the coordinator has applied its slice, while the
participant's decision message is withheld in its inputQ.  The fenced
view must contain *both* halves (the fence advances the lagging replica
past the durable decision) or neither — never one.  Stubbing out
``repro.core.platform.fence_replica_sources`` (the hook the benchmark
tracer wraps) reproduces the historical tear as a regression sentinel.
"""

from __future__ import annotations


from repro.common.config import TropicConfig
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.readfence import FenceResult, fence_replica_sources
from repro.core.replica import ReadReplica
from repro.core.twopc import TWOPC_PREFIX, DECISION_COMMIT, TwoPCLog
from repro.core.txn import TransactionState
from repro.tcloud.procedures import disk_image_name
from repro.tcloud.service import build_tcloud
from repro.testing import ShardedCluster

NUM_SHARDS = 3


def _fleet():
    """Writer process hosting shards 0 and 1, observer hosting shard 2
    only — the cross-shard workload below spans shards 0<->1, so both of
    its participants are replica-served at the observer."""
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
    config = TropicConfig(
        num_shards=NUM_SHARDS,
        logical_only=True,
        checkpoint_every=100_000,
        cross_shard_policy="2pc",
    )

    def build(local):
        return build_tcloud(
            num_vm_hosts=9,
            num_storage_hosts=6,
            config=config,
            logical_only=True,
            ensemble=ensemble,
            local_shards=local,
        )

    writer = build([0, 1])
    observer = build([2])
    writer.platform.start()
    observer.platform.start()
    return writer, observer


def _cross_pair(cloud):
    """(vm_host, storage_host) on two different shards, neither of them
    the observer's local shard 2."""
    router = cloud.platform.shard_router
    for vm_host in cloud.inventory.vm_hosts:
        a = router.shard_of(vm_host)
        if a == 2:
            continue
        for storage_host in cloud.inventory.storage_hosts:
            b = router.shard_of(storage_host)
            if b != a and b != 2:
                return vm_host, storage_host
    raise AssertionError("no cross-shard host pair off the observer shard")


def _unfenced(monkeypatch):
    """Disable the read fence where ``fleet_view`` looks it up."""
    monkeypatch.setattr(
        "repro.core.platform.fence_replica_sources",
        lambda replicas, leader_shards, twopc: FenceResult(),
    )


def _step_shard(platform, shard) -> bool:
    progressed = platform.leader(shard).step()
    for worker in platform.shards[shard].workers:
        if worker.step():
            progressed = True
    return progressed


def _drive_to_torn_window(writer, vm_host, storage_host):
    """Run a cross-shard spawnVM until the commit decision is durable and
    the coordinator has committed, while the *other* participant's
    decision message stays unprocessed in its inputQ.  Returns the txn."""
    platform = writer.platform
    router = platform.shard_router
    shard_a = router.shard_of(vm_host)
    shard_b = router.shard_of(storage_host)
    handle = platform.submit(
        "spawnVM",
        {
            "vm_name": "torn",
            "image_template": "template-small",
            "storage_host": storage_host,
            "vm_host": vm_host,
            "mem_mb": 256,
        },
        wait=False,
    )
    txid = handle.txid
    coordinator = platform.shard_of_txn(txid)
    lagging = shard_b if coordinator == shard_a else shard_a
    twopc = platform.twopc
    # Phase 1: step both shards until the commit decision is durable.
    # The decision is written inside a coordinator step, so stepping the
    # coordinator *last* in each round guarantees the lagging shard never
    # sees the fan-out that follows it.
    for _ in range(10_000):
        if twopc.decision(txid, coordinator) == DECISION_COMMIT:
            break
        _step_shard(platform, lagging)
        _step_shard(platform, coordinator)
    else:
        raise AssertionError("2PC never reached a commit decision")
    # Phase 2: only the coordinator runs until its document is terminal.
    for _ in range(10_000):
        txn = platform.load_transaction(txid)
        if txn is not None and txn.state is TransactionState.COMMITTED:
            break
        _step_shard(platform, coordinator)
    else:
        raise AssertionError("coordinator never committed")
    assert txid not in writer.platform.shards[lagging].store.applied_since(0), (
        "test harness failed to withhold the participant's decision"
    )
    return txn, coordinator, lagging


class TestFleetViewFence:
    def test_unfenced_view_reproduces_the_torn_read(self, monkeypatch):
        """Regression sentinel: with the fence stubbed out, the historical
        bug is visible — the view holds exactly one half of the commit."""
        writer, observer = _fleet()
        with writer.platform, observer.platform:
            vm_host, storage_host = _cross_pair(writer)
            _drive_to_torn_window(writer, vm_host, storage_host)
            _unfenced(monkeypatch)
            view = observer.platform.fleet_view().model
            vm_visible = view.exists(f"{vm_host}/torn")
            image_visible = view.exists(
                f"{storage_host}/{disk_image_name('torn')}"
            )
            assert vm_visible != image_visible, (
                "expected the unfenced view to tear (one half only); "
                "did the stepping harness leave the window?"
            )

    def test_fenced_view_is_atomic_across_shards(self):
        """The tentpole: a replica-served view never shows
        a partial cross-shard commit — the fence advances the lagging
        replica past the durable decision before merging."""
        writer, observer = _fleet()
        with writer.platform, observer.platform:
            vm_host, storage_host = _cross_pair(writer)
            _drive_to_torn_window(writer, vm_host, storage_host)
            view = observer.platform.fleet_view().model
            vm_visible = view.exists(f"{vm_host}/torn")
            image_visible = view.exists(
                f"{storage_host}/{disk_image_name('torn')}"
            )
            assert vm_visible and image_visible, (
                f"torn cross-shard read: vm={vm_visible} image={image_visible}"
            )

    def test_fence_early_application_invalidates_the_cached_view(self, monkeypatch):
        """An unfenced call caches the torn merge; the fence's early
        application changes the lagging replica's model *without* moving
        its ``applied_txn``, so only the ``early_seq`` component of the
        cache key keeps the stale entry from being served to the fenced
        call that follows."""
        writer, observer = _fleet()
        with writer.platform, observer.platform:
            vm_host, storage_host = _cross_pair(writer)
            _, _, lagging = _drive_to_torn_window(writer, vm_host, storage_host)
            _unfenced(monkeypatch)
            torn = observer.platform.fleet_view().model
            image = disk_image_name("torn")
            assert torn.exists(f"{vm_host}/torn") != torn.exists(
                f"{storage_host}/{image}"
            )
            monkeypatch.undo()
            fenced = observer.platform.fleet_view().model
            assert fenced.exists(f"{vm_host}/torn")
            assert fenced.exists(f"{storage_host}/{image}")
            replica = observer.platform.read_proxy.replicas()[lagging]
            assert replica.stats["early_applies"] == 1

    def test_fence_degrade_counts_a_degraded_read_and_is_not_cached(self):
        """A view the fence degraded (decision log unreadable) bumps
        ``resilience.degraded_reads`` once, discloses the shard as partial
        and leaves the view cache as it was."""
        writer, observer = _fleet()
        with writer.platform, observer.platform:
            vm_host, storage_host = _cross_pair(writer)
            platform = observer.platform
            platform.fleet_view()  # prime the cache
            _, coordinator, _ = _drive_to_torn_window(writer, vm_host, storage_host)
            cache_before = platform._view_cache
            reads_before = platform.resilience.degraded_reads
            platform.twopc = TwoPCLog(KVStore(platform.client, TWOPC_PREFIX + "-void"))
            view = platform.fleet_view()
            assert view.watermarks[coordinator].source == "partial"
            assert platform.resilience.degraded_reads == reads_before + 1
            assert platform._view_cache is cache_before

    def test_fenced_view_stays_atomic_through_the_whole_protocol(self):
        """Sweep: a fenced view taken after every single step of the 2PC
        protocol contains both halves or neither, and converges to both."""
        writer, observer = _fleet()
        with writer.platform, observer.platform:
            vm_host, storage_host = _cross_pair(writer)
            platform = writer.platform
            router = platform.shard_router
            shards = sorted({router.shard_of(vm_host), router.shard_of(storage_host)})
            handle = platform.submit(
                "spawnVM",
                {
                    "vm_name": "swept",
                    "image_template": "template-small",
                    "storage_host": storage_host,
                    "vm_host": vm_host,
                    "mem_mb": 256,
                },
                wait=False,
            )
            image = disk_image_name("swept")
            for _ in range(10_000):
                progressed = False
                for shard in shards:
                    progressed |= _step_shard(platform, shard)
                    view = observer.platform.fleet_view().model
                    vm_visible = view.exists(f"{vm_host}/swept")
                    image_visible = view.exists(f"{storage_host}/{image}")
                    assert vm_visible == image_visible, (
                        f"torn mid-protocol: vm={vm_visible} image={image_visible}"
                    )
                txn = platform.load_transaction(handle.txid)
                if txn is not None and txn.is_terminal and not progressed:
                    break
            platform.run_until_idle()
            assert handle.wait(timeout=30.0).state is TransactionState.COMMITTED
            final = observer.platform.fleet_view().model
            assert final.exists(f"{vm_host}/swept")
            assert final.exists(f"{storage_host}/{image}")


class TestFenceCore:
    """The fence core over raw replicas of a ShardedCluster — the same
    deterministic harness the fault matrix uses."""

    def _replicas(self, cluster):
        out = {}
        for shard in cluster.shard_ids:
            store = TropicStore(
                KVStore(cluster.client, shard_store_prefix(shard, cluster.num_shards)),
                shard_id=shard,
                num_shards=cluster.num_shards,
            )
            out[shard] = ReadReplica(
                store, cluster.schema, cluster.procedures, shard_id=shard
            )
            out[shard].refresh()
        return out

    def _torn_cluster(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        txn, coordinator, lagging = self._drive_torn(cluster)
        return cluster, txn, coordinator, lagging

    def _drive_torn(self, cluster):
        """Drive a cross-shard commit on a 2-shard cluster until the
        decision is durable and the coordinator applied, withholding the
        participant's decision processing."""
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
        return txn, coordinator, lagging

    def test_fence_advances_the_lagging_participant(self):
        cluster, txn, coordinator, lagging = self._torn_cluster()
        replicas = self._replicas(cluster)
        assert replicas[coordinator].has_applied(txn.txid)
        assert not replicas[lagging].has_applied(txn.txid)
        result = fence_replica_sources(replicas, set(), cluster.twopc)
        assert result.advanced >= 1
        assert not result.degraded
        assert replicas[lagging].has_applied(txn.txid)
        # Both slices are now visible in the replica models.
        vm_host = txn.args["vm_host"]
        storage_host = txn.args["storage_host"]
        image = disk_image_name("vm-torn")
        vm_shard = cluster.router.shard_of(vm_host)
        img_shard = cluster.router.shard_of(storage_host)
        assert replicas[vm_shard].model(refresh=False).exists(f"{vm_host}/vm-torn")
        assert replicas[img_shard].model(refresh=False).exists(
            f"{storage_host}/{image}"
        )

    def test_early_application_is_not_applied_twice(self):
        """The fence applies the prepared slice ahead of the applied log;
        when the participant's own entry later arrives, the replica must
        skip re-application and only advance its watermark."""
        cluster, txn, coordinator, lagging = self._torn_cluster()
        replicas = self._replicas(cluster)
        fence_replica_sources(replicas, set(), cluster.twopc)
        assert replicas[lagging].stats["early_applies"] == 1
        cluster.drain()
        replicas[lagging].refresh()
        assert replicas[lagging].applied_txn == cluster.stores[
            lagging
        ].applied_seq()
        # Model equality with the leader proves no duplicate application.
        assert (
            replicas[lagging].model(refresh=False).to_dict()
            == cluster.model(lagging).to_dict()
        )

    def test_fence_closes_barriers_once_confirmed(self):
        cluster, txn, coordinator, lagging = self._torn_cluster()
        replicas = self._replicas(cluster)
        fence_replica_sources(replicas, set(), cluster.twopc)
        cluster.drain()
        for replica in replicas.values():
            replica.refresh()
        fence_replica_sources(replicas, set(), cluster.twopc)
        assert all(not r.open_barriers() for r in replicas.values())

    def _unreachable(self, cluster):
        return TwoPCLog(KVStore(cluster.client, TWOPC_PREFIX + "-void"))

    def test_fence_degrades_when_the_decision_is_unreadable(self):
        """When the lagging shard cannot be advanced (decision log
        unreachable), the fence degrades the replica that shows the
        commit; the laggard, holding neither half, is still served."""
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        replicas = self._replicas(cluster)  # live-tailing
        txn, coordinator, lagging = self._drive_torn(cluster)
        for replica in replicas.values():
            replica.refresh(force=True)
        result = fence_replica_sources(replicas, set(), self._unreachable(cluster))
        assert result.degraded == [coordinator]
        assert lagging not in result.degraded
        lagging_model = replicas[lagging].model(refresh=False)
        assert not lagging_model.exists(f"{txn.args['vm_host']}/vm-torn")
        assert not lagging_model.exists(
            f"{txn.args['storage_host']}/{disk_image_name('vm-torn')}"
        )

    def test_leader_served_participant_degrades_only_the_laggard(self):
        """A leader-served coordinator already shows the commit and cannot
        be cut back, so with the decision unreadable only the lagging
        replica degrades.  (The coordinator's replica here just carries
        the barrier into the fence; the shard counts as leader-served.)"""
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        replicas = self._replicas(cluster)
        txn, coordinator, lagging = self._drive_torn(cluster)
        for replica in replicas.values():
            replica.refresh(force=True)
        assert replicas[coordinator].open_barriers()
        result = fence_replica_sources(
            replicas, {coordinator}, self._unreachable(cluster)
        )
        assert result.degraded == [lagging]
        assert result.advanced == 0

    def test_replica_bootstrapped_after_the_commit_degrades(self):
        """A replica bootstrapped after the commit opens its barrier from
        the replayed log tail.  With the decision unreadable and the other
        participant lagging, that replica degrades and the laggard is
        served."""
        cluster, txn, coordinator, lagging = self._torn_cluster()
        replicas = self._replicas(cluster)  # bootstrapped now
        assert [b.txid for b in replicas[coordinator].open_barriers()] == [txn.txid]
        assert not replicas[lagging].has_applied(txn.txid)
        result = fence_replica_sources(replicas, set(), self._unreachable(cluster))
        assert result.degraded == [coordinator]
        assert lagging not in result.degraded

    def test_single_shard_commits_open_no_barriers(self):
        """Only cross-shard commits open barriers: a replica catching up
        on a single-shard commit leaves the fence nothing to align."""
        cluster = ShardedCluster(
            num_shards=2,
            cross_shard_policy="2pc",
            config=TropicConfig(checkpoint_every=100_000),
        )
        host = cluster.inventory.vm_hosts[0]
        replica = self._replicas(cluster)[cluster.router.shard_of(host)]
        cluster.submit_spawn("solo", host_index=0)  # single-shard by construction
        cluster.drain()
        assert replica.refresh()
        assert replica.stats["bootstraps"] == 1  # applied by catch-up
        assert replica.model(refresh=False).exists(f"{host}/solo")
        assert replica.open_barriers() == []

    def test_quiesced_fence_is_a_noop(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        cluster.submit_cross_spawn("vm-quiet")
        cluster.drain()
        replicas = self._replicas(cluster)
        result = fence_replica_sources(replicas, set(), cluster.twopc)
        assert result.advanced == 0
        assert not result.degraded
