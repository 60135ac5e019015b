"""Integration tests for the threaded runtime and controller failover (§6.4),
including per-shard failover of the sharded controller (PR 2)."""

import sys
import threading
import time

import pytest

from repro.core.txn import TransactionState
from repro.tcloud.service import build_tcloud


def _spawn_on(cloud, vm_name, host_index, wait=True, timeout=30.0, mem_mb=512):
    """Spawn pinned to a compute host and its paired storage host (always
    single-shard under the TCloud co-location scheme)."""
    return cloud.spawn_vm(
        vm_name,
        mem_mb=mem_mb,
        vm_host=cloud.inventory.vm_hosts[host_index],
        storage_host=cloud.inventory.storage_host_for(host_index),
        wait=wait,
        timeout=timeout,
    )


@pytest.fixture
def threaded_cloud(threaded_config):
    cloud = build_tcloud(num_vm_hosts=6, num_storage_hosts=2, host_mem_mb=8192,
                         config=threaded_config, threaded=True)
    cloud.platform.start()
    # Give the replicas a moment to elect a leader.
    deadline = time.time() + 5.0
    while time.time() < deadline and cloud.platform.leader_runner() is None:
        time.sleep(0.02)
    yield cloud
    cloud.platform.stop()


class TestThreadedRuntime:
    def test_spawn_on_threaded_runtime(self, threaded_cloud):
        txn = threaded_cloud.spawn_vm("t1", timeout=30.0)
        assert txn.state is TransactionState.COMMITTED
        assert threaded_cloud.find_vm("t1") is not None

    def test_an_idle_platform_heals_an_expired_session(self, threaded_cloud):
        """The shared session expiring while every queue is empty reaches
        the queues' mirrors, so an idle runner's next poll fails and heals
        the client, and a later submit commits."""
        platform = threaded_cloud.platform
        assert _spawn_on(threaded_cloud, "before", 0).state is TransactionState.COMMITTED
        time.sleep(0.1)  # let the runners go idle on empty queues
        platform.ensemble.expire_session(platform.client.session_id)
        deadline = time.time() + 5.0
        while time.time() < deadline and not platform.client.is_live():
            time.sleep(0.02)
        assert platform.client.is_live()
        assert _spawn_on(threaded_cloud, "after", 1).state is TransactionState.COMMITTED

    def test_exactly_one_leader(self, threaded_cloud):
        runners = threaded_cloud.platform._controller_runners
        time.sleep(0.2)
        leaders = [r for r in runners if r.is_alive() and r.is_leader]
        assert len(leaders) == 1

    def test_concurrent_submissions_all_terminal(self, threaded_cloud):
        handles = [threaded_cloud.spawn_vm(f"batch{i}", mem_mb=512, wait=False)
                   for i in range(12)]
        results = [handle.wait(timeout=60.0) for handle in handles]
        assert all(txn.is_terminal for txn in results)
        committed = [txn for txn in results if txn.state is TransactionState.COMMITTED]
        assert len(committed) >= 10  # a couple may abort on placement races

    def test_front_door_reads_race_the_live_tree(self, threaded_cloud):
        """Single-shard ``model_view()`` is the leader's live tree: reads on
        client threads iterate snapshots of the child dicts, so commits
        adding and removing VMs underneath them never raise "dictionary
        changed size during iteration"."""
        errors: list[Exception] = []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    threaded_cloud.list_vms(prefix="race")
                    threaded_cloud.find_vm("race0")
                    threaded_cloud.vm_count()
                    threaded_cloud.host_utilisation()
                    threaded_cloud.placement.pick_vm_host(
                        threaded_cloud.platform.model_view(), 256)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        readers = [threading.Thread(target=read, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for cycle in range(3):
                names = [f"race{cycle}-{i}" for i in range(6)]
                spawned = [threaded_cloud.spawn_vm(name, mem_mb=256, wait=False)
                           for name in names]
                assert all(h.wait(timeout=60.0).is_terminal for h in spawned)
                for name in names:
                    if threaded_cloud.find_vm(name) is not None:
                        threaded_cloud.destroy_vm(name, timeout=30.0)
        finally:
            done.set()
            for reader in readers:
                reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors

    def test_controller_busy_time_grows_under_load(self, threaded_cloud):
        before = threaded_cloud.platform.controller_busy_seconds()
        for index in range(5):
            threaded_cloud.spawn_vm(f"busy{index}", mem_mb=256, timeout=30.0)
        assert threaded_cloud.platform.controller_busy_seconds() > before


class TestFailover:
    def test_no_submitted_transaction_lost_across_failover(self, threaded_cloud):
        platform = threaded_cloud.platform
        # Mix of already-submitted work and work submitted during recovery.
        before = [threaded_cloud.spawn_vm(f"pre{i}", mem_mb=512, wait=False) for i in range(6)]
        killed = platform.kill_leader()
        assert killed is not None
        after = [threaded_cloud.spawn_vm(f"post{i}", mem_mb=512, wait=False) for i in range(4)]
        results = [handle.wait(timeout=60.0) for handle in before + after]
        assert all(txn.is_terminal for txn in results)
        assert sum(txn.state is TransactionState.COMMITTED for txn in results) >= 8
        assert len(platform.live_controller_names()) == 2

    def test_new_leader_elected_within_session_timeout_margin(self, threaded_cloud):
        platform = threaded_cloud.platform
        config = platform.config
        old = platform.kill_leader()
        assert old is not None
        start = time.time()
        deadline = start + 20 * config.session_timeout + 5.0
        new_runner = None
        while time.time() < deadline:
            runner = platform.leader_runner()
            if runner is not None and runner.controller.name != old and runner.controller.recovered:
                new_runner = runner
                break
            time.sleep(0.01)
        assert new_runner is not None, "no follower took over"
        # The new leader serves transactions.
        txn = threaded_cloud.spawn_vm("after-failover", timeout=30.0)
        assert txn.state is TransactionState.COMMITTED

    def test_survives_two_failovers(self, threaded_cloud):
        platform = threaded_cloud.platform
        assert platform.kill_leader() is not None
        txn1 = threaded_cloud.spawn_vm("ha1", timeout=60.0)
        assert platform.kill_leader() is not None
        txn2 = threaded_cloud.spawn_vm("ha2", timeout=60.0)
        assert txn1.state is TransactionState.COMMITTED
        assert txn2.state is TransactionState.COMMITTED
        assert len(platform.live_controller_names()) == 1


@pytest.fixture
def sharded_cloud(threaded_config):
    """A 2-shard threaded deployment: per-shard elections, queues, stores."""
    config = threaded_config.with_overrides(num_shards=2, num_controllers=2)
    cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, host_mem_mb=8192,
                         config=config, threaded=True)
    cloud.platform.start()
    deadline = time.time() + 5.0
    while time.time() < deadline and any(
        cloud.platform.leader_runner(shard) is None for shard in (0, 1)
    ):
        time.sleep(0.02)
    yield cloud
    cloud.platform.stop()


class TestShardedFailover:
    def test_each_shard_elects_its_own_leader(self, sharded_cloud):
        platform = sharded_cloud.platform
        for shard in (0, 1):
            runner = platform.leader_runner(shard)
            assert runner is not None
            assert runner.shard == shard

    def test_shard_failover_does_not_disturb_the_other_shard(self, sharded_cloud):
        platform = sharded_cloud.platform
        # Work on both shards, then kill shard 0's leader mid-stream.
        # Hosts 0-3 pair with storageHost0 (shard 0); hosts 4-7 with
        # storageHost1 (shard 1).
        before = [_spawn_on(sharded_cloud, f"pre{i}", host_index=i, wait=False)
                  for i in range(8)]
        killed = platform.kill_leader(shard=0)
        assert killed is not None
        after = [_spawn_on(sharded_cloud, f"post{i}", host_index=i, wait=False)
                 for i in range(8)]
        results = [handle.wait(timeout=60.0) for handle in before + after]
        assert all(txn.is_terminal for txn in results)
        committed = sum(txn.state is TransactionState.COMMITTED for txn in results)
        assert committed == len(results), [t.error for t in results]
        # Shard 0 failed over to its follower; shard 1 kept its replicas.
        assert len(platform.live_controller_names(shard=0)) == 1
        assert len(platform.live_controller_names(shard=1)) == 2
        # Both shards still serve new work after the failover.
        assert _spawn_on(sharded_cloud, "tail0", 0, timeout=30.0).state \
            is TransactionState.COMMITTED
        assert _spawn_on(sharded_cloud, "tail1", 4, timeout=30.0).state \
            is TransactionState.COMMITTED

    def test_sharded_recovery_replays_only_the_shards_own_log(self, sharded_cloud):
        platform = sharded_cloud.platform
        for index in range(4):
            _spawn_on(sharded_cloud, f"seed{index}", host_index=index, timeout=30.0)
        _spawn_on(sharded_cloud, "other", host_index=4, timeout=30.0)
        platform.kill_leader(shard=0)
        deadline = time.time() + 10.0
        runner = None
        while time.time() < deadline:
            runner = platform.leader_runner(shard=0)
            if runner is not None and runner.controller.recovered:
                break
            time.sleep(0.02)
        assert runner is not None and runner.controller.recovered
        leader = runner.controller
        # The new shard-0 leader recovered shard 0's transactions only.
        recovered_txids = set(leader.store.transaction_ids())
        for txid in recovered_txids:
            txn = leader.store.load_transaction(txid)
            assert platform.shard_router.shard_of(txn.args["vm_host"]) == 0
        # Its model still serves shard-0 placements.
        assert _spawn_on(sharded_cloud, "after", 1, timeout=30.0).state \
            is TransactionState.COMMITTED


class TestCoordinationFaults:
    def test_single_coordination_server_crash_is_transparent(self, threaded_cloud):
        platform = threaded_cloud.platform
        platform.ensemble.crash_server(2)
        txn = threaded_cloud.spawn_vm("quorum-ok", timeout=30.0)
        assert txn.state is TransactionState.COMMITTED
        platform.ensemble.restart_server(2)
        txn = threaded_cloud.spawn_vm("after-restart", timeout=30.0)
        assert txn.state is TransactionState.COMMITTED


@pytest.fixture
def twopc_cloud(threaded_config):
    """A 2-shard threaded deployment running cross-shard 2PC."""
    config = threaded_config.with_overrides(
        num_shards=2, num_controllers=2, cross_shard_policy="2pc"
    )
    cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, host_mem_mb=8192,
                         config=config, threaded=True)
    cloud.platform.start()
    deadline = time.time() + 5.0
    while time.time() < deadline and any(
        cloud.platform.leader_runner(shard) is None for shard in (0, 1)
    ):
        time.sleep(0.02)
    yield cloud
    cloud.platform.stop()


def _cross_spawn(cloud, vm_name, host_index=0, wait=True, timeout=60.0):
    """Spawn whose VM and disk image live on hosts owned by different
    shards (cross-shard by construction)."""
    platform = cloud.platform
    vm_host = cloud.inventory.vm_hosts[host_index]
    home = platform.shard_router.shard_of(vm_host)
    foreign = next(h for h in cloud.inventory.storage_hosts
                   if platform.shard_router.shard_of(h) != home)
    return cloud.spawn_vm(vm_name, mem_mb=512, vm_host=vm_host,
                          storage_host=foreign, wait=wait, timeout=timeout)


class TestTwoPCFailover:
    """Coordinator-shard failover mid-protocol (threaded runtime)."""

    def test_cross_shard_commit_on_threaded_runtime(self, twopc_cloud):
        txn = _cross_spawn(twopc_cloud, "xvm")
        assert txn.state is TransactionState.COMMITTED
        assert txn.is_cross_shard
        # Both owner shards observe their halves of the transaction.
        platform = twopc_cloud.platform
        storage = txn.args["storage_host"]
        owner = platform.shard_router.shard_of(storage)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            if platform.leader(owner).model.exists(f"{storage}/xvm-disk"):
                break
            time.sleep(0.02)
        assert platform.leader(owner).model.exists(f"{storage}/xvm-disk")
        assert platform.model_view().exists(f"{txn.args['vm_host']}/xvm")

    def test_coordinator_failover_mid_protocol(self, twopc_cloud):
        """Kill the coordinator shard's leader while cross-shard
        transactions are in flight: every transaction must reach a
        terminal state, and committed ones must be atomic across shards."""
        platform = twopc_cloud.platform
        handles = []
        # Mix of single-shard and cross-shard work in flight.
        for index in range(4):
            handles.append(_spawn_on(twopc_cloud, f"s{index}", host_index=index,
                                     wait=False))
        cross = [_cross_spawn(twopc_cloud, f"x{index}", host_index=index,
                              wait=False) for index in range(3)]
        # The coordinator of every cross-shard txn is the lowest involved
        # shard; killing shard 0's leader hits it mid-protocol.
        assert platform.kill_leader(shard=0) is not None
        results = [h.wait(timeout=60.0) for h in handles + cross]
        assert all(txn.is_terminal for txn in results)
        for txn in results[len(handles):]:
            vm_name = txn.args["vm_name"]
            vm_host, storage = txn.args["vm_host"], txn.args["storage_host"]
            vm_owner = platform.shard_router.shard_of(vm_host)
            st_owner = platform.shard_router.shard_of(storage)
            deadline = time.time() + 10.0
            while time.time() < deadline:
                vm_there = platform.leader(vm_owner).model.exists(f"{vm_host}/{vm_name}")
                img_there = platform.leader(st_owner).model.exists(
                    f"{storage}/{vm_name}-disk")
                if vm_there == img_there:
                    break
                time.sleep(0.02)
            assert vm_there == img_there, f"{txn.txid} half-applied after failover"
            if txn.state is TransactionState.COMMITTED:
                assert vm_there
        # The fleet keeps serving both shard-local and cross-shard work.
        assert _spawn_on(twopc_cloud, "tail", 1, timeout=30.0).state \
            is TransactionState.COMMITTED
        assert _cross_spawn(twopc_cloud, "xtail", 1, timeout=60.0).state \
            in (TransactionState.COMMITTED, TransactionState.ABORTED)
