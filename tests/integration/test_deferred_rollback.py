"""A deferred transaction's rollback undoes every action it simulated.

A lock conflict defers a simulated transaction (Figure 2, 3B): the
controller replays the undos of its execution log and re-simulates it
later.  Every action has an undo, so the model after the rollback is the
model before the simulation, and the retry logs every action again.  The
shape: ``vm1`` is committed on vmHost0; ``vm2`` is outstanding and holds
vm1's storage host; ``destroyVM(vm1)`` is then deferred behind ``vm2``.
"""

from repro.common.config import TropicConfig
from repro.core.txn import TransactionState
from repro.testing import ShardedCluster

DESTROY_LOG = ["stopVM", "removeVM", "unimportImage", "unexportImage", "removeImage"]


def _destroy(cluster, vm_host, storage_host):
    return cluster.submit(
        "destroyVM", {"vm_host": vm_host, "vm_name": "vm1", "storage_host": storage_host}
    )


def _step_until(cluster, txn, shard, state):
    for _ in range(20):
        if cluster.stores[shard].load_transaction(txn.txid).state is state:
            return
        for each in cluster.shard_ids:
            cluster.controllers[each].step()
    raise AssertionError(f"{txn.txid} never reached {state}")


def test_a_deferred_destroy_keeps_the_disk_and_retries_with_its_full_log():
    """Red-first: ``removeImage`` had no undo, so the rollback of the
    deferred destroy left ``vm1-disk`` deleted in the model; the retry
    then saw no image, logged no ``removeImage``, and the device kept it."""
    cluster = ShardedCluster(num_shards=1, with_devices=True)
    storage = "/storageRoot/storageHost0"
    cluster.submit_spawn("vm1", vm_host="/vmRoot/vmHost0", storage_host=storage)
    cluster.drain()
    vm2 = cluster.submit_spawn("vm2", vm_host="/vmRoot/vmHost1", storage_host=storage)
    _step_until(cluster, vm2, 0, TransactionState.STARTED)

    destroy = _destroy(cluster, "/vmRoot/vmHost0", storage)
    cluster.controllers[0].step()

    assert cluster.load(destroy).state is TransactionState.DEFERRED
    assert cluster.model(0).exists(f"{storage}/vm1-disk")
    cluster.drain()
    final = cluster.load(destroy)
    assert final.state is TransactionState.COMMITTED
    assert [record.action for record in final.log] == DESTROY_LOG
    assert not cluster.model(0).exists(f"{storage}/vm1-disk")
    assert not cluster.inventory.registry.device_at(storage).has_image("vm1-disk")
    assert cluster.detect_is_clean(0)


def test_a_deferred_destroy_in_the_applied_log_tail_recovers_to_the_live_model():
    """The restart shape: the deferred destroy's retry commits into the
    applied-log tail, and a leader that restarts before any checkpoint
    replays that tail over the bootstrap checkpoint.  The recovered model
    is the live one: no disk comes back, none is removed twice."""
    cluster = ShardedCluster(
        num_shards=1, with_devices=True, config=TropicConfig(checkpoint_every=100_000)
    )
    storage = "/storageRoot/storageHost0"
    cluster.submit_spawn("vm1", vm_host="/vmRoot/vmHost0", storage_host=storage)
    cluster.drain()
    vm2 = cluster.submit_spawn("vm2", vm_host="/vmRoot/vmHost1", storage_host=storage)
    _step_until(cluster, vm2, 0, TransactionState.STARTED)
    destroy = _destroy(cluster, "/vmRoot/vmHost0", storage)
    cluster.controllers[0].step()
    assert cluster.load(destroy).state is TransactionState.DEFERRED
    cluster.drain()
    assert cluster.load(destroy).state is TransactionState.COMMITTED

    controller = cluster.controllers[0]
    assert controller.stats["checkpoints"] == 0
    assert destroy.txid in cluster.stores[0].applied_since(0)
    live = controller.model.to_dict()
    controller.demote()
    controller.recover()
    assert controller.model.to_dict() == live
    assert not controller.model.exists(f"{storage}/vm1-disk")
    assert cluster.detect_is_clean(0)


def test_a_deferred_cross_shard_destroy_removes_the_participants_disk():
    """The cross-shard twin: the disk lives on the other shard, and the
    coordinator's rollback of its simulation must keep the image its
    retry has to remove there."""
    cluster = ShardedCluster(num_shards=2, with_devices=True)
    vm1 = cluster.submit_cross_spawn("vm1", vm_host_index=0)
    cluster.drain()
    home = vm1.coordinator
    storage = vm1.args["storage_host"]
    remote = cluster.shard_of(storage)
    assert remote != home
    vm_hosts = [h for h in cluster.inventory.vm_hosts if cluster.shard_of(h) == home]
    vm2 = cluster.submit_spawn("vm2", vm_host=vm_hosts[1], storage_host=storage)
    _step_until(cluster, vm2, home, TransactionState.STARTED)

    destroy = _destroy(cluster, vm1.args["vm_host"], storage)
    cluster.controllers[home].step()

    assert cluster.load(destroy).state is TransactionState.DEFERRED
    assert cluster.model(home).exists(f"{storage}/vm1-disk")
    cluster.drain()
    final = cluster.load(destroy)
    assert final.state is TransactionState.COMMITTED
    assert [record.action for record in final.log] == DESTROY_LOG
    assert not cluster.model(remote).exists(f"{storage}/vm1-disk")
    assert not cluster.inventory.registry.device_at(storage).has_image("vm1-disk")
    for shard in cluster.shard_ids:
        assert cluster.detect_is_clean(shard)


def test_a_contended_cross_shard_destroy_burst_leaves_no_orphan_image():
    """The contended shape: a burst of cross-shard destroys sharing one
    foreign storage host, behind a single-shard blocker on the oldest
    destroy's compute host, so the aggressive scheduler lets younger
    destroys overtake into PREPARING and the older ones wound them (each
    wound undoes a simulation and RELEASEs a prepared slice).  After the
    drain the participant holds no orphan image, on the model or the
    device, and every shard's live model is what its store recovers to."""
    from repro.core.controller import Controller
    from repro.core.recovery import recover_state

    config = TropicConfig(scheduler_policy="aggressive", checkpoint_every=100_000)
    cluster = ShardedCluster(num_shards=2, with_devices=True, config=config)
    spawns = [cluster.submit_cross_spawn(f"vm{i}", vm_host_index=i % 2) for i in range(6)]
    cluster.drain()
    assert all(cluster.state_of(t) is TransactionState.COMMITTED for t in spawns)
    home = spawns[0].coordinator
    storage = spawns[0].args["storage_host"]
    remote = cluster.shard_of(storage)
    assert {t.coordinator for t in spawns} == {home} and remote != home
    assert {t.args["storage_host"] for t in spawns} == {storage}

    blocker_host = spawns[0].args["vm_host"]
    blocker = cluster.submit_spawn("blocker", vm_host=blocker_host)
    _step_until(cluster, blocker, home, TransactionState.STARTED)

    wounds: list[str] = []
    real_wound = Controller._wound_cross_shard

    def counting_wound(self, txn, by):
        wounds.append(txn.txid)
        return real_wound(self, txn, by)

    Controller._wound_cross_shard = counting_wound
    try:
        destroys = [
            cluster.submit(
                "destroyVM",
                {"vm_host": t.args["vm_host"], "vm_name": t.args["vm_name"],
                 "storage_host": storage},
            )
            for t in spawns
        ]
        # Two passes on the coordinator alone: the oldest destroy defers
        # behind the blocker while a younger one prepares the storage host,
        # then the oldest wounds it.  The drain runs the rest of the burst.
        for _ in range(2):
            cluster.controllers[home].step()
        cluster.drain()
    finally:
        Controller._wound_cross_shard = real_wound

    assert wounds, "the burst never wounded: the contended shape is not exercised"
    assert cluster.controllers[home].stats["deferred"] > 0
    # More slices prepared than destroys committed: wounds released some.
    assert cluster.controllers[remote].stats["cross_shard_prepared"] > len(destroys)
    for txn in destroys:
        final = cluster.load(txn)
        assert final.state is TransactionState.COMMITTED, final.error
        assert [record.action for record in final.log] == DESTROY_LOG
    device = cluster.inventory.registry.device_at(storage)
    for txn in spawns:
        disk = f"{txn.args['vm_name']}-disk"
        assert not cluster.model(remote).exists(f"{storage}/{disk}"), disk
        assert not device.has_image(disk), disk
    for shard in cluster.shard_ids:
        controller = cluster.controllers[shard]
        recovered = recover_state(
            cluster.stores[shard], cluster.schema, cluster.procedures, cluster.config
        )
        assert recovered.model.to_dict() == controller.model.to_dict(), shard
        assert cluster.detect_is_clean(shard)
