"""A deferred transaction's rollback undoes every action it simulated.

A lock conflict defers a simulated transaction (Figure 2, 3B): the
controller replays the undos of its execution log and re-simulates it
later.  Every action has an undo, so the model after the rollback is the
model before the simulation, and the retry logs every action again.  The
shape: ``vm1`` is committed on vmHost0; ``vm2`` is outstanding and holds
vm1's storage host; ``destroyVM(vm1)`` is then deferred behind ``vm2``.
"""

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
