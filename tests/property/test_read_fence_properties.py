"""Property tests for cross-shard-atomic replica reads (PR 7).

Hypothesis drives arbitrary interleavings of controller and worker steps
through a cross-shard 2PC commit while fenced replica reads are taken,
and asserts the read-side atomicity invariant at *every* intermediate
state: no fenced set of replica models ever contains exactly one
participant's half of the transaction.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import TropicConfig
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.readfence import fence_replica_sources
from repro.core.replica import ReadReplica
from repro.core.txn import TransactionState
from repro.testing import ShardedCluster

#: One interleaving step: (component, shard).
_step = st.tuples(st.sampled_from(["controller", "worker"]), st.sampled_from([0, 1]))

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _cluster() -> ShardedCluster:
    return ShardedCluster(
        num_shards=2,
        cross_shard_policy="2pc",
        config=TropicConfig(checkpoint_every=100_000),
    )


def _replicas(cluster: ShardedCluster) -> dict[int, ReadReplica]:
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


def _apply_step(cluster: ShardedCluster, step: tuple[str, int]) -> None:
    component, shard = step
    if component == "controller":
        cluster.controllers[shard].step()
    else:
        cluster.workers[shard].step()


def _fenced_models(cluster, replicas):
    """Refresh + fence, then return the per-shard models a fenced fleet
    view would merge (rewound forks where the fence cut, degraded shards
    omitted — they are outside the atomicity domain by contract)."""
    for replica in replicas.values():
        replica.refresh(force=True)
    result = fence_replica_sources(replicas, set(), cluster.twopc)
    models = {}
    for shard, replica in replicas.items():
        if shard in result.degraded:
            continue
        models[shard] = replica.model(refresh=False)
    return models


def _halves(cluster, txn):
    vm_host, storage_host = txn.args["vm_host"], txn.args["storage_host"]
    name = txn.args["vm_name"]
    return (
        (cluster.router.shard_of(vm_host), f"{vm_host}/{name}"),
        (cluster.router.shard_of(storage_host), f"{storage_host}/{name}-disk"),
    )


@settings(**_SETTINGS)
@given(st.lists(_step, min_size=0, max_size=40))
def test_fenced_replica_reads_are_atomic_at_every_interleaving(plan):
    cluster = _cluster()
    replicas = _replicas(cluster)  # live-tailing: rewindable barriers
    txn = cluster.submit_cross_spawn("xprop")
    (vm_shard, vm_path), (img_shard, image_path) = _halves(cluster, txn)
    for step in plan:
        _apply_step(cluster, step)
        models = _fenced_models(cluster, replicas)
        if vm_shard in models and img_shard in models:
            vm_there = models[vm_shard].exists(vm_path)
            image_there = models[img_shard].exists(image_path)
            assert vm_there == image_there, (
                f"torn after {step}: vm={vm_there} image={image_there}"
            )
    cluster.drain()
    models = _fenced_models(cluster, replicas)
    committed = cluster.state_of(txn) is TransactionState.COMMITTED
    assert models[vm_shard].exists(vm_path) is committed
    assert models[img_shard].exists(image_path) is committed
