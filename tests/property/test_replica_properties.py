"""Property test for the read replica's tail: each commit applied once.

Hypothesis interleaves spawns, quiesce-point checkpoints (which truncate
the applied log) and replica refreshes in any order.  Whatever mix of
catch-ups and re-bootstraps that forces, the replica's watermark never
moves backwards and, once refreshed, its model equals the leader's: no
commit is lost and none is applied twice.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import TropicConfig
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.replica import ReadReplica
from repro.testing import ShardedCluster

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: One step: spawn on host 0..3, checkpoint, or refresh the replica.
_op = st.sampled_from(["spawn0", "spawn1", "spawn2", "spawn3", "checkpoint", "refresh"])


@settings(**_SETTINGS)
@given(st.lists(_op, max_size=16))
def test_replica_converges_on_the_leader_under_any_checkpoint_schedule(ops):
    cluster = ShardedCluster(num_shards=1, config=TropicConfig(checkpoint_every=100_000))
    cluster.drain()  # the leader loads its model on its first step
    store = TropicStore(KVStore(cluster.client, "/tropic/store/shard-0"))
    replica = ReadReplica(store, cluster.schema, cluster.procedures)
    replica.model()
    watermark = replica.applied_txn
    for index, op in enumerate(ops):
        if op.startswith("spawn"):
            cluster.submit_spawn(f"vm{index}", host_index=int(op[-1]))
            cluster.drain()
        elif op == "checkpoint":
            assert cluster.controllers[0].checkpoint()
        else:
            replica.refresh()
        assert replica.applied_txn >= watermark
        watermark = replica.applied_txn
    replica.refresh()
    assert replica.applied_txn == cluster.stores[0].applied_seq()
    assert replica.model(refresh=False).to_dict() == cluster.model(0).to_dict()
