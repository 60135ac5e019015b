"""Property test: tokened submission is exactly-once under any crash plan.

Hypothesis interleaves controller crashes at arbitrary failure points
with client-side re-drives of the same idempotency tokens — including
the ambiguous crash-between-commit-and-ack window and re-drives *after*
the transaction already finished — and asserts the exactly-once
contract: one token maps to exactly one transaction, that transaction
reaches exactly one terminal state, and a committed spawn is applied to
the model exactly once (the applied log names its txid at most once).

This is the client half of the fault-tolerance story (the chaos soak in
``tests/integration/test_chaos.py`` is the systems half): a retry driven
by :mod:`repro.common.retry` after an ambiguous failure must never
double-apply, because the token→txid index — persisted in the same group
commit as the transaction document, and rebuilt from the committed log on
recovery — resolves every re-drive to the original transaction.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import TropicConfig
from repro.core.submission import submit_batch
from repro.core.txn import TransactionState
from repro.testing import (
    FAILURE_POINTS,
    CrashPoint,
    FaultInjector,
    ShardedCluster,
)

_NUM_OPS = 4

#: A crash plan entry: (failure point, extra-occurrence offset), so plans
#: can crash on the first hit of a point or let a few pass first.
_crash = st.tuples(st.sampled_from(FAILURE_POINTS), st.integers(0, 2))


def _submit_tokened(cluster: ShardedCluster, token: str, index: int) -> str:
    """Tokened submit through the platform's submission protocol: a token
    seen before re-drives the original transaction."""
    args = {
        "vm_name": f"vm{index}",
        "image_template": "template-small",
        "storage_host": cluster.inventory.storage_host_for(0),
        "vm_host": cluster.inventory.vm_hosts[0],
        "mem_mb": 256,
    }
    (entry,) = submit_batch(
        cluster.router, cluster.endpoint, [("spawnVM", args)], [token], 0.0
    )
    return entry.txid


def _drive(cluster: ShardedCluster, injector: FaultInjector, plan: list) -> None:
    consumed = 0
    for _ in range(5_000):
        progressed = False
        try:
            if cluster.controllers[0].step():
                progressed = True
        except CrashPoint:
            consumed += 1
            # A fresh replica takes over.  It is re-wired with the fault
            # hooks only when another plan entry remains (arming revives
            # the dead injector); otherwise the successor must be clean —
            # a dead injector swallows queue acks, modelling the dead
            # process, and would wedge a faulty-but-never-armed leader.
            rearm = consumed < len(plan)
            cluster.controllers[0] = cluster.new_controller(0, faulty=rearm)
            if rearm:
                point, offset = plan[consumed]
                injector.arm(point, injector.hits(point) + offset)
            progressed = True
        if cluster.workers[0].step():
            progressed = True
        if not progressed and cluster.queues_empty():
            return
    raise AssertionError("cluster did not quiesce under the crash plan")


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(_crash, min_size=0, max_size=3),
    st.lists(st.integers(0, _NUM_OPS - 1), min_size=0, max_size=6),
)
def test_tokened_retries_apply_exactly_once(plan, retry_indices):
    injector = FaultInjector()
    cluster = ShardedCluster(
        num_shards=1,
        config=TropicConfig(checkpoint_every=2),
        injector=injector,
        faulty_shards=(0,) if plan else (),
    )
    if plan:
        point, offset = plan[0]
        injector.arm(point, injector.hits(point) + offset)

    tokens = {i: f"tok-{i}" for i in range(_NUM_OPS)}
    txids = {i: {_submit_tokened(cluster, tokens[i], i)} for i in range(_NUM_OPS)}
    # Interleave mid-flight re-drives (the client's view: an ambiguous
    # failure happened, retry with the same token) with execution.
    for index in retry_indices:
        _drive(cluster, injector, plan)
        txids[index].add(_submit_tokened(cluster, tokens[index], index))
    _drive(cluster, injector, plan)
    # Post-drain re-drives: every token retried once more after its
    # transaction finished must resolve to the same txid, not a new one.
    for index in range(_NUM_OPS):
        txids[index].add(_submit_tokened(cluster, tokens[index], index))
    _drive(cluster, injector, plan)

    store = cluster.stores[0]
    applied = [txid for _, txid in store.applied_entries(0)]
    for index in range(_NUM_OPS):
        # Exactly one transaction per token, however many times it was
        # submitted, crashed over, and re-driven.
        assert len(txids[index]) == 1, (tokens[index], txids[index])
        txid = next(iter(txids[index]))
        entry = store.lookup_token(tokens[index])
        assert entry is not None and entry["txid"] == txid
        doc = store.load_transaction(txid)
        assert doc is not None and doc.is_terminal
        # Applied exactly once: the applied log never names a txid twice.
        assert applied.count(txid) <= 1
        if doc.state is TransactionState.COMMITTED:
            assert cluster.model(0).exists(f"/vmRoot/vmHost0/vm{index}")

    # Every acked outcome is stable and nothing is left in flight.
    for acked in cluster.acked:
        assert cluster.state_of(acked) is acked.state
    assert cluster.controllers[0].outstanding == {}
    assert cluster.controllers[0].lock_manager.active_transactions() == set()
