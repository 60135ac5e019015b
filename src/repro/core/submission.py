"""Step 1 of Figure 2: make client requests durable, then enqueue them.

A request becomes an INITIALIZED transaction document in its owning
shard's store *before* its request message reaches that shard's inputQ,
so a controller never takes a request whose document it cannot load
(§2.3).  An idempotency token's token→txid record rides the same group
commit as its document, so a crash can never leave a document a retry
cannot find by its token; a retry with an already-seen token resumes the
original transaction instead of creating a second one.

:func:`submit_batch` is the one implementation of that protocol: the
platform's ``submit`` / ``submit_many`` and the test harnesses
(:class:`~repro.testing.cluster.ShardedCluster`, the chaos scenarios) all
submit through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.coordination.queue import DistributedQueue
from repro.core.events import request_message
from repro.core.persistence import TropicStore
from repro.core.sharding import ShardRouter
from repro.core.txn import Transaction, TransactionState

#: ``endpoint(shard) -> (store, inputQ)`` of a shard the caller may write
#: to; raising (e.g. :class:`~repro.common.errors.ShardNotLocalError`)
#: refuses the request before anything of it is persisted.
Endpoint = Callable[[int], tuple[TropicStore, DistributedQueue]]


@dataclass(frozen=True)
class Submitted:
    """Where one request went: the new transaction, or the one its token
    already named (``txn is None``)."""

    txid: str
    shard: int
    txn: Transaction | None = None

    @property
    def resumed(self) -> bool:
        return self.txn is None


def submit_batch(
    router: ShardRouter,
    endpoint: Endpoint,
    requests: list[tuple[str, dict[str, Any] | None]],
    tokens: list[str | None],
    now: float,
) -> list[Submitted]:
    """Persist and enqueue ``requests`` (one ``tokens`` entry each).

    Every request is routed to the shard owning its argument paths; one
    spanning shards is stamped with its 2PC coordinator and provisional
    participant set (the coordinator recomputes the authoritative set
    from the simulated read/write set at prepare time).  A token seen
    before resumes its transaction, re-enqueueing the request while the
    document is non-terminal: the first attempt may have died between
    its commit and its enqueue, and a duplicate request is harmless
    because the controller accepts only INITIALIZED documents.  Per
    shard, the new documents and token records go out in one group
    commit and their request messages in one queue write.
    """
    results: list[Submitted] = []
    fresh: dict[int, list[Transaction]] = {}
    for (procedure, args), token in zip(requests, tokens):
        decision = router.plan(procedure, args)
        store, queue = endpoint(decision.shard)
        if token is not None:
            entry = store.lookup_token(token)
            if entry is not None:
                txid = entry["txid"]
                doc = store.load_transaction(txid)
                if doc is not None and not doc.is_terminal:
                    queue.put(request_message(txid))
                results.append(Submitted(txid, decision.shard))
                continue
        txn = Transaction(
            procedure=procedure, args=dict(args or {}), idempotency_token=token
        )
        if decision.cross_shard:
            txn.coordinator = decision.shard
            txn.participants = sorted(decision.shards)
        txn.mark(TransactionState.INITIALIZED, now)
        fresh.setdefault(decision.shard, []).append(txn)
        results.append(Submitted(txn.txid, decision.shard, txn))
    for shard, txns in fresh.items():
        store, queue = endpoint(shard)
        with store.kv.batch():
            for txn in txns:
                store.save_transaction(txn)
                if txn.idempotency_token is not None:
                    store.record_token(txn.idempotency_token, txn.txid, txn.state.value)
        queue.put_many([request_message(txn.txid) for txn in txns])
    return results
