"""Leader failover recovery (§2.3, evaluated in §6.4).

Controllers keep state in memory only as a cached copy.  When a follower
takes over, it restores the previous leader's state from the persistent
store:

1. load the latest data-model checkpoint,
2. replay the execution logs of transactions committed since that
   checkpoint (the *applied log*), in commit order,
3. re-apply the logical effects and re-acquire the locks of in-flight
   transactions: STARTED ones, *preparing* two-phase-commit coordinators
   and *prepared* participants (prepared-lock retention: a participant
   that voted yes must hold its locks across restarts until the
   coordinator's decision arrives), and
4. put accepted/deferred transactions back into todoQ.

A cross-shard transaction found mid-protocol needs nothing more: every
message its last commit implied (the coordinator's prepares, a
participant's vote, the decision) is already durable in a peer's inputQ,
because messages commit in the same ``multi`` as the state that sends
them.  A PREPARING coordinator resumes its vote tally; a PREPARED
participant waits for its decision message.

Nothing here repairs a torn commit.  A terminal document, its applied-log
entry, its idempotency-token entry, its decision record and its messages
commit in one ``multi``, so the store holds all of them or none: a
STARTED or PREPARED document is never in the applied log.

Every step is idempotent: the procedure only reads persistent state and the
resulting in-memory state is the same no matter how many times it runs, so
a leader can fail at any point without losing submitted transactions.

The same checkpoint/log readers back the per-shard read replicas
(:mod:`repro.core.replica`); failover semantics are documented in
``docs/architecture.md#failover-and-recovery`` and the operational
expectations in ``docs/operations.md#failover-expectations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.config import TropicConfig
from repro.common.errors import RecoveryError, UnknownPathError
from repro.core.locks import LockManager
from repro.core.persistence import TropicStore
from repro.core.procedures import ProcedureRegistry
from repro.core.scheduler import TodoQueue
from repro.core.simulation import LogicalExecutor
from repro.core.txn import Transaction, TransactionState
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel


def _check_shard_stamp(store: TropicStore) -> None:
    """Refuse to recover from a checkpoint written under another shard
    layout (see :class:`~repro.core.persistence.TropicStore`)."""
    if store.shard_id is None:
        return
    meta = store.kv.get(store.CHECKPOINT_META)
    stamp = (meta or {}).get("shard")
    if not stamp:
        return  # pre-sharding checkpoint (or single-shard legacy layout)
    if (int(stamp.get("shard_id", -1)), int(stamp.get("num_shards", -1))) != (
        store.shard_id,
        store.num_shards,
    ):
        raise RecoveryError(
            f"checkpoint was written by shard {stamp.get('shard_id')} of "
            f"{stamp.get('num_shards')} but this controller is shard "
            f"{store.shard_id} of {store.num_shards}; refusing to recover "
            f"across a shard-layout change"
        )


def replay_committed(
    store: TropicStore, executor: LogicalExecutor, from_seq: int
) -> tuple[list[dict[str, Any]], list[str]]:
    """Apply the execution logs of transactions committed after ``from_seq``
    (per the applied log), in commit order.

    This is the one replayable reader of the committed-transaction stream:
    leader failover (below) and per-shard read replicas
    (:class:`repro.core.replica.ReadReplica`) both rebuild a model as
    *checkpoint + this replay*, so their views can never diverge by
    construction.  Returns ``(records, replayed_txids)``: ``records`` are
    the applied-log records read, in commit order — every entry after
    ``from_seq``, even one whose document is unreadable — so a caller
    needs no second read of the tail, and ``replayed_txids`` are those
    whose logs were applied.
    """
    records = store.applied_records(from_seq)
    docs = store.load_transactions(record["txid"] for record in records)
    replayed: list[str] = []
    for record in records:
        txn = docs.get(record["txid"])
        if txn is None:
            continue
        executor.apply_log(txn.log)
        replayed.append(txn.txid)
    return records, replayed


#: States whose simulated effects and locks recovery restores: dispatched
#: transactions, 2PC coordinators whose prepares are out, and prepared
#: participants.
_IN_FLIGHT = (
    TransactionState.STARTED,
    TransactionState.PREPARING,
    TransactionState.PREPARED,
)


@dataclass
class RecoveredState:
    """In-memory controller state rebuilt from the persistent store."""

    model: DataModel
    lock_manager: LockManager
    todo: TodoQueue
    outstanding: dict[str, Transaction]
    #: ``applied_seq`` of the checkpoint the model was rebuilt from.
    checkpoint_seq: int = 0
    replayed_committed: list[str] = field(default_factory=list)


def recover_state(
    store: TropicStore,
    schema: ModelSchema,
    procedures: ProcedureRegistry,
    config: TropicConfig,
) -> RecoveredState:
    """Rebuild the leader's soft state from the coordination store.

    In a sharded deployment each shard recovers from its own namespaced
    store, so this replays only the failed shard's transaction log and
    checkpoint documents.  A checkpoint stamped for a different shard
    layout is refused: re-routing subtrees between lock domains behind a
    recovering leader's back would break isolation silently.
    """
    _check_shard_stamp(store)
    # The persisted fenced set is authoritative: a fence the checkpoint
    # carries but a later repair lifted does not come back.
    fenced = store.load_inconsistent_paths()
    checkpoint_model, checkpoint_seq = store.load_checkpoint(fenced)
    model = checkpoint_model if checkpoint_model is not None else DataModel()
    executor = LogicalExecutor(model, schema, procedures)

    # Step 2: replay committed transactions since the checkpoint, in order
    # (the same reader the read replicas tail; see replay_committed).
    _, replayed = replay_committed(store, executor, checkpoint_seq)

    # Steps 3-4: rebuild in-flight state.
    lock_manager = LockManager()
    todo = TodoQueue(config.scheduler_policy)
    outstanding: dict[str, Transaction] = {}

    transactions = sorted(store.load_all_transactions(), key=lambda t: t.txid)
    for txn in transactions:
        if txn.state in (TransactionState.ACCEPTED, TransactionState.DEFERRED):
            todo.push_back(txn)
        elif txn.state in _IN_FLIGHT:
            executor.apply_log(txn.log)
            # Lock retention: grants the failed leader already made (to
            # dispatched transactions, to coordinators whose prepares are
            # out and to 2PC participants that voted yes) survive the
            # failover.
            lock_manager.reacquire(txn.txid, txn.rwset)
            outstanding[txn.txid] = txn

    # Restore the fences set since the checkpoint (§4).
    for path in fenced:
        try:
            model.mark_inconsistent(path)
        except UnknownPathError:
            continue

    return RecoveredState(
        model=model,
        lock_manager=lock_manager,
        todo=todo,
        outstanding=outstanding,
        checkpoint_seq=checkpoint_seq,
        replayed_committed=replayed,
    )
