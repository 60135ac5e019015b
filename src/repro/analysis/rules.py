"""Rule configuration: what counts as blocking, funnels, the txn machine.

This module is deliberately plain data so the invariant catalog in
``docs/development.md#the-invariant-catalog`` and the checker
implementations cannot drift silently: tests assert every rule id here
is documented there.
"""

from __future__ import annotations

from repro.core.txn import TXN_TRANSITIONS as _STATE_EDGES

#: Every rule id the analyzer can emit (checkers + lock graph).
ALL_RULES = (
    "lock-order-cycle",
    "lock-self-deadlock",
    "lock-name-mismatch",
    "blocking-under-lock",
    "cow-funnel",
    "kv-write-outside-funnel",
    "txn-state-direct-assign",
    "txn-state-invalid-transition",
    "transient-swallowed",
    "waiver-missing-justification",
)

# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------

#: Classes whose (public) methods charge coordination round-trips — the
#: primitive "this call can block on the network/quorum" set.  Anything
#: that transitively reaches one through the resolved call graph is
#: itself considered blocking.
COORDINATION_CLASSES = frozenset(
    {"CoordinationClient", "CoordinationEnsemble"}
)

#: Pattern fallback for chains the resolver cannot type: a terminal RPC
#: name called on a base strongly associated with the coordination layer
#: (``self.client.get_data(...)``, ``kv.put(...)``).
RPC_TERMINALS = frozenset(
    {
        "get",
        "get_data",
        "get_many",
        "set",
        "put",
        "put_serialized",
        "put_many",
        "delete",
        "delete_if_exists",
        "create",
        "exists",
        "get_children",
        "add_child_watch",
        "multi",
        "upsert",
        "ensure_path",
        "heartbeat",
        "reconnect",
        "watch",
        "watch_children",
        "keys",
        "items",
        "take_many",
        "ack",
        "ack_many",
        "flush",
        "load_checkpoint",
        "applied_entries",
        "applied_records",
        "applied_seq",
        "save_transaction",
        "load_transaction",
        "load_transactions",
        "save_checkpoint_incremental",
        "truncate_applied",
        "present",
        "signal_of",
    }
)

#: Chain segments that mark the receiver as a coordination-layer object.
RPC_BASES = frozenset(
    {
        "client",
        "kv",
        "ensemble",
        "store",
        "input_queue",
        "phy_queue",
        "queue",
        "signals",
        "election",
        "election_client",
        "twopc",
    }
)

#: Terminal names that block the calling thread irrespective of receiver
#: (scheduler waits, thread joins, time/clock sleeps, txn waits).
BLOCKING_TERMINALS = frozenset({"sleep", "wait", "wait_for", "join"})

#: Modules exempt from blocking-under-lock: the testing/chaos harnesses
#: exercise faults from a single driver thread, and the analyzer itself.
BLOCKING_EXEMPT_MODULE_PREFIXES = ("repro.testing", "repro.analysis")

# ---------------------------------------------------------------------------
# cow-funnel
# ---------------------------------------------------------------------------

#: Node-mutating attribute accesses that are only safe on a subtree
#: claimed through ``get_for_write``/``promote_subtree``.
NODE_MUTATORS = frozenset(
    {"add_child", "remove_child", "promote_subtree", "set"}
)

#: Read-funnel calls that yield a *shared* (possibly snapshot-visible)
#: node: mutating their result bypasses copy-on-write ownership.
MODEL_READ_CALLS = frozenset({"get", "node", "ensure"})

#: Mutating methods on a shared node's ``attrs``/``children`` dicts;
#: plain reads (``values()``, ``items()``, ``get()``) are snapshot-safe.
MUTATING_CONTAINER_METHODS = frozenset(
    {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
)

#: Modules allowed to touch nodes directly: the data model implements
#: the funnel, and the checkpoint reader materialises fresh trees that
#: no snapshot can share yet.
COW_EXEMPT_MODULE_PREFIXES = (
    "repro.datamodel",
    "repro.analysis",
)

# ---------------------------------------------------------------------------
# kv-write-outside-funnel
# ---------------------------------------------------------------------------

#: KVStore write methods (group-commit participants).
KV_WRITE_TERMINALS = frozenset({"put", "put_serialized", "delete"})

#: Modules that *are* the persistence funnel: TropicStore and the 2PC
#: decision log own their documents; the coordination package is the
#: store implementation itself.
KV_FUNNEL_MODULE_PREFIXES = (
    "repro.core.persistence",
    "repro.core.twopc",
    "repro.coordination",
    "repro.analysis",
)

# ---------------------------------------------------------------------------
# txn-state machine (docs/development.md#the-invariant-catalog)
# ---------------------------------------------------------------------------

#: The transaction state machine, as names: the table itself lives next
#: to ``Transaction.mark`` (which refuses any other edge at run time).  A
#: guarded ``mark(TransactionState.B)`` under an ``if txn.state is
#: TransactionState.A`` test must be one of these edges.
TXN_TRANSITIONS = frozenset((a.name, b.name) for a, b in _STATE_EDGES)

#: Functions allowed to assign ``.state`` directly (the machine's own
#: primitives and deserialisation).
TXN_STATE_ASSIGN_ALLOWED = frozenset(
    {"Transaction.mark", "Transaction.from_dict"}
)

# ---------------------------------------------------------------------------
# transient-swallowed
# ---------------------------------------------------------------------------

#: The PR 6 TRANSIENT taxonomy plus the catch-alls that hide it.
SWALLOWABLE_EXCEPTION_NAMES = frozenset(
    {
        "Exception",
        "BaseException",
        "SessionExpiredError",
        "QuorumLostError",
        "NotLeaderError",
        "ConnectionError",
    }
)

#: Calls in a handler that mean the error is being *classified* (or
#: handled by the documented TRANSIENT response — healing/re-entering
#: the coordination session) rather than swallowed.
CLASSIFIER_CALLS = frozenset(
    {"classify", "is_retryable", "record_failure", "_recover_session", "_heal_sessions"}
)
