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
    "wound-without-decision",
    "ack-before-flush",
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
        "set",
        "put",
        "put_serialized",
        "put_many",
        "delete",
        "delete_if_exists",
        "create",
        "exists",
        "get_children",
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
        "save_checkpoint_incremental",
        "truncate_applied",
        "present",
        "signal_of",
        "watch_signals",
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
# wound-without-decision
# ---------------------------------------------------------------------------

#: Function-name marker selecting wound-wait handlers (anything whose
#: name mentions wounding participates in the abort-a-prepare protocol).
WOUND_FUNCTION_MARKER = "wound"

#: Lock-release terminals that complete a wound: once these run, the
#: victim's prepare-phase locks are gone.
WOUND_RELEASE_TERMINALS = frozenset({"release_all"})

#: The durable-decision call that must precede any release in a wound
#: handler — terminal name plus the chain segment marking the receiver
#: as the 2PC decision log.
WOUND_DECISION_TERMINAL = "decide"
WOUND_DECISION_BASES = frozenset({"twopc"})

#: Modules exempt from wound-without-decision: test harnesses wound
#: through spies, and the analyzer itself.
WOUND_EXEMPT_MODULE_PREFIXES = ("repro.testing", "repro.analysis")

# ---------------------------------------------------------------------------
# ack-before-flush
# ---------------------------------------------------------------------------

#: Post-durability effect calls of the controller's group-commit step:
#: inputQ acknowledgements, phyQ dispatches and 2PC fan-out.  Each
#: presupposes that the state it reveals (terminal documents, STARTED
#: records, decision records) is already durable, so within a function
#: the effect must be *dominated* by a covering commit — or carry a
#: waiver naming the out-of-function commit that covers it.
ACK_EFFECT_TERMINALS = frozenset({"ack", "ack_many"})
ACK_EFFECT_BASES = frozenset({"input_queue"})

DISPATCH_EFFECT_TERMINALS = frozenset({"put", "put_many"})
DISPATCH_EFFECT_BASES = frozenset({"phy_queue"})

FANOUT_EFFECT_TERMINALS = frozenset({"_send_peer", "_send_outbound"})

#: Calls that make the pending batch durable before the effect: a
#: store/kv ``flush`` or the step's ``store.commit_batches``.
DURABLE_FLUSH_TERMINALS = frozenset({"flush", "commit_batches"})
DURABLE_FLUSH_BASES = frozenset({"store", "kv"})

#: Modules exempt from ack-before-flush: the coordination layer
#: implements the queue primitives themselves, harnesses drive faults
#: single-threaded, and the analyzer is not a protocol participant.
ACK_EXEMPT_MODULE_PREFIXES = (
    "repro.coordination",
    "repro.testing",
    "repro.analysis",
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
