"""Exception hierarchy for the TROPIC reproduction.

Every exception raised by the library derives from :class:`ReproError` so
that callers can distinguish library failures from programming errors.
The hierarchy mirrors the major failure classes in the paper:

* constraint violations (safety, §2.1 / §3.1.2),
* lock conflicts (concurrency, §3.1.3),
* transaction aborts and failures (robustness, §3.2),
* coordination/storage errors (high availability, §2.3),
* device errors and cross-layer inconsistencies (volatility, §4).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent options."""


class DataModelError(ReproError):
    """Invalid operation on the hierarchical data model (bad path, duplicate
    child, unknown entity type, ...)."""


class UnknownPathError(DataModelError):
    """A path does not resolve to a node in the data model."""


class ConstraintViolation(ReproError):
    """A safety constraint was violated during logical simulation.

    Attributes
    ----------
    constraint:
        Name of the violated constraint.
    path:
        Path of the node on which the constraint is defined.
    """

    def __init__(self, message: str, constraint: str = "", path: str = ""):
        super().__init__(message)
        self.constraint = constraint
        self.path = path


class LockConflict(ReproError):
    """A transaction's lock request conflicts with an outstanding transaction."""

    def __init__(self, message: str, path: str = "", holder: str = ""):
        super().__init__(message)
        self.path = path
        self.holder = holder


class ProcedureError(ReproError):
    """A stored procedure raised an application-level error during simulation."""


class TransactionAborted(ReproError):
    """The transaction was aborted; the logical and physical layers were rolled
    back (no effect)."""

    def __init__(self, message: str, txid: str = "", reason: str = ""):
        super().__init__(message)
        self.txid = txid
        self.reason = reason


class TransactionFailed(ReproError):
    """The transaction failed: an undo action failed during physical rollback,
    leaving a cross-layer inconsistency (§3.2)."""

    def __init__(self, message: str, txid: str = ""):
        super().__init__(message)
        self.txid = txid


class TxnTimeout(ReproError, TimeoutError):
    """A submitted transaction did not reach a terminal state within its
    deadline (``config.txn_timeout`` or the caller's wait timeout).

    The outcome is *ambiguous*: the transaction may still commit after the
    caller gave up (e.g. the leader is mid-failover).  A blind resubmit may
    therefore double-apply; the retry policy only re-drives a ``TxnTimeout``
    when the submission carried an idempotency token (see
    ``repro.common.retry.classify``).

    Also subclasses the builtin :class:`TimeoutError` so callers that
    predate the typed error (``except TimeoutError``) keep working.
    """

    def __init__(self, message: str, txid: str = ""):
        super().__init__(message)
        self.txid = txid


class CoordinationError(ReproError):
    """The coordination (ZooKeeper-like) service could not serve a request."""


class QuorumLostError(CoordinationError):
    """Fewer than a majority of coordination servers are reachable."""


class SessionExpiredError(CoordinationError):
    """The client's coordination session expired (missed heartbeats)."""


class NoNodeError(CoordinationError):
    """The requested znode does not exist."""


class NodeExistsError(CoordinationError):
    """A znode already exists at the requested path."""


class BadVersionError(CoordinationError):
    """Conditional update failed because the znode version did not match."""


class NotEmptyError(CoordinationError):
    """A znode with children cannot be deleted."""


class DeviceError(ReproError):
    """A physical device API call failed (injected fault or invalid request)."""

    def __init__(self, message: str, device: str = "", action: str = ""):
        super().__init__(message)
        self.device = device
        self.action = action


class DeviceTimeout(DeviceError):
    """A device API call did not complete within its deadline."""


class InconsistencyError(ReproError):
    """The logical and physical layers disagree for a subtree and the subtree
    has been fenced off until reconciliation (§4)."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class NotLeaderError(ReproError):
    """A controller that is not the current leader was asked to execute
    leader-only work."""


class RecoveryError(ReproError):
    """Leader failover could not restore controller state."""


class CrossShardTransaction(ReproError):
    """A submitted transaction addresses subtrees owned by more than one
    controller shard and the deployment's cross-shard policy is ``reject``.

    Attributes
    ----------
    shards:
        Sorted indices of the shards the transaction would span.
    """

    def __init__(self, message: str, shards: list[int] | None = None):
        super().__init__(message)
        self.shards = list(shards or [])


class ShardUnavailable(ReproError):
    """A fleet read found no source for any shard.

    ``TropicPlatform.fleet_view`` raises this when no shard has a
    reachable leader or a bootstrapped read replica, rather than serve a
    view built only from this process's bootstrap-frozen copy.  The
    gateway maps it to a retryable ``Unavailable``.

    Attributes
    ----------
    shards:
        Sorted indices of the shards read without a leader.
    """

    def __init__(self, message: str, shards: list[int] | None = None):
        super().__init__(message)
        self.shards = list(shards or [])


class ShardNotLocalError(ConfigurationError):
    """A request was routed to a shard this process does not host (the
    deployment runs with ``local_shards`` restricted, e.g. one shard per
    process); resubmit against the process hosting the owning shard."""

    def __init__(self, message: str, shard: int = -1):
        super().__init__(message)
        self.shard = shard
