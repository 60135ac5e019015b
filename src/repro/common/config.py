"""Platform-wide configuration.

A single :class:`TropicConfig` object is threaded through the platform so
experiments can tune timing (heartbeats, session and stall timeouts),
concurrency (worker count), sharding and mode (logical-only) from one
place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass
class TropicConfig:
    """Configuration knobs for a TROPIC deployment.

    Attributes
    ----------
    num_controllers:
        Number of controller replicas (leader + followers), §2.3.
    num_workers:
        Number of physical-worker threads, §3.2.
    logical_only:
        Bypass physical device API calls (§5); used by the performance
        benchmarks to explore large resource scales.
    heartbeat_interval:
        Coordination session heartbeat period in seconds.  Failover
        detection time — and hence recovery time (§6.4) — is dominated by
        ``session_timeout``.
    session_timeout:
        Coordination session timeout in seconds.
    txn_timeout:
        Per-transaction stall timeout in seconds before the platform raises
        a TERM signal (§4).  ``0`` disables the watchdog.
    scheduler_policy:
        ``"fifo"`` (paper default) or ``"aggressive"`` (the future-work
        policy of §3.1.1 that schedules past a conflicting head-of-queue
        transaction).
    num_shards:
        Number of controller shards the data-model tree is partitioned
        over.  Each shard runs its own leader election, inputQ/phyQ, lock
        domain and checkpoint namespace; ``1`` (default) reproduces the
        paper's single-controller deployment exactly.
    prepare_timeout:
        Deadline in seconds for the prepare phase of a cross-shard
        two-phase commit.  A coordinator still ``PREPARING`` past the
        deadline (e.g. a participant shard is down and not failing over)
        presumed-aborts the transaction and releases its prepare-phase
        locks, unblocking the transactions contending with it (wound-wait
        handles live contention; the deadline handles a dead participant).
        ``0`` (default) disables the deadline: a stuck prepare is
        then resolved only by the participant shard's failover.
    cross_shard_policy:
        What to do with a transaction whose paths span several shards:
        ``"2pc"`` (default: two-phase commit across the shard leaders,
        coordinated by the lowest involved shard) or ``"reject"`` (refuse
        it at submit time, so no transaction spans shards).  See
        :mod:`repro.core.sharding` and :mod:`repro.core.twopc`.
    checkpoint_every:
        Number of applied transactions between data-model checkpoints
        written to persistent storage.
    queue_poll_interval:
        Poll period of the controller/worker service loops in seconds.
    coordination_latency:
        Simulated latency of each coordination-store operation in seconds
        (the paper identifies ZooKeeper I/O as the dominant overhead).
    """

    num_controllers: int = 3
    num_workers: int = 1
    logical_only: bool = False
    heartbeat_interval: float = 0.05
    session_timeout: float = 0.5
    txn_timeout: float = 0.0
    scheduler_policy: str = "fifo"
    num_shards: int = 1
    cross_shard_policy: str = "2pc"
    prepare_timeout: float = 0.0
    checkpoint_every: int = 64
    queue_poll_interval: float = 0.002
    coordination_latency: float = 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.num_controllers < 1:
            raise ValueError("num_controllers must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.scheduler_policy not in ("fifo", "aggressive"):
            raise ValueError(f"unknown scheduler_policy {self.scheduler_policy!r}")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.cross_shard_policy not in ("2pc", "reject"):
            raise ValueError(f"unknown cross_shard_policy {self.cross_shard_policy!r}")
        if self.prepare_timeout < 0:
            raise ValueError("prepare_timeout must be >= 0 (0 disables)")
        if self.session_timeout <= self.heartbeat_interval:
            raise ValueError("session_timeout must exceed heartbeat_interval")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def with_overrides(self, **kwargs: Any) -> "TropicConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
