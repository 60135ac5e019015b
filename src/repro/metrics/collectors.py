"""Runtime measurement collectors used by the benchmark harness."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

from repro.common import retry
from repro.datamodel.tree import DataModel


@dataclass
class StoreIOSnapshot:
    """Point-in-time coordination-store I/O counters.

    Captures the write-path instrumentation added for the group-commit
    subsystem: total operations, read/write round-trips (a ``multi`` group
    commit counts as one write round-trip), multi-op batching volume, and
    bytes accepted by the store.  Use :meth:`delta` to measure a workload
    interval and :meth:`per_commit` to normalise by committed transactions.
    """

    ops: int = 0
    reads: int = 0
    writes: int = 0
    multi_commits: int = 0
    multi_sub_ops: int = 0
    bytes_written: int = 0

    @classmethod
    def capture(cls, ensemble: Any) -> "StoreIOSnapshot":
        """Snapshot the counters of a coordination ensemble."""
        stats = ensemble.io_stats()
        return cls(
            ops=stats["ops"],
            reads=stats["reads"],
            writes=stats["writes"],
            multi_commits=stats["multi_commits"],
            multi_sub_ops=stats["multi_sub_ops"],
            bytes_written=stats["bytes_written"],
        )

    def delta(self, since: "StoreIOSnapshot") -> "StoreIOSnapshot":
        return StoreIOSnapshot(
            ops=self.ops - since.ops,
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            multi_commits=self.multi_commits - since.multi_commits,
            multi_sub_ops=self.multi_sub_ops - since.multi_sub_ops,
            bytes_written=self.bytes_written - since.bytes_written,
        )

    def per_commit(self, committed: int) -> dict[str, float]:
        denom = max(committed, 1)
        return {
            "ops_per_commit": self.ops / denom,
            "writes_per_commit": self.writes / denom,
            "bytes_per_commit": self.bytes_written / denom,
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "multi_commits": self.multi_commits,
            "multi_sub_ops": self.multi_sub_ops,
            "bytes_written": self.bytes_written,
        }


@dataclass
class ResilienceCounters:
    """Fault-tolerance event counters (PR 6).

    One shared instance is threaded through the platform, read replicas
    and the chaos harness; components bump plain attributes
    (single ``+=`` per event, GIL-atomic enough for counters) so the hot
    path never pays for locking.  Surfaced by ``metrics.report`` and the
    CLI ``stats`` command next to the controller counters.
    """

    #: Client-side resubmissions driven by a :class:`~repro.common.retry.
    #: RetryPolicy` (transient errors, or ambiguous ones under a token).
    retries: int = 0
    #: Tokened submissions answered from the token→txid ack index instead
    #: of creating a new transaction (the exactly-once dedup path).
    token_dedup_hits: int = 0
    #: Coordination sessions found expired and re-established.
    session_expiries: int = 0
    #: One-shot watches re-registered after a session loss (read
    #: replicas re-arming themselves).
    watch_rearms: int = 0
    #: Fleet views served from a replica (or partial) fallback because a
    #: shard leader was unreachable.
    degraded_reads: int = 0
    #: Errors absorbed by supervisor loops (service threads that must
    #: stay alive), bucketed by the retry taxonomy: the loop survives the
    #: error, but the taxonomy is *recorded*, never silently dropped.
    transient_absorbed: int = 0
    ambiguous_absorbed: int = 0
    permanent_absorbed: int = 0

    def record_failure(self, error: BaseException) -> str:
        """Classify and count an error absorbed by a keep-alive loop;
        returns the taxonomy class (``transient``/``ambiguous``/
        ``permanent``)."""
        kind = retry.classify(error)
        if kind == retry.TRANSIENT:
            self.transient_absorbed += 1
        elif kind == retry.AMBIGUOUS:
            self.ambiguous_absorbed += 1
        else:
            self.permanent_absorbed += 1
        return kind

    def as_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "token_dedup_hits": self.token_dedup_hits,
            "session_expiries": self.session_expiries,
            "watch_rearms": self.watch_rearms,
            "degraded_reads": self.degraded_reads,
            "transient_absorbed": self.transient_absorbed,
            "ambiguous_absorbed": self.ambiguous_absorbed,
            "permanent_absorbed": self.permanent_absorbed,
        }

    def merge(self, other: "ResilienceCounters") -> "ResilienceCounters":
        return ResilienceCounters(
            retries=self.retries + other.retries,
            token_dedup_hits=self.token_dedup_hits + other.token_dedup_hits,
            session_expiries=self.session_expiries + other.session_expiries,
            watch_rearms=self.watch_rearms + other.watch_rearms,
            degraded_reads=self.degraded_reads + other.degraded_reads,
            transient_absorbed=self.transient_absorbed + other.transient_absorbed,
            ambiguous_absorbed=self.ambiguous_absorbed + other.ambiguous_absorbed,
            permanent_absorbed=self.permanent_absorbed + other.permanent_absorbed,
        )


class MemoryEstimator:
    """Estimates the memory footprint of a logical data model.

    The paper observes that the controller's memory footprint is dominated
    by the quantity of managed cloud resources rather than by the active
    workload, and that memory is the scalability bottleneck (§6.1).  The
    estimator walks the model and sums ``sys.getsizeof`` over nodes and
    their attribute structures, which captures exactly that growth.
    """

    @staticmethod
    def node_count(model: DataModel) -> int:
        return model.count()

    @staticmethod
    def estimate_bytes(model: DataModel) -> int:
        total = 0
        for _, node in model.walk():
            total += sys.getsizeof(node)
            total += sys.getsizeof(node.attrs)
            total += sys.getsizeof(node.children)
            for key, value in node.attrs.items():
                total += sys.getsizeof(key)
                total += sys.getsizeof(value)
        return total

    @classmethod
    def bytes_per_resource(cls, model: DataModel) -> float:
        count = cls.node_count(model)
        if count == 0:
            return 0.0
        return cls.estimate_bytes(model) / count
