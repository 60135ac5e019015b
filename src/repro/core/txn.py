"""Transactions, execution logs and read/write sets (§3).

A transaction is a call to a stored procedure.  Its *execution log* is the
sequence of ``(resource path, action, args, undo action, undo args)``
records produced by logical simulation (Table 1 shows the log of
``spawnVM``); the log is replayed by the physical layer and is also the
basis for rollback in both layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.common.idgen import monotonic_id


class TransactionState(str, enum.Enum):
    """Life-cycle states of a transactional orchestration (Figure 2)."""

    INITIALIZED = "initialized"
    ACCEPTED = "accepted"
    DEFERRED = "deferred"
    #: Cross-shard coordinator: locks held, prepare requests outstanding.
    PREPARING = "preparing"
    #: Cross-shard participant: log slice applied, locks held, vote cast —
    #: the durable *prepare record* of two-phase commit.
    PREPARED = "prepared"
    STARTED = "started"
    COMMITTED = "committed"
    ABORTED = "aborted"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (
            TransactionState.COMMITTED,
            TransactionState.ABORTED,
            TransactionState.FAILED,
        )


#: States in which the transaction still occupies the logical layer.
ACTIVE_STATES = (
    TransactionState.ACCEPTED,
    TransactionState.DEFERRED,
    TransactionState.PREPARING,
    TransactionState.PREPARED,
    TransactionState.STARTED,
)


@dataclass
class LogRecord:
    """One entry of an execution log (one row of Table 1)."""

    seq: int
    path: str
    action: str
    args: list[Any] = field(default_factory=list)
    undo_action: str | None = None
    undo_args: list[Any] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """The wire form, sharing the argument lists: every caller
        serialises it before the record can change."""
        return {
            "seq": self.seq,
            "path": self.path,
            "action": self.action,
            "args": self.args,
            "undo_action": self.undo_action,
            "undo_args": self.undo_args,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogRecord":
        return cls(
            seq=int(data["seq"]),
            path=data["path"],
            action=data["action"],
            args=list(data.get("args") or []),
            undo_action=data.get("undo_action"),
            undo_args=list(data.get("undo_args") or []),
        )

    def __repr__(self) -> str:
        return f"<LogRecord #{self.seq} {self.path} {self.action}{tuple(self.args)}>"


class ExecutionLog:
    """Ordered list of :class:`LogRecord` produced by logical simulation."""

    def __init__(self, records: list[LogRecord] | None = None):
        self.records: list[LogRecord] = list(records or [])

    def append(
        self,
        path: str,
        action: str,
        args: list[Any],
        undo_action: str | None,
        undo_args: list[Any],
    ) -> LogRecord:
        record = LogRecord(
            seq=len(self.records) + 1,
            path=path,
            action=action,
            args=list(args),
            undo_action=undo_action,
            undo_args=list(undo_args),
        )
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> LogRecord:
        return self.records[index]

    def to_dict(self) -> list[dict[str, Any]]:
        return [record.to_dict() for record in self.records]

    @classmethod
    def from_dict(cls, data: list[dict[str, Any]]) -> "ExecutionLog":
        return cls([LogRecord.from_dict(item) for item in data or []])

    def as_table(self) -> list[tuple[int, str, str, str, str, str]]:
        """Render the log in the format of Table 1 of the paper."""
        rows = []
        for record in self.records:
            rows.append(
                (
                    record.seq,
                    record.path,
                    record.action,
                    "[" + ", ".join(str(a) for a in record.args) + "]",
                    record.undo_action or "-",
                    "[" + ", ".join(str(a) for a in record.undo_args) + "]",
                )
            )
        return rows

    def format_table(self) -> str:
        header = ("#", "resource object path", "action", "args", "undo action", "undo args")
        rows = [tuple(str(col) for col in row) for row in self.as_table()]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header)))]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)


@dataclass
class ReadWriteSet:
    """Resource paths read and written during simulation (drives locking)."""

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    #: paths of the highest constrained ancestors of written objects,
    #: R-locked to keep their subtrees read-only to concurrent writers (§3.1.3)
    constraint_reads: set[str] = field(default_factory=set)

    def record_read(self, path: str) -> None:
        self.reads.add(path)

    def record_write(self, path: str) -> None:
        self.writes.add(path)

    def record_constraint_read(self, path: str) -> None:
        self.constraint_reads.add(path)

    def to_dict(self) -> dict[str, list[str]]:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "constraint_reads": sorted(self.constraint_reads),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReadWriteSet":
        data = data or {}
        return cls(
            reads=set(data.get("reads") or []),
            writes=set(data.get("writes") or []),
            constraint_reads=set(data.get("constraint_reads") or []),
        )


@dataclass
class Transaction:
    """A transactional orchestration operation."""

    procedure: str
    args: dict[str, Any] = field(default_factory=dict)
    txid: str = field(default_factory=lambda: monotonic_id("txn"))
    state: TransactionState = TransactionState.INITIALIZED
    log: ExecutionLog = field(default_factory=ExecutionLog)
    rwset: ReadWriteSet = field(default_factory=ReadWriteSet)
    error: str | None = None
    result: Any = None
    client: str = ""
    defer_count: int = 0
    timestamps: dict[str, float] = field(default_factory=dict)
    #: Cross-shard transactions only: the shard coordinating two-phase
    #: commit, every shard whose subtrees the transaction touches (the
    #: coordinator included), and the coordinator's vote tally for the
    #: current attempt (``defer_count`` doubles as the attempt number).
    coordinator: int | None = None
    participants: list[int] = field(default_factory=list)
    votes: dict[str, str] = field(default_factory=dict)
    #: Client-supplied idempotency token.  Persisted with the document so
    #: the controller's token→txid ack index survives failover and a
    #: retried submission after an ambiguous failure deduplicates instead
    #: of double-applying.  ``None`` (the default) keeps token-less
    #: documents byte-identical to the pre-resilience format.
    idempotency_token: str | None = None
    #: Wound-wait soft state (never serialised, deliberately absent from
    #: ``to_dict``): how many times an older transaction wounded this one
    #: out of its prepare phase, and how many scheduling passes it still
    #: sits out before retrying.  Lost on failover by design — the backoff
    #: restarts from zero; only the durable DEFERRED document decides that
    #: the transaction requeues at all.
    wound_count: int = 0
    wound_cooldown: int = 0

    # -- state transitions ------------------------------------------------

    def mark(self, state: TransactionState, now: float | None = None) -> None:
        self.state = state
        if now is not None:
            self.timestamps[state.value] = now

    @property
    def is_terminal(self) -> bool:
        return self.state.is_terminal

    @property
    def is_cross_shard(self) -> bool:
        """True when this transaction spans more than one controller shard
        (and therefore runs under the two-phase-commit protocol)."""
        return len(self.participants) > 1

    def latency(self) -> float | None:
        """Submission-to-terminal-state latency, if both timestamps are known."""
        submitted = self.timestamps.get(TransactionState.INITIALIZED.value)
        finished = None
        for state in (TransactionState.COMMITTED, TransactionState.ABORTED, TransactionState.FAILED):
            if state.value in self.timestamps:
                finished = self.timestamps[state.value]
        if submitted is None or finished is None:
            return None
        return finished - submitted

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The stored document, sharing the live argument, result and
        bookkeeping structures: every caller serialises it at once."""
        data = {
            "txid": self.txid,
            "procedure": self.procedure,
            "args": self.args,
            "state": self.state.value,
            "log": self.log.to_dict(),
            "rwset": self.rwset.to_dict(),
            "error": self.error,
            "result": self.result,
            "client": self.client,
            "defer_count": self.defer_count,
            "timestamps": self.timestamps,
        }
        if self.participants or self.votes or self.coordinator is not None:
            # Cross-shard transactions only; single-shard documents stay
            # byte-identical to the pre-2PC format (from_dict defaults).
            data["coordinator"] = self.coordinator
            data["participants"] = self.participants
            data["votes"] = self.votes
        if self.idempotency_token is not None:
            # Same conditional pattern: only tokened submissions carry the
            # extra field (from_dict defaults it away).
            data["idempotency_token"] = self.idempotency_token
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Transaction":
        txn = cls(
            procedure=data["procedure"],
            args=dict(data.get("args") or {}),
            txid=data["txid"],
            state=TransactionState(data.get("state", "initialized")),
            log=ExecutionLog.from_dict(data.get("log") or []),
            rwset=ReadWriteSet.from_dict(data.get("rwset") or {}),
            error=data.get("error"),
            result=data.get("result"),
            client=data.get("client", ""),
            defer_count=int(data.get("defer_count", 0)),
            timestamps=dict(data.get("timestamps") or {}),
            coordinator=data.get("coordinator"),
            participants=[int(s) for s in data.get("participants") or []],
            votes=dict(data.get("votes") or {}),
            idempotency_token=data.get("idempotency_token"),
        )
        return txn

    def __repr__(self) -> str:
        return f"<Transaction {self.txid} {self.procedure} {self.state.value}>"
