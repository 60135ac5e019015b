"""Physical-layer execution: replay of execution logs with undo rollback (§3.2).

A worker replays the execution log produced by logical simulation, invoking
device APIs action by action.  If every action succeeds the transaction is
*committed*.  If an action fails, the worker executes the undo actions of
the already-successful prefix in reverse chronological order and reports
*aborted*.  If an undo itself fails, the remaining undos are skipped (they
may have temporal dependencies) and the transaction is reported *failed*,
leaving a cross-layer inconsistency for reconciliation (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import TropicConfig
from repro.common.errors import DeviceError, ReproError
from repro.core.events import OUTCOME_ABORTED, OUTCOME_COMMITTED, OUTCOME_FAILED
from repro.core.signals import SignalBoard, TERM
from repro.core.txn import LogRecord, Transaction
from repro.drivers.registry import DeviceRegistry


@dataclass
class PhysicalOutcome:
    """Result of replaying one transaction in the physical layer."""

    outcome: str  # committed | aborted | failed
    error: str | None = None
    failed_path: str | None = None
    executed: int = 0
    undone: int = 0
    undo_errors: list[str] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.outcome == OUTCOME_COMMITTED


class PhysicalExecutor:
    """Replays execution logs against registered devices."""

    def __init__(
        self,
        registry: DeviceRegistry | None,
        config: TropicConfig | None = None,
        signals: SignalBoard | None = None,
    ):
        self.registry = registry
        self.config = config or TropicConfig()
        self.signals = signals
        self.transactions_executed = 0
        self.actions_executed = 0
        self.undo_actions_executed = 0

    # ------------------------------------------------------------------

    def execute(self, txn: Transaction) -> PhysicalOutcome:
        """Replay ``txn``'s execution log; roll back on the first failure.

        TERM is checked between actions on the watched signal board: an
        in-memory lookup until a signal is actually posted or cleared."""
        self.transactions_executed += 1
        executed: list[LogRecord] = []
        for record in txn.log:
            if self._termed(txn):
                return self._rollback(
                    txn, executed, error="transaction terminated by TERM signal"
                )
            try:
                self._invoke(record.path, record.action, record.args, phase="forward")
                executed.append(record)
                self.actions_executed += 1
            except ReproError as exc:
                return self._rollback(
                    txn, executed, error=str(exc), failed_path=record.path
                )
            if self._termed(txn):
                # TERM arrived while this action was in flight (e.g. a
                # stalled device call): roll back gracefully including
                # this action.
                return self._rollback(
                    txn, executed, error="transaction terminated by TERM signal"
                )
        return PhysicalOutcome(outcome=OUTCOME_COMMITTED, executed=len(executed))

    def _termed(self, txn: Transaction) -> bool:
        return self.signals is not None and self.signals.signal_of(txn.txid) == TERM

    def _rollback(
        self,
        txn: Transaction,
        executed: list[LogRecord],
        error: str | None,
        failed_path: str | None = None,
    ) -> PhysicalOutcome:
        """Undo the successfully executed prefix in reverse order."""
        undone = 0
        for record in reversed(executed):
            try:
                self._invoke(record.path, record.undo_action, record.undo_args, phase="undo")
                undone += 1
                self.undo_actions_executed += 1
            except ReproError as exc:
                # Stop undoing on the first undo failure (undos may have
                # temporal dependencies, §3.2); report the txn as failed.
                return PhysicalOutcome(
                    outcome=OUTCOME_FAILED,
                    error=error,
                    failed_path=record.path,
                    executed=len(executed),
                    undone=undone,
                    undo_errors=[str(exc)],
                )
        return PhysicalOutcome(
            outcome=OUTCOME_ABORTED,
            error=error,
            failed_path=failed_path,
            executed=len(executed),
            undone=undone,
        )

    # ------------------------------------------------------------------

    def _invoke(self, path: str, action: str, args: list, phase: str = "forward") -> None:
        """Invoke one device API call (or simulate it in logical-only mode)."""
        if self.config.logical_only or self.registry is None:
            return
        _, device = self.registry.lookup(path)
        if not device.supports(action):
            raise DeviceError(
                f"device for {path} does not support action {action!r}",
                device=device.name,
                action=action,
            )
        device.invoke(action, args, phase=phase)
