"""Logical-layer execution: simulation, early abort and logical rollback (§3.1.2).

Once a transaction is scheduled, its stored procedure is run against the
*logical* data model.  Every action is applied sequentially; a constraint
violation (or any procedure error) aborts the transaction and the changes
already applied are rolled back via the undo actions recorded in the
execution log.  Successful simulation leaves the logical changes in place
and hands the execution log to the physical layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import (
    ConstraintViolation,
    DataModelError,
    InconsistencyError,
    ProcedureError,
    ReproError,
)
from repro.core.constraints import ConstraintEngine
from repro.core.context import OrchestrationContext
from repro.core.procedures import ProcedureRegistry
from repro.core.txn import ExecutionLog, ReadWriteSet, Transaction
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel


@dataclass
class SimulationOutcome:
    """Result of simulating one transaction in the logical layer."""

    ok: bool
    constraint_violation: bool = False
    error: str | None = None
    result: Any = None

    @property
    def aborted(self) -> bool:
        return not self.ok


class LogicalExecutor:
    """Runs stored procedures against the logical data model."""

    def __init__(
        self,
        model: DataModel,
        schema: ModelSchema,
        procedures: ProcedureRegistry,
        constraint_engine: ConstraintEngine | None = None,
    ):
        self.model = model
        self.schema = schema
        self.procedures = procedures
        self.constraints = constraint_engine or ConstraintEngine(schema)
        self.simulations = 0
        self.rollbacks = 0

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(self, txn: Transaction) -> SimulationOutcome:
        """Simulate ``txn``; on any error the logical model is rolled back.

        The transaction's execution log and read/write set are rebuilt from
        scratch on every attempt (a deferred transaction is re-simulated
        when retried, since the model may have changed in between).
        """
        self.simulations += 1
        txn.log = ExecutionLog()
        txn.rwset = ReadWriteSet()
        context = OrchestrationContext(
            self.model, self.schema, txn, self.constraints, procedures=self.procedures
        )
        try:
            proc = self.procedures.get(txn.procedure)
            result = proc(context, **txn.args)
        except ConstraintViolation as exc:
            self.rollback(txn)
            return SimulationOutcome(ok=False, constraint_violation=True, error=str(exc))
        except (ProcedureError, DataModelError, InconsistencyError, ReproError) as exc:
            self.rollback(txn)
            return SimulationOutcome(ok=False, error=f"{type(exc).__name__}: {exc}")
        txn.result = result
        return SimulationOutcome(ok=True, result=result)

    # ------------------------------------------------------------------
    # Rollback and replay
    # ------------------------------------------------------------------

    def rollback(self, txn: Transaction) -> int:
        """Undo the logical effects of ``txn`` (most recent action first).

        Used both when simulation itself fails and when the physical layer
        reports an abort/failure (Step 5B of Figure 2).  Returns the number
        of undo actions applied.
        """
        return self.undo_log(txn.log)

    def undo_log(self, log: ExecutionLog) -> int:
        """Apply the undo of every record in ``log``, most recent first.

        Every logged action took logical effect (the log is appended only
        after the action's simulation succeeded) and has an undo, so an
        undo that fails means the model is not what the log says: the
        error propagates, the controller's commit fails and demotes the
        replica, and recovery rebuilds the model from the store."""
        undone = 0
        for record in reversed(list(log)):
            node = self.model.get_for_write(record.path)
            action_def = self.schema.get(node.entity_type).get_action(record.undo_action)
            action_def.simulate(self.model, node, *record.undo_args)
            undone += 1
        self.rollbacks += 1
        return undone

    def apply_log(self, log: ExecutionLog) -> int:
        """Re-apply a previously simulated execution log to the model.

        Used by leader recovery to replay committed transactions on top of
        the latest checkpoint (§2.3).
        """
        applied = 0
        for record in log:
            node = self.model.get_for_write(record.path)
            action_def = self.schema.get(node.entity_type).get_action(record.action)
            action_def.simulate(self.model, node, *record.args)
            applied += 1
        return applied
