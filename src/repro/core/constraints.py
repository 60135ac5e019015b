"""Constraint engine: runtime enforcement of service/engineering rules (§2.2, §3.1.2).

Constraints are declared on entity types (see
:class:`repro.datamodel.schema.EntityType`).  During logical simulation the
engine is consulted after every action: it evaluates the constraints of the
subtree rooted at the *highest constrained ancestor* of the written object.
That same ancestor is R-locked by the scheduler so that concurrent
transactions cannot invalidate the checked state (§3.1.3).
"""

from __future__ import annotations

from repro.datamodel.path import ResourcePath
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel


class ConstraintEngine:
    """Evaluates schema constraints against a data model."""

    def __init__(self, schema: ModelSchema):
        self.schema = schema
        self.checks_performed = 0
        self.violations_found = 0

    # -- lock support -----------------------------------------------------

    def highest_constrained_ancestor(
        self, model: DataModel, path: str | ResourcePath
    ) -> ResourcePath | None:
        """Highest (closest to the root) ancestor-or-self of ``path`` whose
        entity type declares constraints, or ``None``."""
        rpath = ResourcePath.parse(path)
        node = model.root
        if self.schema.has_constraints(node.entity_type):
            return ResourcePath()
        current = ResourcePath()
        for part in rpath.parts:
            child = node.child(part)
            if child is None:
                break
            current = current.child(part)
            node = child
            if self.schema.has_constraints(node.entity_type):
                return current
        return None

    # -- checking -----------------------------------------------------------

    _SCOPE_UNRESOLVED = object()

    def check_after_write(
        self,
        model: DataModel,
        path: str | ResourcePath,
        scope: "ResourcePath | None | object" = _SCOPE_UNRESOLVED,
    ) -> list[str]:
        """Violations caused by a write at ``path``.

        The scope is the subtree under the highest constrained ancestor of
        ``path`` (falling back to the written subtree itself), which bounds
        checking cost while covering every constraint whose inputs the write
        can influence through its locked subtree.  Callers that already
        resolved the ancestor (the orchestration context records it as a
        constraint read just before checking) pass it as ``scope`` to skip
        the second resolution walk.
        """
        rpath = ResourcePath.parse(path)
        if scope is ConstraintEngine._SCOPE_UNRESOLVED:
            scope = self.highest_constrained_ancestor(model, rpath)
        if scope is None:
            scope = rpath if model.exists(rpath) else rpath.parent
        if not model.exists(scope):
            return []
        self.checks_performed += 1
        violations = self.schema.check_subtree(model, scope)
        self.violations_found += len(violations)
        return violations

    def check_subtree(self, model: DataModel, path: str | ResourcePath = "/") -> list[str]:
        """Violations anywhere under ``path`` (used by reload, §4)."""
        if not model.exists(path):
            return []
        self.checks_performed += 1
        violations = self.schema.check_subtree(model, path)
        self.violations_found += len(violations)
        return violations
