"""Entity types: queries, actions, constraints and stored-procedure metadata.

The paper (§2.2) associates four kinds of expressions/procedures with each
entity in the data model:

* *queries* inspect logical state (read-only),
* *actions* are atomic state transitions, defined twice — a logical
  simulation and a physical device API call — each with an undo action,
* *constraints* are service/engineering rules enforced at runtime,
* *stored procedures* compose the above into orchestration logic (these are
  registered with the orchestration core, see ``repro.core.procedures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConfigurationError, ConstraintViolation, DataModelError
from repro.datamodel.node import Node
from repro.datamodel.tree import DataModel

#: Logical simulation function: ``simulate(model, node, *args)``.
SimulateFn = Callable[..., Any]
#: Query function: ``query(model, node, *args) -> value``.
QueryFn = Callable[..., Any]
#: Constraint check: ``check(model, node) -> list[str]`` of violation messages.
CheckFn = Callable[[DataModel, Node], list[str]]


@dataclass
class ActionDef:
    """An atomic state transition of a resource.

    Attributes
    ----------
    name:
        Action name, e.g. ``createVM``.  In the physical layer the worker
        invokes the device driver method of the same name.
    simulate:
        Logical-layer implementation applied to the data model.
    undo:
        Name of the compensating action used for rollback (logical undo
        and physical undo replay alike).
    undo_args:
        Function mapping ``(node, args)`` to the argument list of the undo
        action recorded in the execution log.  Defaults to no arguments.
    """

    name: str
    simulate: SimulateFn
    undo: str
    undo_args: Callable[[Node, list[Any]], list[Any]] | None = None

    def undo_arguments(self, node: Node, args: list[Any]) -> list[Any]:
        if self.undo_args is None:
            return []
        return list(self.undo_args(node, list(args)))


@dataclass
class QueryDef:
    """A read-only inspection of logical state."""

    name: str
    func: QueryFn


@dataclass
class ConstraintDef:
    """A service or engineering rule attached to an entity type."""

    name: str
    check: CheckFn
    description: str = ""

    def violations(self, model: DataModel, node: Node) -> list[str]:
        return list(self.check(model, node))


class EntityType:
    """Declares the behaviour of one kind of data-model node."""

    def __init__(self, name: str, default_attrs: dict[str, Any] | None = None):
        self.name = name
        self.default_attrs = dict(default_attrs or {})
        self.actions: dict[str, ActionDef] = {}
        self.queries: dict[str, QueryDef] = {}
        self.constraints: list[ConstraintDef] = []

    # -- declaration helpers (usable as decorators) ---------------------

    def action(
        self,
        name: str,
        undo: str | None = None,
        undo_args: Callable[[Node, list[Any]], list[Any]] | None = None,
    ) -> Callable[[SimulateFn], SimulateFn]:
        """Register a logical-layer action simulation function.

        Every action mutates the model, so each must name its ``undo``:
        rollback replays the undos of an execution log, and an action
        without one would leave that rollback half done (§3.2)."""
        if not undo:
            raise ConfigurationError(f"action {name!r} on {self.name} has no undo action")

        def decorator(func: SimulateFn) -> SimulateFn:
            if name in self.actions:
                raise ConfigurationError(f"duplicate action {name!r} on {self.name}")
            self.actions[name] = ActionDef(name, func, undo, undo_args)
            return func

        return decorator

    def query(self, name: str) -> Callable[[QueryFn], QueryFn]:
        def decorator(func: QueryFn) -> QueryFn:
            if name in self.queries:
                raise ConfigurationError(f"duplicate query {name!r} on {self.name}")
            self.queries[name] = QueryDef(name, func)
            return func

        return decorator

    def constraint(self, name: str, description: str = "") -> Callable[[CheckFn], CheckFn]:
        def decorator(func: CheckFn) -> CheckFn:
            self.constraints.append(ConstraintDef(name, func, description))
            return func

        return decorator

    # -- lookup ----------------------------------------------------------

    def get_action(self, name: str) -> ActionDef:
        try:
            return self.actions[name]
        except KeyError:
            raise DataModelError(f"entity {self.name!r} has no action {name!r}") from None

    def get_query(self, name: str) -> QueryDef:
        try:
            return self.queries[name]
        except KeyError:
            raise DataModelError(f"entity {self.name!r} has no query {name!r}") from None

    @property
    def has_constraints(self) -> bool:
        return bool(self.constraints)

    def __repr__(self) -> str:
        return (
            f"<EntityType {self.name} actions={sorted(self.actions)} "
            f"constraints={[c.name for c in self.constraints]}>"
        )


class ModelSchema:
    """Registry of entity types for one deployment (e.g. TCloud)."""

    def __init__(self) -> None:
        self._types: dict[str, EntityType] = {}
        # The implicit root entity type carries no behaviour.
        self.register(EntityType("root"))

    def register(self, entity_type: EntityType) -> EntityType:
        if entity_type.name in self._types:
            raise ConfigurationError(f"duplicate entity type {entity_type.name!r}")
        self._types[entity_type.name] = entity_type
        return entity_type

    def define(self, name: str, default_attrs: dict[str, Any] | None = None) -> EntityType:
        """Create and register a new entity type."""
        return self.register(EntityType(name, default_attrs))

    def get(self, name: str) -> EntityType:
        try:
            return self._types[name]
        except KeyError:
            raise DataModelError(f"unknown entity type {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._types

    def entity_types(self) -> list[EntityType]:
        return list(self._types.values())

    # -- constraint evaluation -------------------------------------------

    def check_node(self, model: DataModel, node: Node) -> list[str]:
        """Evaluate all constraints of ``node``'s entity type; return violations."""
        etype = self._types.get(node.entity_type)
        if etype is None:
            return []
        violations: list[str] = []
        for constraint in etype.constraints:
            for message in constraint.violations(model, node):
                violations.append(f"{constraint.name}@{node.path}: {message}")
        return violations

    def check_subtree(self, model: DataModel, path: Any = "/") -> list[str]:
        """Evaluate constraints over an entire subtree.

        Runs after every simulated action (§3.1.2), so the walk is a plain
        node stack — no per-node path construction or child sorting — and
        nodes whose entity type declares no constraints are skipped without
        the ``check_node`` call overhead.
        """
        violations: list[str] = []
        types = self._types
        stack = [model.get(path)]
        while stack:
            node = stack.pop()
            etype = types.get(node.entity_type)
            if etype is not None and etype.constraints:
                for constraint in etype.constraints:
                    for message in constraint.violations(model, node):
                        violations.append(f"{constraint.name}@{node.path}: {message}")
            children = node.children
            if children:
                stack.extend(children.values())
        return violations

    def enforce_subtree(self, model: DataModel, path: Any = "/") -> None:
        violations = self.check_subtree(model, path)
        if violations:
            raise ConstraintViolation("; ".join(violations), constraint="schema")

    def has_constraints(self, entity_type_name: str) -> bool:
        etype = self._types.get(entity_type_name)
        return bool(etype and etype.has_constraints)
