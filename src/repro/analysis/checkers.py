"""Pluggable invariant checkers over the analysis index.

Each checker is a function ``(index) -> list[Finding]``; ``run_checkers``
runs the requested subset, attaches inline waivers
(``# repro: allow(<rule>) -- <justification>``) and flags waivers with
no written justification.  Rule semantics, motivations and waiver
guidance live in ``docs/development.md#the-invariant-catalog``.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

from repro.analysis import rules
from repro.analysis.core import (
    AnalysisIndex,
    Finding,
    _attr_chain,
)
from repro.analysis.lockgraph import LockAnalysis, _calls_in

RULE_BLOCKING = "blocking-under-lock"
RULE_COW = "cow-funnel"
RULE_KV = "kv-write-outside-funnel"
RULE_STATE_ASSIGN = "txn-state-direct-assign"
RULE_STATE_EDGE = "txn-state-invalid-transition"
RULE_SWALLOW = "transient-swallowed"
RULE_WAIVER = "waiver-missing-justification"


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------


def _is_rpc_pattern(chain: tuple[str, ...]) -> bool:
    return chain[-1] in rules.RPC_TERMINALS and any(
        segment in rules.RPC_BASES for segment in chain[:-1]
    )


def _blocking_closure(index: AnalysisIndex) -> dict[int, str]:
    """id(function) -> short reason, for every function that may issue a
    coordination RPC or block, directly or transitively."""
    reasons: dict[int, str] = {}
    for function in index.iter_functions():
        if function.class_name in rules.COORDINATION_CLASSES:
            if not function.name.startswith("_"):
                reasons[id(function)] = f"coordination op {function.qualname}"

    changed = True
    while changed:
        changed = False
        for function in index.iter_functions():
            if id(function) in reasons:
                continue
            for call in function.calls:
                reason = None
                if _is_rpc_pattern(call.chain):
                    reason = f"coordination op {'.'.join(call.chain)}"
                else:
                    for callee in index.resolve_call(function, call):
                        if id(callee) in reasons:
                            reason = f"{callee.qualname} ({reasons[id(callee)]})"
                            break
                if reason is not None:
                    reasons[id(function)] = reason
                    changed = True
                    break
    return reasons


def check_blocking_under_lock(index: AnalysisIndex) -> list[Finding]:
    """Coordination RPCs, queue waits and sleeps must not run while an
    in-process lock is held (rule ``blocking-under-lock``)."""
    lock_analysis = LockAnalysis(index)
    blocking = _blocking_closure(index)
    findings: list[Finding] = []
    for acq in lock_analysis.graph.acquisitions:
        module = acq.function.module
        if module.name.startswith(rules.BLOCKING_EXEMPT_MODULE_PREFIXES):
            continue
        owner_class, _, lock_attr = acq.lock.partition(".")
        if owner_class in rules.COORDINATION_CLASSES:
            # The ensemble IS the simulated coordination service; its lock
            # serializing its own ops is the design, not a hold-across-RPC.
            continue
        reasons: list[str] = []
        for call in _calls_in(acq.body):
            if call.terminal in rules.BLOCKING_TERMINALS:
                if len(call.chain) >= 2 and call.chain[-2] == lock_attr:
                    # cond.wait()/wait_for() on the held Condition releases
                    # the lock while blocked — the canonical pattern.
                    continue
                reasons.append(f"{'.'.join(call.chain)} (blocking wait)")
                continue
            if _is_rpc_pattern(call.chain):
                reasons.append(f"{'.'.join(call.chain)} (coordination op)")
                continue
            for callee in index.resolve_call(acq.function, call):
                if id(callee) in blocking:
                    reasons.append(f"{callee.qualname} -> {blocking[id(callee)]}")
                    break
        if not reasons:
            continue
        unique = sorted(set(reasons))
        findings.append(
            Finding(
                rule=RULE_BLOCKING,
                module=module.name,
                qualname=acq.function.qualname,
                lineno=acq.lineno,
                message=(
                    f"holds {acq.lock} across blocking calls: "
                    + "; ".join(unique[:5])
                    + (f" (+{len(unique) - 5} more)" if len(unique) > 5 else "")
                ),
                detail=acq.lock,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# cow-funnel
# ---------------------------------------------------------------------------


def _is_model_chain(chain: tuple[str, ...]) -> bool:
    """Does the receiver chain look like a DataModel (``model``,
    ``self.model``, ``view`` from a clone, ...)?"""
    return any(seg in ("model", "view", "candidate") for seg in chain[:-1])


def check_cow_funnel(index: AnalysisIndex) -> list[Finding]:
    """Nodes read from a ``DataModel`` (``model.get(...)``/``ctx.node``)
    may be shared with O(1) snapshots; mutating them outside the
    ``get_for_write``/``promote_subtree`` funnel is the PR 5 ownership
    hole (rule ``cow-funnel``)."""
    findings: list[Finding] = []
    for function in index.iter_functions():
        module = function.module
        if module.name.startswith(rules.COW_EXEMPT_MODULE_PREFIXES):
            continue
        shared_vars: set[str] = set()
        owned_vars: set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = _attr_chain(node.value.func)
                if chain is None:
                    continue
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if chain[-1] in ("get_for_write",):
                        owned_vars.add(target.id)
                        shared_vars.discard(target.id)
                    elif chain[-1] in rules.MODEL_READ_CALLS and _is_model_chain(chain):
                        if target.id not in owned_vars:
                            shared_vars.add(target.id)
        if not shared_vars:
            continue
        for node in ast.walk(function.node):
            flagged: tuple[str, str] | None = None
            # node.attrs[...] = / node.attrs.update(...) / node.children[...] =
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain
                    and len(chain) >= 2
                    and chain[0] in shared_vars
                    and (
                        chain[-1] in rules.NODE_MUTATORS
                        or (
                            len(chain) >= 3
                            and chain[1] in ("attrs", "children")
                            and chain[-1] in rules.MUTATING_CONTAINER_METHODS
                        )
                    )
                ):
                    flagged = (chain[0], ".".join(chain))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    chain = _attr_chain(target) if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) else None
                    if (
                        isinstance(base, ast.Name)
                        and base.id in shared_vars
                        and isinstance(target, (ast.Attribute, ast.Subscript))
                    ):
                        flagged = (base.id, ast.unparse(target))
                        break
            if flagged is not None:
                var, what = flagged
                findings.append(
                    Finding(
                        rule=RULE_COW,
                        module=module.name,
                        qualname=function.qualname,
                        lineno=node.lineno,
                        message=(
                            f"mutates {what} on node {var!r} obtained from a "
                            f"shared model read; claim the subtree with "
                            f"get_for_write first"
                        ),
                        detail=f"{function.qualname}.{var}",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# kv-write-outside-funnel
# ---------------------------------------------------------------------------


def check_kv_writes(index: AnalysisIndex) -> list[Finding]:
    """``KVStore`` writes outside the persistence/group-commit funnel
    (rule ``kv-write-outside-funnel``): new document namespaces must be
    owned by a store-layer module or carry a waiver."""
    findings: list[Finding] = []
    for function in index.iter_functions():
        module = function.module
        if module.name.startswith(rules.KV_FUNNEL_MODULE_PREFIXES):
            continue
        for call in function.calls:
            chain = call.chain
            if chain[-1] not in rules.KV_WRITE_TERMINALS:
                continue
            is_kv = "kv" in chain[:-1]
            if not is_kv:
                resolved = index.resolve_call(function, call)
                is_kv = any(r.class_name == "KVStore" for r in resolved)
            if not is_kv:
                continue
            findings.append(
                Finding(
                    rule=RULE_KV,
                    module=module.name,
                    qualname=function.qualname,
                    lineno=call.lineno,
                    message=(
                        f"raw KVStore write {'.'.join(chain)} outside the "
                        f"persistence funnel (TropicStore / TwoPCLog)"
                    ),
                    detail=f"{function.qualname}.{'.'.join(chain)}",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# txn-state discipline
# ---------------------------------------------------------------------------


def _state_name(expr: ast.expr) -> str | None:
    """``TransactionState.PREPARED`` -> "PREPARED"."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "TransactionState"
    ):
        return expr.attr
    return None


def _guard_states(test: ast.expr) -> set[str]:
    """States asserted by an ``if`` test: ``x.state is TransactionState.A``
    or ``x.state in (A, B)`` (positive comparisons only)."""
    states: set[str] = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        left = node.left
        op = node.ops[0]
        if not (isinstance(left, ast.Attribute) and left.attr == "state"):
            continue
        comparator = node.comparators[0]
        if isinstance(op, (ast.Is, ast.Eq)):
            name = _state_name(comparator)
            if name:
                states.add(name)
        elif isinstance(op, ast.In) and isinstance(comparator, (ast.Tuple, ast.List)):
            for element in comparator.elts:
                name = _state_name(element)
                if name:
                    states.add(name)
    return states


def check_txn_state(index: AnalysisIndex) -> list[Finding]:
    """Transaction state discipline: all transitions through ``mark()``
    (rule ``txn-state-direct-assign``), and state-guarded transitions
    must follow the documented machine (rule
    ``txn-state-invalid-transition``)."""
    findings: list[Finding] = []
    for function in index.iter_functions():
        if function.qualname in rules.TXN_STATE_ASSIGN_ALLOWED:
            continue
        if function.module.name.startswith("repro.analysis"):
            continue
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "state"
                        and _state_name(node.value) is not None
                    ):
                        findings.append(
                            Finding(
                                rule=RULE_STATE_ASSIGN,
                                module=function.module.name,
                                qualname=function.qualname,
                                lineno=node.lineno,
                                message=(
                                    f"direct assignment {ast.unparse(target)} = "
                                    f"TransactionState.{_state_name(node.value)}; "
                                    f"transitions must go through Transaction.mark()"
                                ),
                                detail=f"{ast.unparse(target)}",
                            )
                        )

        def walk(stmts: Iterable[ast.stmt], guards: frozenset[str]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.If):
                    asserted = _guard_states(stmt.test)
                    body_guards = frozenset(asserted) if asserted else guards
                    walk(stmt.body, body_guards)
                    walk(stmt.orelse, guards)
                    continue
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "mark"
                        and node.args
                    ):
                        to_state = _state_name(node.args[0])
                        if to_state is None:
                            continue
                        for from_state in guards:
                            if (from_state, to_state) not in rules.TXN_TRANSITIONS:
                                findings.append(
                                    Finding(
                                        rule=RULE_STATE_EDGE,
                                        module=function.module.name,
                                        qualname=function.qualname,
                                        lineno=node.lineno,
                                        message=(
                                            f"transition {from_state} -> {to_state} "
                                            f"is not in the documented state machine"
                                        ),
                                        detail=f"{from_state}->{to_state}",
                                    )
                                )
                for body in _stmt_bodies(stmt):
                    walk(body, guards)

        walk(function.node.body, frozenset())
    return findings


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If)):
        return bodies
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field_name, None)
        if isinstance(value, list):
            bodies.append(value)
    if isinstance(stmt, ast.Try):
        for handler in stmt.handlers:
            bodies.append(handler.body)
    return bodies


# ---------------------------------------------------------------------------
# transient-swallowed
# ---------------------------------------------------------------------------


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"Exception"}  # bare except
    names: set[str] = set()
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def check_transient_swallowed(index: AnalysisIndex) -> list[Finding]:
    """Inside a retry loop (``while``), catching the TRANSIENT taxonomy
    (or ``Exception``) and continuing without re-raising or classifying
    silently converts "provably retryable" into "silently dropped"
    (rule ``transient-swallowed``)."""
    findings: list[Finding] = []
    for function in index.iter_functions():
        if function.module.name.startswith(("repro.analysis", "repro.testing")):
            continue

        def visit(stmts: Iterable[ast.stmt], in_while: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Try) and in_while:
                    for handler in stmt.handlers:
                        caught = _handler_names(handler)
                        if not (caught & rules.SWALLOWABLE_EXCEPTION_NAMES):
                            continue
                        body_calls = {
                            site.terminal for site in _calls_in(handler.body)
                        }
                        has_raise = any(
                            isinstance(node, ast.Raise)
                            for node in ast.walk(handler)
                        )
                        if has_raise or (body_calls & rules.CLASSIFIER_CALLS):
                            continue
                        findings.append(
                            Finding(
                                rule=RULE_SWALLOW,
                                module=function.module.name,
                                qualname=function.qualname,
                                lineno=handler.lineno,
                                message=(
                                    f"except {'/'.join(sorted(caught))} inside a "
                                    f"retry loop swallows the TRANSIENT taxonomy "
                                    f"without re-raising or classifying"
                                ),
                                detail=f"{function.qualname}:{'/'.join(sorted(caught))}",
                            )
                        )
                nested_in_while = in_while or isinstance(stmt, ast.While)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for field_name in ("body", "orelse", "finalbody"):
                    value = getattr(stmt, field_name, None)
                    if isinstance(value, list):
                        visit(value, nested_in_while)
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        visit(handler.body, in_while)

        visit(function.node.body, False)
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

CHECKERS: dict[str, Callable[[AnalysisIndex], list[Finding]]] = {
    "locks": lambda index: LockAnalysis(index).findings(),
    "blocking": check_blocking_under_lock,
    "cow": check_cow_funnel,
    "kv": check_kv_writes,
    "txn-state": check_txn_state,
    "swallow": check_transient_swallowed,
}


def run_checkers(
    index: AnalysisIndex, only: Iterable[str] | None = None
) -> list[Finding]:
    """Run the selected checkers, attach waivers, enforce justifications."""
    names = list(only) if only else list(CHECKERS)
    findings: list[Finding] = []
    for name in names:
        findings.extend(CHECKERS[name](index))
    for finding in findings:
        module = index.modules.get(finding.module)
        if module is not None:
            finding.waiver = module.waiver_for(finding.rule, finding.lineno)
    for finding in list(findings):
        if finding.waiver is not None and not finding.waiver.justification:
            findings.append(
                Finding(
                    rule=RULE_WAIVER,
                    module=finding.module,
                    qualname=finding.qualname,
                    lineno=finding.waiver.lineno,
                    message=(
                        f"waiver for {finding.rule} has no justification; write "
                        f"`# repro: allow({finding.rule}) -- <why it is safe>`"
                    ),
                    detail=finding.key,
                )
            )
    findings.sort(key=lambda f: (f.rule, f.module, f.lineno, f.detail))
    return findings
