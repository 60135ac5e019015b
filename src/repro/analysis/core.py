"""Analyzer core: module loading, call indexing and waiver scanning.

This is the reachability substrate the checkers share (following the
reachability framing of PAPERS.md: *Program Analysis via Multiple
Context Free Language Reachability*): every module under ``src/repro``
is parsed once into an :class:`AnalysisIndex` holding

* every function/method with its outgoing :class:`CallSite` list,
* per-class attribute type facts (``self.store = TropicStore(...)`` in
  any method, dataclass/annotation fields) used to resolve
  ``self.attr.method(...)`` chains, and
* the in-process lock attributes each class constructs.

Call resolution is deliberately *conservative in both directions*:
chains it can type-resolve bind to the real callee; an unresolved name
binds to the unique indexed definition of that name when one exists
(never for ubiquitous collection-method names), and otherwise resolves
to nothing — checkers then fall back to pattern matching on the
terminal attribute name.  The runtime lock-order recorder
(`repro.analysis.recorder`) exists precisely to validate what this
approximation claims about lock order.  See
``docs/development.md#how-the-analyzer-works``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

#: Method names too generic to resolve by uniqueness: they collide with
#: dict/set/list/str methods, so a call only binds to them through an
#: explicitly typed chain (``self.model.get`` with ``model: DataModel``).
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "get",
        "set",
        "add",
        "pop",
        "popitem",
        "append",
        "appendleft",
        "extend",
        "clear",
        "update",
        "remove",
        "discard",
        "insert",
        "keys",
        "values",
        "items",
        "copy",
        "sort",
        "sorted",
        "reverse",
        "index",
        "count",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "encode",
        "decode",
        "read",
        "write",
        "close",
        "open",
        "send",
        "next",
        "name",
        "exists",
        "parse",
        "match",
        "findall",
        "setdefault",
        "put",
        "delete",
        "create",
        "start",
        "stop",
        "run",
        "wait",
        "notify",
        "acquire",
        "release",
        "to_dict",
        "from_dict",
    }
)

_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([\w\-, ]+?)\s*\)(?:\s*--\s*(?P<why>.+?)\s*)?$"
)

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


@dataclass
class Waiver:
    """An inline ``# repro: allow(rule, ...) -- justification`` comment."""

    rules: tuple[str, ...]
    justification: str
    lineno: int
    used: bool = False


@dataclass
class Finding:
    """One rule violation at one site, keyed stably across edits.

    ``detail`` is the rule-specific discriminator (e.g. the lock pair of
    a cycle, the lock name of a blocking-hold); keys intentionally omit
    line numbers so an unrelated edit does not change a finding's key.
    """

    rule: str
    module: str
    qualname: str
    lineno: int
    message: str
    detail: str = ""
    waiver: "Waiver | None" = None

    @property
    def key(self) -> str:
        return "::".join((self.rule, self.module, self.qualname, self.detail))

    @property
    def waived(self) -> bool:
        return self.waiver is not None

    def location(self) -> str:
        return f"{self.module}:{self.lineno}"


@dataclass
class CallSite:
    """One ``ast.Call`` with its attribute chain, e.g. ``self.store.kv.put``
    becomes ``("self", "store", "kv", "put")``."""

    chain: tuple[str, ...]
    lineno: int
    node: ast.Call

    @property
    def terminal(self) -> str:
        return self.chain[-1]


class FunctionInfo:
    """A function or method plus its outgoing call sites."""

    def __init__(
        self,
        module: "SourceModule",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ):
        self.module = module
        self.node = node
        self.class_name = class_name
        self.name = node.name
        self.qualname = f"{class_name}.{node.name}" if class_name else node.name
        self.calls: list[CallSite] = [
            CallSite(chain=chain, lineno=call.lineno, node=call)
            for call, chain in _iter_calls(node)
        ]
        #: parameter name -> functions callers pass for it
        #: (``self._commit(self._drain)`` binds ``body`` to ``_drain``).
        self.param_targets: dict[str, list[FunctionInfo]] = {}

    @property
    def full_qualname(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    def __repr__(self) -> str:
        return f"<FunctionInfo {self.full_qualname}>"


class ClassInfo:
    """Type facts about one class: methods, attribute types, lock attrs."""

    def __init__(self, module: "SourceModule", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.bases = tuple(
            base.id for base in node.bases if isinstance(base, ast.Name)
        )
        self.methods: dict[str, FunctionInfo] = {}
        #: attribute name -> class name it is constructed/annotated with.
        self.attr_types: dict[str, str] = {}
        #: attribute name -> the __init__ parameter it aliases
        #: (``self.on_complete = on_complete``), used to bind callbacks
        #: passed at construction sites.
        self.param_attr_aliases: dict[str, str] = {}
        #: attribute name -> bound methods any caller passes for it
        #: (``Controller(..., on_complete=self._on_complete)``).
        self.callback_targets: dict[str, list[FunctionInfo]] = {}
        #: attribute name -> threading factory name ("Lock", "RLock", ...)
        self.lock_attrs: dict[str, str] = {}
        #: attribute name -> string literal passed to traced(<lock>, name)
        self.traced_names: dict[str, str] = {}


class SourceModule:
    """One parsed source file."""

    def __init__(self, name: str, path: Path, source: str):
        self.name = name
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source)
        self.waivers: dict[int, Waiver] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _WAIVER_RE.search(line)
            if match:
                rules = tuple(
                    rule.strip() for rule in match.group(1).split(",") if rule.strip()
                )
                self.waivers[lineno] = Waiver(
                    rules=rules,
                    justification=(match.group("why") or "").strip(),
                    lineno=lineno,
                )

    def waiver_for(self, rule: str, lineno: int) -> Waiver | None:
        """A waiver covers a finding on its own line or the line below it
        (standalone comment directly above the flagged statement)."""
        for candidate_line in (lineno, lineno - 1):
            waiver = self.waivers.get(candidate_line)
            if waiver is not None and rule in waiver.rules:
                waiver.used = True
                return waiver
        return None


def _attr_chain(expr: ast.expr) -> tuple[str, ...] | None:
    """``self.store.kv.put`` -> ("self", "store", "kv", "put"); a chain
    rooted in a call/subscript keeps a ``"<expr>"`` placeholder root."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("<expr>")
    return tuple(reversed(parts))


def _iter_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.Call, tuple[str, ...]]]:
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
            continue  # nested defs are indexed separately
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain:
                yield node, chain


def _constructed_class(value: ast.expr) -> str | None:
    """The class name constructed by ``value`` if it is (or wraps) a
    ``ClassName(...)`` call — sees through ``traced(ClassName(), ...)``."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if chain is None:
        return None
    name = chain[-1]
    if name[:1].isupper():
        return name
    for arg in value.args:
        inner = _constructed_class(arg)
        if inner is not None:
            return inner
    return None


def _lock_factory(value: ast.expr) -> str | None:
    """``threading.RLock()`` (possibly wrapped in ``traced(...)``) -> "RLock"."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if chain and chain[-1] in _LOCK_FACTORIES:
        return chain[-1]
    for arg in value.args:
        inner = _lock_factory(arg)
        if inner is not None:
            return inner
    return None


def _traced_name(value: ast.expr) -> str | None:
    """The name literal of a ``traced(<lock>, "Class.attr")`` wrapper."""
    if not isinstance(value, ast.Call):
        return None
    chain = _attr_chain(value.func)
    if chain and chain[-1] == "traced" and len(value.args) >= 2:
        name = value.args[1]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            return name.value
    return None


class AnalysisIndex:
    """All modules, classes and functions of the analyzed tree."""

    def __init__(self, modules: list[SourceModule]):
        self.modules: dict[str, SourceModule] = {m.name: m for m in modules}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        self._module_functions: dict[tuple[str, str], FunctionInfo] = {}
        self._functions_by_name: dict[str, list[FunctionInfo]] = {}
        for module in modules:
            self._index_module(module)
        self._infer_attr_types()
        self._bind_callbacks()
        self._bind_callable_params()

    # -- construction ---------------------------------------------------

    def _index_module(self, module: SourceModule) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(module, node, None)
                self._register(info)
                self._module_functions[(module.name, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(module, node)
                # Last definition wins on (unlikely) cross-module name
                # collisions; fine for heuristics.
                self.classes[cls.name] = cls
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(module, item, cls.name)
                        cls.methods[item.name] = info
                        self._register(info)
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        annotated = _annotation_class(item.annotation)
                        if annotated:
                            cls.attr_types[item.target.id] = annotated

    def _register(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self._functions_by_name.setdefault(info.name, []).append(info)

    def _infer_attr_types(self) -> None:
        """Scan every method for ``self.attr = <ClassName>(...)`` /
        lock-factory assignments and annotated ``self.attr: T`` targets."""
        for cls in self.classes.values():
            for method in cls.methods.values():
                param_types: dict[str, str] = {}
                param_names: set[str] = set()
                for arg in (
                    method.node.args.posonlyargs
                    + method.node.args.args
                    + method.node.args.kwonlyargs
                ):
                    param_names.add(arg.arg)
                    annotated = _annotation_class(arg.annotation)
                    if annotated:
                        param_types[arg.arg] = annotated
                for node in ast.walk(method.node):
                    targets: list[ast.expr] = []
                    value: ast.expr | None = None
                    if isinstance(node, ast.Assign):
                        targets, value = node.targets, node.value
                    elif isinstance(node, ast.AnnAssign) and node.target is not None:
                        targets = [node.target]
                        annotated = _annotation_class(node.annotation)
                        if (
                            annotated
                            and isinstance(node.target, ast.Attribute)
                            and isinstance(node.target.value, ast.Name)
                            and node.target.value.id == "self"
                        ):
                            cls.attr_types.setdefault(node.target.attr, annotated)
                        value = node.value
                    if value is None:
                        continue
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        factory = _lock_factory(value)
                        if factory is not None:
                            cls.lock_attrs.setdefault(target.attr, factory)
                            traced_name = _traced_name(value)
                            if traced_name is not None:
                                cls.traced_names[target.attr] = traced_name
                            continue
                        constructed = _constructed_class(value)
                        if constructed is not None and constructed in self.classes:
                            cls.attr_types.setdefault(target.attr, constructed)
                            continue
                        # ``self.store = store`` where the parameter carries
                        # a class annotation.
                        if isinstance(value, ast.Name) and value.id in param_types:
                            cls.attr_types.setdefault(
                                target.attr, param_types[value.id]
                            )
                        if (
                            method.name == "__init__"
                            and isinstance(value, ast.Name)
                            and value.id in param_names
                        ):
                            cls.param_attr_aliases.setdefault(
                                target.attr, value.id
                            )

    def _bind_callbacks(self) -> None:
        """Bind ``kw=self._method`` arguments at constructor call sites to
        the attribute the constructed class aliases that parameter into,
        so ``self.on_complete(...)`` resolves to the injected methods.
        (This edge class is exactly what the runtime lock-order recorder
        first caught missing from the static graph.)"""
        for function in self.functions:
            caller_cls = self.class_of(function)
            for call in function.calls:
                name = call.chain[-1]
                if not (name[:1].isupper() and name in self.classes):
                    continue
                target_cls = self.classes[name]
                param_to_attr = {
                    param: attr
                    for attr, param in target_cls.param_attr_aliases.items()
                }
                for kw in call.node.keywords:
                    if kw.arg is None or kw.arg not in param_to_attr:
                        continue
                    bound: FunctionInfo | None = None
                    if isinstance(kw.value, ast.Attribute):
                        chain = _attr_chain(kw.value)
                        if (
                            chain
                            and len(chain) == 2
                            and chain[0] == "self"
                            and caller_cls is not None
                        ):
                            bound = self.method_of(caller_cls.name, chain[1])
                    elif isinstance(kw.value, ast.Name):
                        candidates = self._unique_by_name(
                            kw.value.id, methods=False
                        )
                        bound = candidates[0] if candidates else None
                    if bound is not None:
                        target_cls.callback_targets.setdefault(
                            param_to_attr[kw.arg], []
                        ).append(bound)

    def _bind_callable_params(self) -> None:
        """Bind a function passed to a ``self`` method — as a reference
        (``self._drain``) or a one-call lambda (``lambda: self._kill(t)``)
        — to the parameter it lands in, so a call of that parameter
        (``body()``) resolves to every function passed for it.  The
        callback binding above, for method parameters."""
        for function in self.functions:
            for call in function.calls:
                chain = call.chain
                if not (len(chain) == 2 and chain[0] == "self" and function.class_name):
                    continue
                callee = self.method_of(function.class_name, chain[1])
                if callee is None:
                    continue
                called = {site.chain[0] for site in callee.calls if len(site.chain) == 1}
                params = [arg.arg for arg in callee.node.args.args[1:]]
                for param, value in zip(params, call.node.args):
                    if param not in called:
                        continue
                    if isinstance(value, ast.Lambda) and isinstance(value.body, ast.Call):
                        value = value.body.func
                    if not isinstance(value, ast.Attribute):
                        continue
                    site = CallSite(chain=_attr_chain(value), lineno=value.lineno, node=call.node)
                    for bound in self.resolve_call(function, site):
                        callee.param_targets.setdefault(param, []).append(bound)

    # -- resolution -----------------------------------------------------

    def class_of(self, info: FunctionInfo) -> ClassInfo | None:
        if info.class_name is None:
            return None
        return self.classes.get(info.class_name)

    def method_of(self, class_name: str, method: str) -> FunctionInfo | None:
        """Look up a method on a class or (transitively) its named bases."""
        seen: set[str] = set()
        stack = [class_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    def resolve_chain_type(self, owner: ClassInfo | None, chain: tuple[str, ...]) -> str | None:
        """Walk ``("self", "store", "kv")`` through attribute-type facts,
        returning the class name the chain denotes (or None)."""
        if not chain or chain[0] != "self" or owner is None:
            return None
        current = owner
        for attr in chain[1:]:
            type_name = current.attr_types.get(attr)
            if type_name is None:
                return None
            next_cls = self.classes.get(type_name)
            if next_cls is None:
                return type_name if attr == chain[-1] else None
            current = next_cls
        return current.name

    def resolve_call(
        self, caller: FunctionInfo, call: CallSite
    ) -> tuple[FunctionInfo, ...]:
        """Resolve a call site to callee definitions (possibly empty)."""
        chain = call.chain
        terminal = call.terminal
        # ClassName(...) as constructor (checked first: a bare class name
        # is also a "plain name" but must bind to __init__).
        if terminal[:1].isupper() and terminal in self.classes:
            ctor = self.method_of(terminal, "__init__")
            return (ctor,) if ctor is not None else ()
        # A callable parameter: every function callers pass for it.
        if len(chain) == 1 and terminal in caller.param_targets:
            return tuple(caller.param_targets[terminal])
        # Plain name: local module function, else unique global function.
        if len(chain) == 1:
            local = self._module_functions.get((caller.module.name, terminal))
            if local is not None:
                return (local,)
            return self._unique_by_name(terminal, methods=False)
        # self.method()
        if chain[0] == "self" and len(chain) == 2 and caller.class_name:
            resolved = self.method_of(caller.class_name, terminal)
            if resolved is not None:
                return (resolved,)
            # A callback attribute: every method callers inject for it.
            owner = self.classes.get(caller.class_name)
            if owner is not None and terminal in owner.callback_targets:
                return tuple(owner.callback_targets[terminal])
        # Typed chain: self.attr[.attr...].method()
        if chain[0] == "self" and len(chain) >= 3:
            type_name = self.resolve_chain_type(self.class_of(caller), chain[:-1])
            if type_name is not None:
                resolved = self.method_of(type_name, terminal)
                if resolved is not None:
                    return (resolved,)
                return ()  # typed, but the type has no such method: builtin
        # ClassName.method()
        if len(chain) == 2 and chain[0] in self.classes:
            resolved = self.method_of(chain[0], terminal)
            if resolved is not None:
                return (resolved,)
        # Unique-name fallback (never for ambiguous collection-ish names).
        return self._unique_by_name(terminal, methods=True)

    def _unique_by_name(self, name: str, methods: bool) -> tuple[FunctionInfo, ...]:
        if name in AMBIGUOUS_METHOD_NAMES or name.startswith("__"):
            return ()
        candidates = self._functions_by_name.get(name, [])
        if not methods:
            candidates = [c for c in candidates if c.class_name is None]
        if len(candidates) == 1:
            return (candidates[0],)
        return ()

    # -- traversal helpers ----------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions)


def _annotation_class(annotation: ast.expr | None) -> str | None:
    """The class name an annotation denotes, unwrapping Optional-ish
    string annotations like ``"TropicStore | None"``."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Name) and annotation.id[:1].isupper():
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.split("|")[0].strip().strip('"')
        text = text.split(".")[-1]
        if text[:1].isupper() and text.isidentifier():
            return text
    if isinstance(annotation, ast.BinOp):  # X | None
        return _annotation_class(annotation.left)
    return None


def load_modules(root: Path, package: str = "repro") -> list[SourceModule]:
    """Parse every ``*.py`` under ``root`` into :class:`SourceModule`."""
    modules: list[SourceModule] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        parts = [package] + list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        modules.append(SourceModule(name, path, path.read_text(encoding="utf-8")))
    return modules


def load_index(root: Path | str, package: str = "repro") -> AnalysisIndex:
    """Build the :class:`AnalysisIndex` for a source tree."""
    return AnalysisIndex(load_modules(Path(root), package))


def index_from_sources(sources: dict[str, str]) -> AnalysisIndex:
    """Build an index from in-memory module sources (fixture helper used
    by the checker tests: ``{"repro.fix.mod": "class A: ..."}``)."""
    return AnalysisIndex(
        [
            SourceModule(name, Path(f"/fixture/{name.replace('.', '/')}.py"), text)
            for name, text in sources.items()
        ]
    )
