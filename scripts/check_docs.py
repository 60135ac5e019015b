#!/usr/bin/env python
"""Documentation health check (CI `docs` job; `make docs-check`).

Four classes of rot this catches:

1. **Broken intra-repo links.**  Every relative markdown link in
   `docs/*.md`, `README.md` and `ROADMAP.md` must point at a file that
   exists; links into markdown files with a `#fragment` must name a
   heading that actually renders to that anchor (GitHub slug rules).
   The same anchor check covers the ``docs/<file>.md#anchor`` references
   inside module docstrings, so code and book cannot drift apart.
2. **Undocumented public modules.**  Every module under `src/repro/`
   (except empty `__init__.py` re-export stubs) must carry a module
   docstring.
3. **Undocumented configuration.**  Every `TropicConfig` field must have a
   row in the "Configuration" table of `docs/operations.md`, and every row
   there must name a field that exists.
4. **Stale code names.**  Every backticked code name in `docs/*.md` and
   `README.md` — a dotted name, a name with `_`, or a call `name(...)` —
   must still exist: its last segment occurs as an identifier in the
   Python code, or the name is a file (or file stem) in the repo.
   `ROADMAP.md` and `CHANGES.md` are exempt: they narrate deleted code.

Pure stdlib; exits non-zero with a report of every violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(Path(REPO, "docs").glob("*.md")) + [
    REPO / "README.md",
    REPO / "ROADMAP.md",
]
SRC_ROOT = REPO / "src" / "repro"
CONFIG_SOURCE = SRC_ROOT / "common" / "config.py"
OPERATIONS_DOC = REPO / "docs" / "operations.md"
#: Markdown whose backticked code names must name live code.
NAMED_DOCS = sorted(Path(REPO, "docs").glob("*.md")) + [REPO / "README.md"]
#: Where a documented code name may live.
CODE_DIRS = ("src", "bench", "scripts", "tests", "benchmarks")

#: ``[text](target)`` — good enough for the plain markdown used here
#: (no reference-style links, no angle brackets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: ``docs/<name>.md#anchor`` references inside Python docstrings.
_DOC_ANCHOR = re.compile(r"docs/([\w.-]+\.md)#([\w-]+)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
#: A row of the configuration table: ``| `field` | ...``.
_CONFIG_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_WORD = re.compile(r"[A-Za-z_]\w*")
#: ``a.b.c`` or ``a.b(...)``: a dotted name, optionally called.
_DOTTED = re.compile(r"^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?$")


def github_slug(heading: str) -> str:
    """The anchor GitHub renders for a heading: strip markdown emphasis
    and punctuation, lower-case, spaces to hyphens."""
    text = re.sub(r"[`*_]", "", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(markdown_path: Path) -> set[str]:
    anchors: set[str] = set()
    in_code_fence = False
    for line in markdown_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        match = _HEADING.match(line)
        if match:
            anchors.add(github_slug(match.group(2)))
    return anchors


def check_markdown_links() -> list[str]:
    errors: list[str] = []
    for doc in DOC_FILES:
        in_code_fence = False
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.lstrip().startswith("```"):
                in_code_fence = not in_code_fence
                continue
            if in_code_fence:
                continue
            for target in _LINK.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                    continue  # absolute URL (http:, mailto:, ...)
                where = f"{doc.relative_to(REPO)}:{lineno}"
                path_part, _, fragment = target.partition("#")
                if not path_part:  # same-file fragment
                    resolved = doc
                else:
                    resolved = (doc.parent / path_part).resolve()
                    if not resolved.exists():
                        errors.append(f"{where}: broken link {target!r} "
                                      f"(no such file {path_part!r})")
                        continue
                if fragment and resolved.suffix == ".md":
                    if fragment not in anchors_of(resolved):
                        errors.append(f"{where}: broken anchor {target!r} "
                                      f"(no heading slugs to #{fragment})")
    return errors


def check_docstring_anchors() -> list[str]:
    """``docs/x.md#anchor`` references in module docstrings must resolve."""
    errors: list[str] = []
    for module in sorted(SRC_ROOT.rglob("*.py")):
        doc = ast.get_docstring(ast.parse(module.read_text(encoding="utf-8")))
        if not doc:
            continue
        for name, fragment in _DOC_ANCHOR.findall(doc):
            target = REPO / "docs" / name
            where = str(module.relative_to(REPO))
            if not target.exists():
                errors.append(f"{where}: docstring references missing docs/{name}")
            elif fragment not in anchors_of(target):
                errors.append(f"{where}: docstring references docs/{name}#{fragment} "
                              f"but no heading slugs to it")
    return errors


def check_module_docstrings() -> list[str]:
    errors: list[str] = []
    for module in sorted(SRC_ROOT.rglob("*.py")):
        source = module.read_text(encoding="utf-8")
        if module.name == "__init__.py" and not source.strip():
            continue  # empty package marker
        if ast.get_docstring(ast.parse(source)) is None:
            errors.append(f"{module.relative_to(REPO)}: missing module docstring")
    return errors


def config_fields(source: str) -> list[str]:
    """The dataclass fields of ``TropicConfig`` in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == "TropicConfig":
            return [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return []


def documented_fields(markdown: str) -> list[str]:
    """First-column names of the table under the ``## Configuration`` heading."""
    fields: list[str] = []
    in_section = in_code_fence = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        heading = _HEADING.match(line)
        if heading and len(heading.group(1)) <= 2:
            in_section = github_slug(heading.group(2)) == "configuration"
            continue
        row = _CONFIG_ROW.match(line) if in_section else None
        if row:
            fields.append(row.group(1))
    return fields


def check_config_table(config_source: str, operations_md: str) -> list[str]:
    """One row per ``TropicConfig`` field, and no row for a missing one."""
    fields = config_fields(config_source)
    rows = documented_fields(operations_md)
    where = "docs/operations.md#configuration"
    return [
        f"{where}: no row for TropicConfig.{name}" for name in fields if name not in rows
    ] + [
        f"{where}: row for {name!r}, which is not a TropicConfig field"
        for name in rows
        if name not in fields
    ]


def code_names(markdown: str) -> list[tuple[int, str]]:
    """``(lineno, name)`` for every backticked code name outside code
    fences: a dotted name, a name with ``_``, or a call ``name(...)``
    (reported without its argument list)."""
    names: list[tuple[int, str]] = []
    in_code_fence = False
    for lineno, line in enumerate(markdown.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for span in _CODE_SPAN.findall(line):
            match = _DOTTED.match(span.strip())
            if match is None:
                continue
            name, call = match.groups()
            if call or "." in name or "_" in name:
                names.append((lineno, name))
    return names


def code_identifiers() -> set[str]:
    """Every identifier-shaped word in the Python files under
    ``CODE_DIRS`` — strings included, since workload names, stats keys
    and environment variables live there."""
    identifiers: set[str] = set()
    for folder in CODE_DIRS:
        for module in Path(REPO, folder).rglob("*.py"):
            identifiers.update(_WORD.findall(module.read_text(encoding="utf-8")))
    return identifiers


def repo_file_names() -> set[str]:
    """Names and stems of the repo's files (hidden directories skipped)."""
    names: set[str] = set()
    for path in REPO.rglob("*"):
        if any(part.startswith(".") for part in path.relative_to(REPO).parts):
            continue
        names.update((path.name, path.stem))
    return names


def check_code_names(
    docs: dict[str, str], identifiers: set[str], file_names: set[str]
) -> list[str]:
    """A documented code name must still name an identifier or a file."""
    return [
        f"{where}:{lineno}: `{name}` names no identifier or file in the repo"
        for where, markdown in docs.items()
        for lineno, name in code_names(markdown)
        if name.rsplit(".", 1)[-1] not in identifiers and name not in file_names
    ]


def main() -> int:
    errors = (
        check_markdown_links()
        + check_docstring_anchors()
        + check_module_docstrings()
        + check_config_table(
            CONFIG_SOURCE.read_text(encoding="utf-8"),
            OPERATIONS_DOC.read_text(encoding="utf-8"),
        )
        + check_code_names(
            {
                str(doc.relative_to(REPO)): doc.read_text(encoding="utf-8")
                for doc in NAMED_DOCS
            },
            code_identifiers(),
            repo_file_names(),
        )
    )
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    docs = len(DOC_FILES)
    modules = len(list(SRC_ROOT.rglob("*.py")))
    print(f"check_docs: OK ({docs} markdown files, {modules} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
