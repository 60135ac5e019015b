"""Finding/report formatting for the analyzer CLI and CI logs."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.core import Finding
from repro.analysis.lockgraph import LockGraph


def _relpath(module: str) -> str:
    return "src/" + module.replace(".", "/") + ".py"


def format_findings(
    findings: list[Finding], show_waived: bool = False
) -> str:
    lines: list[str] = []
    active = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]
    for finding in active:
        lines.append(
            f"{_relpath(finding.module)}:{finding.lineno}: "
            f"[{finding.rule}] {finding.qualname}: {finding.message}"
        )
    if show_waived:
        for finding in waived:
            why = finding.waiver.justification if finding.waiver else ""
            lines.append(
                f"{_relpath(finding.module)}:{finding.lineno}: "
                f"[waived:{finding.rule}] {finding.qualname}: {why or finding.message}"
            )
    lines.append(
        f"analysis: {len(active)} finding(s), {len(waived)} waived"
    )
    return "\n".join(lines)


def format_json(findings: list[Finding]) -> str:
    return json.dumps(
        [
            {
                "rule": f.rule,
                "file": _relpath(f.module),
                "line": f.lineno,
                "qualname": f.qualname,
                "message": f.message,
                "key": f.key,
                "waived": f.waived,
                "justification": (
                    f.waiver.justification if f.waiver is not None else None
                ),
            }
            for f in findings
        ],
        indent=2,
    ) + "\n"


def format_lock_graph(graph: LockGraph) -> str:
    lines = [f"{len(graph.nodes)} locks, {len(graph.edges)} ordered pairs"]
    for name in sorted(graph.nodes):
        lines.append(f"  lock {name} ({graph.nodes[name]})")
    for (src, dst), edges in sorted(graph.edges.items()):
        example = edges[0]
        via = f" via {example.via}" if example.via else ""
        lines.append(
            f"  {src} -> {dst}  "
            f"[{example.function.full_qualname}:{example.lineno}{via}]"
        )
    cycles = graph.cycles()
    if cycles:
        lines.append(f"  {len(cycles)} cycle(s):")
        for cycle in cycles:
            lines.append("    " + " -> ".join(cycle + (cycle[0],)))
    else:
        lines.append("  no cycles")
    return "\n".join(lines)


def write_trace_report(path: Path, missing: list[tuple[str, str]]) -> str:
    if not missing:
        return f"trace {path}: every recorded edge is in the static graph"
    lines = [f"trace {path}: {len(missing)} edge(s) missing from the static graph:"]
    for src, dst in missing:
        lines.append(f"  runtime observed {src} -> {dst}")
    return "\n".join(lines)
