"""CLI driver: ``python -m repro.analysis`` (also ``make analyze``).

Exit status: 0 when every finding is waived inline (and, with
``--check-trace``, the runtime trace is a subgraph of the static lock
graph); 1 on any unwaived finding, unjustified waiver, unwaived
lock-order cycle or trace/static mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.checkers import CHECKERS, run_checkers
from repro.analysis.core import load_index
from repro.analysis.lockgraph import build_lock_graph
from repro.analysis.recorder import load_trace_edges
from repro.analysis.report import (
    format_findings,
    format_json,
    format_lock_graph,
    write_trace_report,
)

_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_SRC = _REPO_ROOT / "src" / "repro"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static concurrency & protocol invariant analyzer.",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=str(DEFAULT_SRC),
        help="source tree to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        default="",
        help=f"comma-separated checker subset ({', '.join(CHECKERS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--show-waived", action="store_true", help="also list waived findings"
    )
    parser.add_argument(
        "--lock-graph",
        action="store_true",
        help="print the static lock-order graph and exit",
    )
    parser.add_argument(
        "--check-trace",
        metavar="TRACE",
        help="assert a recorded runtime lock-order trace (REPRO_LOCK_ORDER="
        "record) is a subgraph of the static graph",
    )
    args = parser.parse_args(argv)

    index = load_index(args.root)

    if args.lock_graph:
        print(format_lock_graph(build_lock_graph(index)))
        return 0

    if args.check_trace:
        graph = build_lock_graph(index)
        static_edges = graph.edge_pairs()
        known = set(graph.nodes)
        missing = [
            (src, dst)
            for src, dst in load_trace_edges(args.check_trace)
            if (src, dst) not in static_edges and src in known and dst in known
        ]
        print(write_trace_report(Path(args.check_trace), missing))
        return 1 if missing else 0

    only = [name.strip() for name in args.rules.split(",") if name.strip()] or None
    findings = run_checkers(index, only=only)

    active = [f for f in findings if not f.waived]
    if args.fmt == "json":
        sys.stdout.write(format_json(findings))
        return 1 if active else 0

    if args.show_waived or active:
        print(format_findings(findings, show_waived=args.show_waived))
    if active:
        return 1
    print(f"analysis: clean ({len(findings)} waived)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
