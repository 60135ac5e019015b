"""Shared helpers for the benchmark harness.

Every benchmark prints, via the helpers in :mod:`repro.metrics.report`, the
rows/series corresponding to one table or figure of the paper, and asserts
the *shape* of the result (who wins, how quantities scale) rather than the
absolute numbers, which depend on the host machine.

Scale knobs: the paper's experiments run against 12,500 compute hosts and a
1-hour trace on a 3-machine testbed.  The benchmarks default to a scaled-
down data centre and a time-compressed trace so the whole suite finishes in
a few minutes; set the environment variables below to increase fidelity:

* ``TROPIC_BENCH_HOSTS``      — compute hosts in the logical-only fleet
* ``TROPIC_BENCH_WINDOW``     — EC2 trace window in seconds (paper: 3600)
* ``TROPIC_BENCH_COMPRESSION``— trace time compression factor
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_scale():
    """Benchmark scale parameters (overridable via environment variables)."""
    return {
        "hosts": env_int("TROPIC_BENCH_HOSTS", 200),
        "storage_hosts": env_int("TROPIC_BENCH_STORAGE_HOSTS", 50),
        "window_s": env_int("TROPIC_BENCH_WINDOW", 120),
        "compression": env_float("TROPIC_BENCH_COMPRESSION", 6.0),
        "multipliers": (1, 2, 3, 4, 5),
    }


def bench_json_emit(name: str, payload: dict) -> None:
    """Append one benchmark result fragment (JSON lines) to the path named
    by ``TROPIC_BENCH_JSON_OUT``; no-op when the variable is unset, so a
    run can collect the paper-figure results as machine-readable lines."""
    out = os.environ.get("TROPIC_BENCH_JSON_OUT")
    if not out:
        return
    import json

    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"name": name, **payload}, sort_keys=True) + "\n")


def print_block(text: str) -> None:
    """Print a report block surrounded by blank lines so it stands out in
    the pytest-benchmark output."""
    print("\n" + text + "\n")


def mean_seconds(benchmark) -> float:
    """Mean per-iteration time of a finished ``benchmark`` fixture, in seconds.

    Handles both the mapping-style and attribute-style stats interfaces of
    pytest-benchmark versions.
    """
    stats = benchmark.stats
    try:
        return float(stats["mean"])
    except (TypeError, KeyError):
        inner = getattr(stats, "stats", stats)
        return float(inner.mean)
