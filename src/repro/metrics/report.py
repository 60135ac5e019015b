"""ASCII rendering of tables and figure-style series.

The benchmark harness prints, for every table and figure of the paper, the
same rows/series the paper reports.  These helpers keep that output uniform
and readable in terminal logs (``bench_output.txt``).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render a fixed-width table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def format_series(
    series: Sequence[tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
    width: int = 50,
) -> str:
    """Render an (x, y) series with a proportional bar per row."""
    if not series:
        return f"{title}\n(empty series)"
    max_y = max(y for _, y in series) or 1.0
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label:>12}  {y_label:>10}")
    for x, y in series:
        bar = "#" * int(round(width * y / max_y))
        lines.append(f"{x:>12.2f}  {y:>10.4f}  {bar}")
    return "\n".join(lines)


def format_cdf(
    points: Sequence[tuple[float, float]],
    fractions: Sequence[float] = (0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00),
    value_label: str = "latency (s)",
    title: str = "",
) -> str:
    """Summarise a CDF at the requested cumulative fractions (Figure 5 style)."""
    if not points:
        return f"{title}\n(empty CDF)"
    rows = []
    for target in fractions:
        value = next((v for v, fraction in points if fraction >= target), points[-1][0])
        rows.append((f"{target * 100:.0f}%", f"{value:.4f}"))
    return ascii_table(("CDF", value_label), rows, title=title)


#: Human-readable labels for the ResilienceCounters fields, in display
#: order (see repro.metrics.collectors.ResilienceCounters.as_dict).
_RESILIENCE_LABELS = (
    ("retries", "client retries"),
    ("token_dedup_hits", "token dedup hits (exactly-once re-drives)"),
    ("session_expiries", "coordination sessions re-established"),
    ("watch_rearms", "watches re-armed after session loss"),
    ("degraded_reads", "reads served degraded (replica/partial)"),
)


def format_resilience(counters: dict[str, int], title: str = "resilience") -> str:
    """Render the fault-tolerance counters (``Platform.resilience_stats``)
    as a table, using stable labels so operators can grep run logs."""
    rows = [(label, counters.get(key, 0)) for key, label in _RESILIENCE_LABELS]
    for key in sorted(counters):
        if key not in {k for k, _ in _RESILIENCE_LABELS}:
            rows.append((key, counters[key]))
    return ascii_table(("event", "count"), rows, title=title)
