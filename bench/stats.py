"""Statistics helpers of the benchmark: host-speed calibration,
percentiles, rep aggregation, quartile spread and span self-times.  No
repro imports."""

from __future__ import annotations

import statistics
import time
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1), so p95 needs 200 samples, p50 needs 20.
MIN_SAMPLES_BEYOND = 10


#: Calibration spin: a fixed piece of interpreter work timed next to every
#: measured interval.  On the 2-core sandbox it takes 2.1 to 2.9 ms depending
#: on the second it runs in; ``REFERENCE_SPIN_S`` is the middle of that, so
#: times at reference speed read like this host's raw times on a typical
#: second.  The constant only fixes the unit: parent and child are scaled
#: by the same rule.
SPIN_ITERATIONS = 60_000
REFERENCE_SPIN_S = 0.0025


def spin() -> float:
    """Run the calibration spin once; returns its wall seconds."""
    started = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


def at_reference_speed(wall_s: float, cpu_s: float, spin_s: float) -> float:
    """The wall time an interval would have taken on a host that runs the
    calibration spin in ``REFERENCE_SPIN_S``, given that it took
    ``wall_s`` (of which ``cpu_s`` on the CPU) while the spin took
    ``spin_s``.  CPU time scales with host speed; waiting (the simulated
    coordination round-trips) does not."""
    cpu_s = min(max(cpu_s, 0.0), wall_s)
    return (wall_s - cpu_s) + cpu_s * REFERENCE_SPIN_S / spin_s


class Interval:
    """One measured interval bracketed by two calibration spins.

    The host's speed wanders by 10-20 % from one second to the next (CPU
    time tracks wall: the same bytecode just runs slower), which is more
    than most changes this benchmark has to detect.  Every interval is
    therefore reported at reference host speed: its CPU time is rescaled by
    how long the spin took right before and after it (see
    :func:`at_reference_speed`); the raw wall time stays beside it."""

    def __init__(self, spin_before: float | None = None):
        self.spin_before = spin() if spin_before is None else spin_before
        self.cpu_started = time.process_time()
        self.started = time.perf_counter()

    def stop(self, unclocked_s: float = 0.0) -> "Interval":
        """``unclocked_s`` of pure-CPU output checking is taken off."""
        self.wall_s = time.perf_counter() - self.started - unclocked_s
        cpu_s = time.process_time() - self.cpu_started - unclocked_s
        self.spin_after = spin()
        self.spin_s = (self.spin_before + self.spin_after) / 2.0
        self.reference_s = at_reference_speed(self.wall_s, cpu_s, self.spin_s)
        return self


def min_samples(q: float) -> int:
    """Smallest sample count for which ``percentile(values, q)`` is allowed."""
    tail = 1.0 - q / 100.0
    needed = MIN_SAMPLES_BEYOND / tail
    return int(needed) if needed == int(needed) else int(needed) + 1


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the percentile: a p95 over 50 samples is the
    third-largest value, which is an outlier report, not a percentile."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    count = len(values)
    if count < min_samples(q):
        raise ValueError(
            f"p{q:g} needs >= {min_samples(q)} samples "
            f"({MIN_SAMPLES_BEYOND} beyond it), got {count}"
        )
    ordered = sorted(values)
    rank = -(-count * q // 100)  # ceil(count * q / 100)
    return ordered[int(rank) - 1]


def aggregate(values: Sequence[float]) -> dict[str, float]:
    """Median with min-max over the reps of one metric."""
    if not values:
        raise ValueError("cannot aggregate zero reps")
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "reps": len(values),
    }


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first``
    (negative = better) for a metric whose good direction is ``better``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = (second - first) / first
    return change if better == "lower" else -change


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``
    (clipped to it); intervals may nest or overlap."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of every span: its duration minus the part of that
    interval its direct children cover.

    ``spans[i]`` is ``(name, start, end, parent, ...)`` with ``parent`` an
    index into ``spans`` (``-1`` for a root).  Summed over a tree the self
    times equal the root's duration, which is what makes the per-layer
    ledger add up to the timed wall."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        kids = children.get(index)
        duration = end - start
        result.append(duration - covered(kids, start, end) if kids else duration)
    return result
