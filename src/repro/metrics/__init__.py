"""Statistics, collectors and report rendering for the evaluation harness."""

from repro.metrics.stats import cdf_points, percentile, summary
from repro.metrics.collectors import MemoryEstimator
from repro.metrics.report import ascii_table, format_cdf, format_series

__all__ = [
    "percentile",
    "cdf_points",
    "summary",
    "MemoryEstimator",
    "ascii_table",
    "format_series",
    "format_cdf",
]
