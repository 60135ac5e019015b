"""Unit tests for statistics helpers, collectors and report rendering."""

import pytest

from repro.datamodel.tree import DataModel
from repro.metrics.collectors import MemoryEstimator
from repro.metrics.report import ascii_table, format_cdf, format_series
from repro.metrics.stats import cdf_points, linear_correlation, mean, percentile, summary


class TestStats:
    def test_percentile_bounds(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 5
        assert percentile(values, 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([1, 2], 50) == pytest.approx(1.5)

    def test_percentile_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_cdf_points_monotone(self):
        points = cdf_points([3, 1, 2])
        assert points == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3)), (3, 1.0)]

    def test_cdf_of_empty(self):
        assert cdf_points([]) == []

    def test_summary(self):
        result = summary([2.0, 4.0, 6.0, 8.0])
        assert result["mean"] == 5.0
        assert result["min"] == 2.0 and result["max"] == 8.0
        assert result["count"] == 4

    def test_summary_empty(self):
        assert summary([])["count"] == 0

    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1, 2, 3]) == 2.0

    def test_linear_correlation(self):
        xs = [1, 2, 3, 4, 5]
        assert linear_correlation(xs, [2 * x for x in xs]) == pytest.approx(1.0)
        assert linear_correlation(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_linear_correlation_validates_input(self):
        with pytest.raises(ValueError):
            linear_correlation([1], [1])


class TestCollectors:
    def test_memory_estimator_scales_with_resources(self):
        small = DataModel()
        small.create("/a", "vmHost", {"mem_mb": 1})
        large = DataModel()
        for index in range(200):
            large.create(f"/h{index}", "vmHost", {"mem_mb": 1})
        assert MemoryEstimator.node_count(large) > MemoryEstimator.node_count(small)
        assert MemoryEstimator.estimate_bytes(large) > MemoryEstimator.estimate_bytes(small)
        assert MemoryEstimator.bytes_per_resource(large) > 0


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(("name", "value"), [("a", 1), ("long-name", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text
        assert len(lines) == 4

    def test_format_series(self):
        text = format_series([(0.0, 0.1), (1.0, 0.5)], "t", "util", title="S")
        assert "S" in text and "#" in text

    def test_format_series_empty(self):
        assert "empty" in format_series([], title="S")

    def test_format_cdf(self):
        points = cdf_points([0.1, 0.2, 0.3, 0.4])
        text = format_cdf(points, title="latency")
        assert "50%" in text and "latency" in text
