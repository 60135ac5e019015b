"""Unit tests of the benchmark's own arithmetic (plain pytest, fast)."""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TestPercentile:
    def test_p95_leaves_ten_samples_beyond_it(self):
        values = list(range(1, 201))
        p95 = stats.percentile(values, 95)
        assert p95 == 190
        assert sum(v > p95 for v in values) == stats.MIN_SAMPLES_BEYOND

    def test_p95_is_refused_below_200_samples(self):
        with pytest.raises(ValueError, match="200 samples"):
            stats.percentile(list(range(199)), 95)
        assert stats.min_samples(95) == 200
        assert stats.min_samples(50) == 20
        assert stats.min_samples(99) == 1000

    def test_median_needs_twenty_samples_and_ignores_order(self):
        with pytest.raises(ValueError):
            stats.percentile(list(range(19)), 50)
        assert stats.percentile([5, 1, 4, 2, 3] * 4, 50) == 3

    def test_rejects_percentiles_outside_the_open_interval(self):
        for q in (0, 100, -1):
            with pytest.raises(ValueError):
                stats.percentile(list(range(1000)), q)


class TestAggregation:
    def test_median_with_min_max_over_reps(self):
        assert stats.aggregate([3.0, 1.0, 2.0]) == {
            "median": 2.0, "min": 1.0, "max": 3.0, "reps": 3}
        with pytest.raises(ValueError):
            stats.aggregate([])

    def test_worsening_respects_the_good_direction(self):
        assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
        assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
        assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
        with pytest.raises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")


class TestReferenceSpeed:
    def test_cpu_time_scales_with_host_speed_and_waiting_does_not(self):
        slow = 2.0 * stats.REFERENCE_SPIN_S  # the host ran at half speed
        assert stats.at_reference_speed(1.0, 1.0, slow) == pytest.approx(0.5)
        assert stats.at_reference_speed(1.0, 0.0, slow) == pytest.approx(1.0)
        assert stats.at_reference_speed(1.0, 0.2, slow) == pytest.approx(0.9)
        assert stats.at_reference_speed(1.0, 1.0, stats.REFERENCE_SPIN_S) == pytest.approx(1.0)

    def test_cpu_time_is_clamped_to_the_interval(self):
        fast = stats.REFERENCE_SPIN_S
        assert stats.at_reference_speed(1.0, 1.5, fast) == pytest.approx(1.0)
        assert stats.at_reference_speed(1.0, -0.1, fast) == pytest.approx(1.0)

    def test_an_interval_is_bracketed_by_spins(self):
        interval = stats.Interval()
        stats.spin()
        interval.stop()
        assert interval.spin_before > 0.0 and interval.spin_after > 0.0
        assert interval.spin_s == (interval.spin_before + interval.spin_after) / 2.0
        assert 0.0 < interval.reference_s
        shared = stats.Interval(interval.spin_after)
        assert shared.spin_before == interval.spin_after

    def test_unclocked_checks_are_taken_off_the_interval(self):
        interval = stats.Interval()
        time.sleep(0.02)
        interval.stop(unclocked_s=0.015)
        assert 0.005 <= interval.wall_s < 0.1


class TestSelfTimes:
    def test_nested_spans_sum_to_the_root(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a.inner", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
        ]
        selfs = stats.self_times(spans)
        assert selfs == [3.0, 2.0, 1.0, 4.0]
        assert sum(selfs) == 10.0

    def test_overlapping_children_are_counted_once(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("x", 1.0, 6.0, 0),
            ("y", 4.0, 8.0, 0),  # overlaps x for 2 s
            ("z", 9.0, 12.0, 0),  # runs past its parent: clipped
        ]
        assert stats.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)

    def test_covered_clips_and_merges(self):
        assert stats.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
        assert stats.covered([(-5, 1), (9, 20)], 0, 10) == 2
        assert stats.covered([], 0, 10) == 0


class TestSeededGenerators:
    @pytest.mark.parametrize("name", ["gw_lifecycle", "ctl_burst", "xshard_2pc"])
    def test_rounds_are_pure_functions_of_the_seed(self, name):
        def sequence(seed):
            workload = WORKLOADS[name](seed, quick=True)
            workload.build()
            try:
                return [repr(workload.plan(index)) for index in range(3)]
            finally:
                workload.teardown()

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_xshard_crosses_one_request_in_four_and_destroys_without_conflicts(self):
        workload = WORKLOADS["xshard_2pc"](1, quick=True)
        workload.build()
        try:
            router = workload.writer.platform.shard_router
            spawns, solos = workload.plan(0)
            crossed = [
                args for _, args in spawns
                if router.shard_of(args["vm_host"]) != router.shard_of(args["storage_host"])
            ]
            assert solos == []
            assert len(crossed) * workload.cross_every == len(spawns)
            # No destroy burst names a storage host twice: nothing is deferred.
            creates, *destroys = workload.bursts(spawns)
            assert creates == spawns and sum(map(len, destroys)) == len(spawns)
            for burst in destroys:
                hosts = [args["storage_host"] for _, args in burst]
                assert len(set(hosts)) == len(hosts)
        finally:
            workload.teardown()
