"""Unit tests for clocks, id generation, config and JSON helpers."""

import threading

import pytest

from repro.common.clock import RealClock, Stopwatch, VirtualClock
from repro.common.config import TropicConfig
from repro.common.errors import ReproError, TransactionAborted
from repro.common.idgen import IdGenerator, monotonic_id, random_id
from repro.common.jsonutil import deep_copy, dumps, loads


class TestClocks:
    def test_real_clock_monotonic(self):
        clock = RealClock()
        first = clock.now()
        clock.sleep(0.001)
        assert clock.now() >= first

    def test_virtual_clock_advance(self):
        clock = VirtualClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(5.0)
        assert clock.now() == 15.0

    def test_virtual_clock_rejects_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(-5.0)

    def test_virtual_clock_sleep_wakes_on_advance(self):
        clock = VirtualClock()
        done = threading.Event()

        def sleeper():
            clock.sleep(5.0)
            done.set()

        thread = threading.Thread(target=sleeper, daemon=True)
        thread.start()
        clock.advance(10.0)
        assert done.wait(timeout=2.0)

    def test_stopwatch_accumulates(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        with watch:
            clock.advance(2.0)
        clock.advance(5.0)  # not counted
        with watch:
            clock.advance(1.0)
        assert watch.busy_seconds == pytest.approx(3.0)
        watch.reset()
        assert watch.busy_seconds == 0.0

    def test_stopwatch_double_start_is_safe(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        watch.start()
        watch.start()
        clock.advance(1.0)
        watch.stop()
        assert watch.busy_seconds == pytest.approx(1.0)


class TestIdGeneration:
    def test_prefixed_monotonic(self):
        gen = IdGenerator("txn")
        first, second = gen.next(), gen.next()
        assert first == "txn-000001"
        assert first < second

    def test_global_counter_shared_per_prefix(self):
        a = monotonic_id("unit-test-prefix")
        b = monotonic_id("unit-test-prefix")
        assert a != b and a.split("-")[-1] < b.split("-")[-1]

    def test_random_id_unique(self):
        assert random_id("c") != random_id("c")

    def test_thread_safety(self):
        gen = IdGenerator("p")
        results = []

        def worker():
            for _ in range(200):
                results.append(gen.next())

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == len(set(results)) == 800


class TestConfig:
    def test_defaults_validate(self):
        TropicConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_controllers": 0},
            {"num_workers": 0},
            {"cross_shard_policy": "pin"},
            {"scheduler_policy": "weird"},
            {"session_timeout": 0.01, "heartbeat_interval": 0.05},
            {"checkpoint_every": 0},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            TropicConfig(**overrides).validate()

    def test_with_overrides_returns_copy(self):
        base = TropicConfig()
        derived = base.with_overrides(logical_only=True)
        assert derived.logical_only and not base.logical_only


class TestErrorsAndJson:
    def test_exception_hierarchy(self):
        assert issubclass(TransactionAborted, ReproError)
        error = TransactionAborted("boom", txid="t1", reason="constraint")
        assert error.txid == "t1" and error.reason == "constraint"

    def test_dumps_deterministic(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})

    def test_loads_handles_empty(self):
        assert loads(None) is None
        assert loads("") is None
        assert loads(b'{"x": 1}') == {"x": 1}

    def test_deep_copy_is_independent(self):
        original = {"a": [1, 2, {"b": 3}]}
        copy = deep_copy(original)
        copy["a"][2]["b"] = 99
        assert original["a"][2]["b"] == 3
