"""Unit tests for the TropicPlatform public API (inline runtime)."""

import pytest

from repro.common.config import TropicConfig
from repro.common.errors import ConfigurationError
from repro.core.platform import TransactionHandle, TropicPlatform
from repro.core.txn import TransactionState
from repro.tcloud.entities import build_schema
from repro.tcloud.inventory import build_inventory
from repro.tcloud.procedures import build_procedures


def make_platform(**config_kwargs):
    inventory = build_inventory(num_vm_hosts=3, num_storage_hosts=2, host_mem_mb=4096)
    platform = TropicPlatform(
        schema=build_schema(),
        procedures=build_procedures(),
        config=TropicConfig(**config_kwargs),
        registry=inventory.registry,
        initial_model=inventory.model,
    )
    return platform, inventory


def spawn_args(name, host="/vmRoot/vmHost0", storage="/storageRoot/storageHost0"):
    return {
        "vm_name": name,
        "image_template": "template-small",
        "storage_host": storage,
        "vm_host": host,
        "mem_mb": 512,
    }


class TestLifecycle:
    def test_submit_before_start_rejected(self):
        platform, _ = make_platform()
        with pytest.raises(ConfigurationError):
            platform.submit("spawnVM", spawn_args("vm1"))

    def test_context_manager_starts_and_stops(self):
        platform, _ = make_platform()
        with platform as started:
            assert started is platform
            txn = platform.submit("spawnVM", spawn_args("vm1"))
            assert txn.state is TransactionState.COMMITTED

    def test_start_is_idempotent(self):
        platform, _ = make_platform()
        platform.start()
        platform.start()
        assert len(platform.controllers) == 1
        platform.stop()

    def test_unknown_procedure_rejected_at_submit(self):
        platform, _ = make_platform()
        with platform:
            with pytest.raises(ConfigurationError):
                platform.submit("noSuchProcedure", {})

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            make_platform(num_workers=0)

    @pytest.mark.parametrize("crash", [False, True])
    def test_restarts_leave_a_constant_number_of_watchers(self, crash):
        """A successor on the same ensemble does not inherit its
        predecessors' persistent watchers, whether they stopped cleanly
        or their session expired first (the bench's crash-restart)."""
        platform, inventory = make_platform()
        ensemble = platform.ensemble
        first = None
        for generation in range(6):
            platform.start()
            txn = platform.submit("spawnVM", spawn_args(f"vm{generation}"))
            assert txn.state is TransactionState.COMMITTED
            watched = {path: len(w) for path, w in ensemble._child_streams.items() if w}
            first = first or watched
            # One per consumer: the queues' and each signal board's.
            assert watched == first and max(first.values()) <= 2
            if crash:
                ensemble.expire_session(platform.client.session_id)
            platform.stop()
            platform = TropicPlatform(
                schema=build_schema(),
                procedures=build_procedures(),
                registry=inventory.registry,
                ensemble=ensemble,
            )
        assert not any(ensemble._child_streams.values())


class TestSubmission:
    def test_submit_wait_returns_terminal_transaction(self):
        platform, _ = make_platform()
        with platform:
            txn = platform.submit("spawnVM", spawn_args("vm1"))
            assert txn.state is TransactionState.COMMITTED
            assert txn.result["vm"].endswith("/vm1")

    def test_submit_async_returns_handle(self):
        platform, _ = make_platform()
        with platform:
            handle = platform.submit("spawnVM", spawn_args("vm1"), wait=False)
            assert isinstance(handle, TransactionHandle)
            assert not handle.is_done()
            platform.run_until_idle()
            assert handle.is_done()
            assert handle.wait(5).state is TransactionState.COMMITTED

    def test_submit_many(self):
        platform, _ = make_platform()
        with platform:
            results = platform.submit_many(
                [("spawnVM", spawn_args(f"vm{i}", host=f"/vmRoot/vmHost{i}")) for i in range(3)]
            )
            assert all(txn.state is TransactionState.COMMITTED for txn in results)

    @pytest.mark.parametrize("token", [None, "tok"])
    def test_submit_costs_what_a_batch_of_one_costs(self, token):
        """``submit(x)`` is ``submit_many([x])``: the same coordination
        operations and round-trips, submission and execution included."""
        costs = []
        for submit in (
            lambda p: p.submit("spawnVM", spawn_args("vm1"), idempotency_token=token),
            lambda p: p.submit_many(
                [("spawnVM", spawn_args("vm1"))], idempotency_tokens=[token]
            )[0],
        ):
            platform, _ = make_platform()
            with platform:
                ensemble = platform.ensemble
                before = (
                    ensemble.op_count,
                    ensemble.write_round_trips,
                    ensemble.read_round_trips,
                )
                assert submit(platform).state is TransactionState.COMMITTED
                after = (
                    ensemble.op_count,
                    ensemble.write_round_trips,
                    ensemble.read_round_trips,
                )
                costs.append(tuple(b - a for a, b in zip(before, after)))
        assert costs[0] == costs[1]

    def test_completed_and_latencies_recorded(self):
        platform, _ = make_platform()
        with platform:
            platform.submit("spawnVM", spawn_args("vm1"))
            platform.submit("spawnVM", spawn_args("vm2", host="/vmRoot/vmHost1"))
            assert len(platform.completed()) == 2
            latencies = platform.latencies()
            assert len(latencies) == 2
            assert all(value >= 0 for value in latencies)

    def test_handle_refresh_reports_state(self):
        platform, _ = make_platform()
        with platform:
            handle = platform.submit("spawnVM", spawn_args("vm1"), wait=False)
            assert handle.state is TransactionState.INITIALIZED
            platform.run_until_idle()
            assert handle.state is TransactionState.COMMITTED

    def test_resource_count_reflects_model(self):
        platform, inventory = make_platform()
        with platform:
            before = platform.resource_count()
            platform.submit("spawnVM", spawn_args("vm1"))
            # A VM node and an image node were added to the logical model.
            assert platform.resource_count() == before + 2


class TestReconciliationHooks:
    def test_reconciler_requires_registry(self):
        platform = TropicPlatform(
            schema=build_schema(),
            procedures=build_procedures(),
            config=TropicConfig(logical_only=True),
            initial_model=build_inventory(num_vm_hosts=1, num_storage_hosts=1,
                                          with_devices=False).model,
        )
        with platform:
            with pytest.raises(ConfigurationError):
                platform.reconciler()

    def test_repair_and_reload_via_platform(self):
        platform, inventory = make_platform()
        with platform:
            platform.submit("spawnVM", spawn_args("vm1"))
            inventory.registry.device_at("/vmRoot/vmHost0").power_cycle()
            report = platform.repair("/vmRoot/vmHost0")
            assert report.clean
            reload_report = platform.reload("/storageRoot/storageHost1")
            assert reload_report.applied

    def test_kill_leader_requires_threaded_runtime(self):
        platform, _ = make_platform()
        with platform:
            with pytest.raises(ConfigurationError):
                platform.kill_leader()
