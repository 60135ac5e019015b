"""Unit tests for the procedure registry, queue messages and TCloud procedures."""

import pytest

from repro.common.errors import ConfigurationError, ProcedureError
from repro.core.constraints import ConstraintEngine
from repro.core.events import (
    KIND_EXECUTE,
    KIND_REQUEST,
    KIND_RESULT,
    execute_message,
    request_message,
    result_message,
)
from repro.core.procedures import DEFAULT_REGISTRY, ProcedureRegistry, procedure
from repro.core.simulation import LogicalExecutor
from repro.core.txn import Transaction
from repro.tcloud.procedures import build_procedures, disk_image_name


class TestProcedureRegistry:
    def test_register_and_get(self):
        registry = ProcedureRegistry()
        registry.register("noop", lambda ctx: None)
        assert registry.has("noop")
        assert registry.get("noop") is not None
        assert registry.names() == ["noop"]

    def test_duplicate_rejected(self):
        registry = ProcedureRegistry()
        registry.register("p", lambda ctx: None)
        with pytest.raises(ConfigurationError):
            registry.register("p", lambda ctx: None)

    def test_unknown_procedure_raises(self):
        with pytest.raises(ProcedureError):
            ProcedureRegistry().get("ghost")

    def test_decorator_uses_function_name_by_default(self):
        registry = ProcedureRegistry()

        @registry.procedure()
        def my_proc(ctx):
            return 1

        assert registry.has("my_proc")

    def test_merge(self):
        a = ProcedureRegistry()
        a.register("one", lambda ctx: 1)
        b = ProcedureRegistry()
        b.register("two", lambda ctx: 2)
        a.merge(b)
        assert a.names() == ["one", "two"]
        assert len(a) == 2

    def test_module_level_decorator_registers_globally(self):
        name = "global_test_proc_unique"
        if not DEFAULT_REGISTRY.has(name):
            @procedure(name)
            def global_proc(ctx):
                return "ok"
        assert DEFAULT_REGISTRY.has(name)


class TestMessages:
    def test_request_message(self):
        msg = request_message("t1")
        assert msg == {"kind": KIND_REQUEST, "txid": "t1"}

    def test_execute_message(self):
        msg = execute_message("t2", [], epoch=3)
        assert msg == {"kind": KIND_EXECUTE, "txid": "t2", "epoch": 3, "log": []}

    def test_result_message_fields(self):
        msg = result_message("t3", "aborted", error="boom", failed_path="/a", worker="w0")
        assert msg["kind"] == KIND_RESULT
        assert msg["outcome"] == "aborted"
        assert msg["error"] == "boom"
        assert msg["failed_path"] == "/a"
        assert msg["worker"] == "w0"


class TestTCloudProcedureRegistry:
    def test_all_expected_procedures_registered(self):
        registry = build_procedures()
        expected = {"spawnVM", "startVM", "stopVM", "destroyVM", "migrateVM",
                    "createVLAN", "deleteVLAN", "attachVMToVLAN"}
        assert expected <= set(registry.names())

    def test_disk_image_name(self):
        assert disk_image_name("web1") == "web1-disk"

    def test_destroy_vm_cleans_storage(self, model, schema):
        procedures = build_procedures()
        executor = LogicalExecutor(model, schema, procedures, ConstraintEngine(schema))
        spawn = Transaction("spawnVM", {
            "vm_name": "vm1", "image_template": "template-small",
            "storage_host": "/storageRoot/storageHost0",
            "vm_host": "/vmRoot/vmHost0", "mem_mb": 512,
        })
        assert executor.simulate(spawn).ok
        destroy = Transaction("destroyVM", {
            "vm_name": "vm1", "vm_host": "/vmRoot/vmHost0",
            "storage_host": "/storageRoot/storageHost0",
        })
        outcome = executor.simulate(destroy)
        assert outcome.ok
        assert not model.exists("/vmRoot/vmHost0/vm1")
        assert not model.exists("/storageRoot/storageHost0/vm1-disk")
        actions = [record.action for record in destroy.log]
        assert actions == ["stopVM", "removeVM", "unimportImage", "unexportImage", "removeImage"]

    def test_spawn_with_vlan_attachment(self, model, schema):
        procedures = build_procedures()
        executor = LogicalExecutor(model, schema, procedures, ConstraintEngine(schema))
        vlan = Transaction("createVLAN", {"router": "/netRoot/router0", "vlan_id": 7})
        assert executor.simulate(vlan).ok
        spawn = Transaction("spawnVM", {
            "vm_name": "vm1", "image_template": "template-small",
            "storage_host": "/storageRoot/storageHost0",
            "vm_host": "/vmRoot/vmHost0", "mem_mb": 512,
            "router": "/netRoot/router0", "vlan_id": 7,
        })
        assert executor.simulate(spawn).ok
        assert len(spawn.log) == 6
        assert spawn.log[5].action == "attachPort"
        assert model.get("/netRoot/router0/vlan7")["ports"] == ["vm1"]

    def test_migrate_of_stopped_vm_stays_stopped(self, model, schema):
        procedures = build_procedures()
        executor = LogicalExecutor(model, schema, procedures, ConstraintEngine(schema))
        spawn = Transaction("spawnVM", {
            "vm_name": "vm1", "image_template": "template-small",
            "storage_host": "/storageRoot/storageHost0",
            "vm_host": "/vmRoot/vmHost0", "mem_mb": 512,
        })
        stop = Transaction("stopVM", {"vm_host": "/vmRoot/vmHost0", "vm_name": "vm1"})
        migrate = Transaction("migrateVM", {
            "vm_name": "vm1", "src_host": "/vmRoot/vmHost0", "dst_host": "/vmRoot/vmHost1",
        })
        assert executor.simulate(spawn).ok
        assert executor.simulate(stop).ok
        assert executor.simulate(migrate).ok
        assert model.get("/vmRoot/vmHost1/vm1")["state"] == "stopped"
        # No startVM/stopVM records are needed for a stopped VM.
        actions = [record.action for record in migrate.log]
        assert "startVM" not in actions

    def test_migrate_to_same_host_rejected(self, model, schema):
        procedures = build_procedures()
        executor = LogicalExecutor(model, schema, procedures, ConstraintEngine(schema))
        spawn = Transaction("spawnVM", {
            "vm_name": "vm1", "image_template": "template-small",
            "storage_host": "/storageRoot/storageHost0",
            "vm_host": "/vmRoot/vmHost0", "mem_mb": 512,
        })
        assert executor.simulate(spawn).ok
        migrate = Transaction("migrateVM", {
            "vm_name": "vm1", "src_host": "/vmRoot/vmHost0", "dst_host": "/vmRoot/vmHost0",
        })
        assert not executor.simulate(migrate).ok
