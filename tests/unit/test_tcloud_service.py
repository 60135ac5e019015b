"""Unit tests for the TCloud service layer, placement and inventory."""

import pytest

from repro.common.errors import ProcedureError
from repro.core.txn import TransactionState
from repro.tcloud.inventory import build_inventory, hosts
from repro.tcloud.placement import PlacementEngine
from repro.tcloud.service import build_tcloud


class TestInventory:
    def test_logical_and_physical_fleets_match(self):
        inventory = build_inventory(num_vm_hosts=3, num_storage_hosts=2)
        from repro.datamodel.snapshot import diff_models

        physical = inventory.registry.build_physical_model()
        assert diff_models(inventory.model, physical).is_empty

    def test_counts(self):
        inventory = build_inventory(num_vm_hosts=5, num_storage_hosts=3, num_routers=2)
        assert len(inventory.vm_hosts) == 5
        assert len(inventory.storage_hosts) == 3
        assert len(inventory.routers) == 2
        assert inventory.model.count("vmHost") == 5

    def test_heterogeneous_hypervisors_cycle(self):
        inventory = build_inventory(num_vm_hosts=4, num_storage_hosts=1,
                                    hypervisors=["xen-4.1", "kvm-1.0"])
        types = [inventory.model.get(path)["hypervisor"] for path in inventory.vm_hosts]
        assert types == ["xen-4.1", "kvm-1.0", "xen-4.1", "kvm-1.0"]

    def test_logical_only_inventory_has_no_devices(self):
        inventory = build_inventory(num_vm_hosts=2, num_storage_hosts=1, with_devices=False)
        assert inventory.registry is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_inventory(num_vm_hosts=0, num_storage_hosts=1)


class TestPlacement:
    @pytest.fixture
    def model(self):
        return build_inventory(num_vm_hosts=3, num_storage_hosts=2, host_mem_mb=2048,
                               with_devices=False).model

    def test_least_loaded_spreads_memory(self, model):
        engine = PlacementEngine("least_loaded")
        first = engine.pick_vm_host(model, 512)
        # Put a running VM on that host; next pick must avoid it.
        model.create(f"{first}/vm1", "vm", {"state": "running", "mem_mb": 1024})
        second = engine.pick_vm_host(model, 512)
        assert second != first

    def test_memory_filter(self, model):
        engine = PlacementEngine()
        with pytest.raises(ProcedureError):
            engine.pick_vm_host(model, 99999)

    def test_hypervisor_filter(self, model):
        engine = PlacementEngine()
        with pytest.raises(ProcedureError):
            engine.pick_vm_host(model, 512, hypervisor="hyper-v")

    def test_storage_placement_requires_template(self, model):
        engine = PlacementEngine()
        with pytest.raises(ProcedureError):
            engine.pick_storage_host(model, 8.0, "nonexistent-template")
        assert engine.pick_storage_host(model, 8.0, "template-small").startswith("/storageRoot")

    def test_round_robin_and_first_fit(self, model):
        rr = PlacementEngine("round_robin")
        picks = {rr.pick_vm_host(model, 256) for _ in range(3)}
        assert len(picks) == 3
        ff = PlacementEngine("first_fit")
        assert ff.pick_vm_host(model, 256) == "/vmRoot/vmHost0"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            PlacementEngine("chaotic")


class TestTCloudService:
    def test_spawn_and_inspect(self, inline_cloud):
        txn = inline_cloud.spawn_vm("web1", mem_mb=512)
        assert txn.state is TransactionState.COMMITTED
        record = inline_cloud.find_vm("web1")
        assert record is not None and record.state == "running"
        assert inline_cloud.vm_count() == 1
        util = inline_cloud.host_utilisation()
        assert sum(entry["running"] for entry in util.values()) == 1

    def test_full_lifecycle(self, inline_cloud):
        inline_cloud.spawn_vm("app1")
        assert inline_cloud.stop_vm("app1").state is TransactionState.COMMITTED
        assert inline_cloud.find_vm("app1").state == "stopped"
        assert inline_cloud.start_vm("app1").state is TransactionState.COMMITTED
        migrated = inline_cloud.migrate_vm("app1")
        assert migrated.state is TransactionState.COMMITTED
        destroyed = inline_cloud.destroy_vm("app1")
        assert destroyed.state is TransactionState.COMMITTED
        assert inline_cloud.vm_count() == 0

    def test_unknown_vm_operations_raise(self, inline_cloud):
        with pytest.raises(ProcedureError):
            inline_cloud.stop_vm("ghost")

    def test_pinned_placement_respected(self, inline_cloud):
        txn = inline_cloud.spawn_vm("pinned", vm_host="/vmRoot/vmHost2",
                                    storage_host="/storageRoot/storageHost1")
        assert txn.state is TransactionState.COMMITTED
        assert inline_cloud.find_vm("pinned").host == "/vmRoot/vmHost2"

    def test_spawn_vms_batch_spreads_auto_placement(self):
        """Batched spawns are all placed before anything commits, so the
        placement pass must reserve each pick (regression: every spec used
        to land on the same least-loaded host and trip the memory
        constraint)."""
        from repro.tcloud.service import build_tcloud

        cloud = build_tcloud(num_vm_hosts=4, num_storage_hosts=2, host_mem_mb=2048)
        with cloud.platform:
            txns = cloud.spawn_vms(
                [{"vm_name": f"batch{i}", "mem_mb": 1024} for i in range(6)]
            )
            assert all(t.state is TransactionState.COMMITTED for t in txns), \
                [t.error for t in txns]
            hosts = {cloud.find_vm(f"batch{i}").host for i in range(6)}
            assert len(hosts) >= 3  # spread, not piled onto one host

    def test_spawn_vms_batch_reservations_cannot_collide_with_real_names(self):
        """Reservations are data, not tree nodes (regression: a real VM
        called ``reserved-0`` on the picked host made the placement pass
        die with "node already exists" before anything was submitted)."""
        cloud = build_tcloud(num_vm_hosts=4, num_storage_hosts=2, host_mem_mb=2048)
        with cloud.platform:
            hosts = cloud.inventory.vm_hosts
            for index, host in enumerate(hosts[1:]):
                cloud.spawn_vm(f"filler{index}", vm_host=host, mem_mb=1024)
            # The least-loaded host, and so the batch's first pick.
            cloud.spawn_vm("reserved-0", vm_host=hosts[0], mem_mb=256)
            txns = cloud.spawn_vms(
                [{"vm_name": f"batch{i}", "mem_mb": 1024} for i in range(2)]
            )
            assert all(t.state is TransactionState.COMMITTED for t in txns), \
                [t.error for t in txns]
            assert cloud.find_vm("batch0").host == hosts[0]
            assert cloud.find_vm("batch1").host != hosts[0]  # still spread

    def test_hosts_iterates_a_snapshot_of_the_live_tree(self, inline_cloud):
        """In the threaded single-shard runtime ``model_view()`` is the
        leader's live tree: a host added mid-iteration must not raise
        "dictionary changed size during iteration"."""
        model = inline_cloud.platform.model_view()
        walk = hosts(model, "vmHost")
        first = next(walk)
        model.create("/vmRoot/vmHost9", "vmHost")
        assert [first[0]] + [path for path, _ in walk] == inline_cloud.inventory.vm_hosts
        assert list(hosts(model, "storageHost"))[0][0] == "/storageRoot/storageHost0"

    def test_spawn_vms_batch_respects_pinned_hosts(self, inline_cloud):
        txns = inline_cloud.spawn_vms(
            [
                {"vm_name": "pin0", "vm_host": "/vmRoot/vmHost0", "mem_mb": 256},
                {"vm_name": "pin3", "vm_host": "/vmRoot/vmHost3", "mem_mb": 256},
            ]
        )
        assert all(t.state is TransactionState.COMMITTED for t in txns)
        assert inline_cloud.find_vm("pin0").host == "/vmRoot/vmHost0"
        assert inline_cloud.find_vm("pin3").host == "/vmRoot/vmHost3"

    def test_spawn_duplicate_name_aborts(self, inline_cloud):
        inline_cloud.spawn_vm("dup", vm_host="/vmRoot/vmHost0")
        txn = inline_cloud.spawn_vm("dup", vm_host="/vmRoot/vmHost0")
        assert txn.state is TransactionState.ABORTED

    def test_create_vlan(self, inline_cloud):
        assert inline_cloud.create_vlan(42).state is TransactionState.COMMITTED

    def test_logical_only_mode(self):
        cloud = build_tcloud(num_vm_hosts=2, num_storage_hosts=1, logical_only=True)
        with cloud.platform:
            txn = cloud.spawn_vm("lvm1")
            assert txn.state is TransactionState.COMMITTED
            assert cloud.inventory.registry is None

    def test_migration_to_incompatible_hypervisor_aborts(self):
        cloud = build_tcloud(num_vm_hosts=2, num_storage_hosts=1,
                             hypervisors=["xen-4.1", "kvm-1.0"])
        with cloud.platform:
            cloud.spawn_vm("vmx", vm_host="/vmRoot/vmHost0")
            txn = cloud.platform.submit(
                "migrateVM",
                {"vm_name": "vmx", "src_host": "/vmRoot/vmHost0",
                 "dst_host": "/vmRoot/vmHost1"},
            )
            assert txn.state is TransactionState.ABORTED
            assert "hypervisor" in txn.error
            # VM untouched on the source host.
            assert cloud.find_vm("vmx").host == "/vmRoot/vmHost0"
