"""The TCloud service: an EC2-like API on top of the TROPIC platform (§5)."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterator

from repro.common.clock import Clock
from repro.common.config import TropicConfig
from repro.common.errors import ProcedureError
from repro.core.platform import TransactionHandle, TropicPlatform
from repro.core.sharding import colocated_assignments
from repro.core.txn import Transaction
from repro.coordination.ensemble import CoordinationEnsemble
from repro.datamodel.node import Node
from repro.tcloud.entities import build_schema
from repro.tcloud.inventory import TCloudInventory, build_inventory, hosts
from repro.tcloud.placement import PlacementEngine
from repro.tcloud.procedures import build_procedures, disk_image_name


@dataclass
class VMRecord:
    """Location and state of a VM as known to the logical layer."""

    name: str
    host: str
    state: str
    mem_mb: int
    image: str

    @property
    def path(self) -> str:
        return f"{self.host}/{self.name}"

    @classmethod
    def of(cls, host: str, node: Node) -> "VMRecord":
        return cls(
            name=node.name,
            host=host,
            state=node.get("state", "unknown"),
            mem_mb=node.get("mem_mb", 0),
            image=node.get("image", ""),
        )


@dataclass
class VolumeRecord:
    """Location and attachment state of a block volume."""

    name: str
    storage_host: str
    size_gb: float
    exported: bool
    attached_to: str | None

    @property
    def path(self) -> str:
        return f"{self.storage_host}/{self.name}"

    @classmethod
    def of(cls, storage_host: str, node: Node) -> "VolumeRecord":
        return cls(
            name=node.name,
            storage_host=storage_host,
            size_gb=node.get("size_gb", 0.0),
            exported=node.get("exported", False),
            attached_to=node.get("attached_to"),
        )


class TCloud:
    """End-user facing cloud service built on TROPIC.

    All mutating calls are transactional orchestrations submitted to the
    platform; read-only calls inspect the leader's logical data model.
    Reads walk the host units (:func:`~repro.tcloud.inventory.hosts`) and
    their child dicts — a VM is ``host.children[vm_name]`` — never the
    whole tree, so they cost O(hosts + records returned).
    """

    def __init__(
        self,
        platform: TropicPlatform,
        inventory: TCloudInventory,
        placement: PlacementEngine | None = None,
    ):
        self.platform = platform
        self.inventory = inventory
        self.placement = placement or PlacementEngine()

    # ------------------------------------------------------------------
    # VM life cycle API (the operations of the hosting workload, §6.2)
    # ------------------------------------------------------------------

    def spawn_vm(
        self,
        vm_name: str,
        image_template: str = "template-small",
        mem_mb: int = 1024,
        vm_host: str | None = None,
        storage_host: str | None = None,
        hypervisor: str | None = None,
        wait: bool = True,
        timeout: float | None = 30.0,
    ) -> Transaction | TransactionHandle:
        """Spawn a VM, placing it automatically unless hosts are pinned
        (a batch of one through :meth:`spawn_vms`)."""
        spec = {
            "vm_name": vm_name,
            "image_template": image_template,
            "mem_mb": mem_mb,
            "vm_host": vm_host,
            "storage_host": storage_host,
            "hypervisor": hypervisor,
        }
        return self.spawn_vms([spec], wait=wait, timeout=timeout)[0]

    def spawn_vms(
        self,
        specs: list[dict[str, Any]],
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> list[Transaction | TransactionHandle]:
        """Spawn several VMs with submit-side batching.

        Each spec takes the same keys as :meth:`spawn_vm` (``vm_name`` is
        required; placement fields are resolved per spec when omitted).
        All transactions are persisted in one group commit per owning
        shard and enqueued in one queue write, instead of two coordination
        round-trips per VM.
        """
        model = self._placement_model()
        # The whole batch is placed before anything commits, so the model
        # never reflects earlier picks.  Carry each pick forward as a
        # per-host reservation instead, or every spec would land on the
        # same "least loaded" host and trip the memory constraint.
        reserved_mb: dict[str, int] = {}
        reserved_gb: dict[str, float] = {}
        requests: list[tuple[str, dict[str, Any]]] = []
        for spec in specs:
            template = spec.get("image_template", "template-small")
            mem_mb = int(spec.get("mem_mb", 1024))
            size = self.inventory.templates.get(template, 8.0)
            vm_host = spec.get("vm_host")
            if vm_host is None:
                vm_host = self.placement.pick_vm_host(
                    model, mem_mb, spec.get("hypervisor"), reserved_mb
                )
                reserved_mb[vm_host] = reserved_mb.get(vm_host, 0) + mem_mb
            storage_host = spec.get("storage_host")
            if storage_host is None:
                storage_host = self.placement.pick_storage_host(
                    model, size, template, reserved_gb
                )
                reserved_gb[storage_host] = reserved_gb.get(storage_host, 0.0) + size
            requests.append(
                (
                    "spawnVM",
                    {
                        "vm_name": spec["vm_name"],
                        "image_template": template,
                        "storage_host": storage_host,
                        "vm_host": vm_host,
                        "mem_mb": mem_mb,
                    },
                )
            )
        return self.platform.submit_many(requests, wait=wait, timeout=timeout)

    def start_vm(self, vm_name: str, wait: bool = True, timeout: float | None = 30.0):
        record = self._locate(vm_name)
        return self.platform.submit(
            "startVM", {"vm_host": record.host, "vm_name": vm_name}, wait=wait, timeout=timeout
        )

    def stop_vm(self, vm_name: str, wait: bool = True, timeout: float | None = 30.0):
        record = self._locate(vm_name)
        return self.platform.submit(
            "stopVM", {"vm_host": record.host, "vm_name": vm_name}, wait=wait, timeout=timeout
        )

    def destroy_vm(self, vm_name: str, wait: bool = True, timeout: float | None = 30.0):
        record = self._locate(vm_name)
        storage_host = self._storage_host_of(record)
        return self.platform.submit(
            "destroyVM",
            {"vm_host": record.host, "vm_name": vm_name, "storage_host": storage_host},
            wait=wait,
            timeout=timeout,
        )

    def migrate_vm(
        self,
        vm_name: str,
        dst_host: str | None = None,
        wait: bool = True,
        timeout: float | None = 30.0,
    ):
        """Migrate a VM to ``dst_host`` (or to an automatically chosen host)."""
        record = self._locate(vm_name)
        if dst_host is None:
            model = self.platform.model_view()
            hypervisor = model.get(record.host).get("hypervisor")
            candidates = [
                path
                for path, host in hosts(model, "vmHost")
                if path != record.host and host.get("hypervisor") == hypervisor
            ]
            if not candidates:
                raise ProcedureError(f"no compatible destination host for {vm_name}")
            dst_host = self.placement.pick_vm_host(model, record.mem_mb, hypervisor)
            if dst_host == record.host:
                dst_host = candidates[0]
        return self.platform.submit(
            "migrateVM",
            {"vm_name": vm_name, "src_host": record.host, "dst_host": dst_host},
            wait=wait,
            timeout=timeout,
        )

    def snapshot_vm(
        self,
        vm_name: str,
        snapshot_name: str,
        wait: bool = True,
        timeout: float | None = 30.0,
    ):
        """Take a crash-consistent snapshot of the VM's disk image."""
        record = self._locate(vm_name)
        storage_host = self._storage_host_of(record)
        if storage_host is None:
            raise ProcedureError(f"cannot locate the disk image of VM {vm_name}")
        return self.platform.submit(
            "snapshotVM",
            {
                "vm_host": record.host,
                "vm_name": vm_name,
                "storage_host": storage_host,
                "snapshot_name": snapshot_name,
            },
            wait=wait,
            timeout=timeout,
        )

    # ------------------------------------------------------------------
    # Block volumes (EBS-like API)
    # ------------------------------------------------------------------

    def create_volume(
        self,
        volume_name: str,
        size_gb: float,
        storage_host: str | None = None,
        wait: bool = True,
        timeout: float | None = 30.0,
    ):
        """Allocate and export a block volume, placing it automatically."""
        if storage_host is None:
            storage_host = self.placement.pick_storage_host(
                self._placement_model(), float(size_gb), template=None
            )
        return self.platform.submit(
            "createVolume",
            {"storage_host": storage_host, "volume_name": volume_name, "size_gb": float(size_gb)},
            wait=wait,
            timeout=timeout,
        )

    def delete_volume(self, volume_name: str, wait: bool = True, timeout: float | None = 30.0):
        volume = self._locate_volume(volume_name)
        return self.platform.submit(
            "deleteVolume",
            {"storage_host": volume.storage_host, "volume_name": volume_name},
            wait=wait,
            timeout=timeout,
        )

    def attach_volume(
        self, volume_name: str, vm_name: str, wait: bool = True, timeout: float | None = 30.0
    ):
        volume = self._locate_volume(volume_name)
        vm = self._locate(vm_name)
        return self.platform.submit(
            "attachVolume",
            {
                "storage_host": volume.storage_host,
                "volume_name": volume_name,
                "vm_host": vm.host,
                "vm_name": vm_name,
            },
            wait=wait,
            timeout=timeout,
        )

    def detach_volume(
        self, volume_name: str, vm_name: str, wait: bool = True, timeout: float | None = 30.0
    ):
        volume = self._locate_volume(volume_name)
        vm = self._locate(vm_name)
        return self.platform.submit(
            "detachVolume",
            {
                "storage_host": volume.storage_host,
                "volume_name": volume_name,
                "vm_host": vm.host,
                "vm_name": vm_name,
            },
            wait=wait,
            timeout=timeout,
        )

    def list_volumes(self, prefix: str | None = None) -> list[VolumeRecord]:
        """Volumes sorted by name (ties in host-path order), optionally only
        those whose name starts with ``prefix``.  Cost: O(storage hosts +
        their children) dict steps; a record is built per volume *returned*.
        """
        found = self._resources("storageHost", "volume", prefix)
        return sorted((VolumeRecord.of(*hit) for hit in found), key=attrgetter("name"))

    def find_volume(self, volume_name: str) -> VolumeRecord | None:
        """The volume called ``volume_name`` on the first storage host (in
        path order) that has one.  Cost: one dict probe per storage host."""
        hit = self._resource("storageHost", "volume", volume_name)
        return VolumeRecord.of(*hit) if hit else None

    # ------------------------------------------------------------------
    # Network (VLANs and firewall rules)
    # ------------------------------------------------------------------

    def create_vlan(self, vlan_id: int, router: str | None = None, wait: bool = True):
        router = router or self.inventory.routers[0]
        return self.platform.submit(
            "createVLAN", {"router": router, "vlan_id": vlan_id}, wait=wait
        )

    def add_firewall_rule(
        self,
        rule_id: int,
        src: str = "any",
        dst: str = "any",
        policy: str = "deny",
        router: str | None = None,
        wait: bool = True,
    ):
        router = router or self.inventory.routers[0]
        return self.platform.submit(
            "addFirewallRule",
            {"router": router, "rule_id": int(rule_id), "src": src, "dst": dst, "policy": policy},
            wait=wait,
        )

    def remove_firewall_rule(self, rule_id: int, router: str | None = None, wait: bool = True):
        router = router or self.inventory.routers[0]
        return self.platform.submit(
            "removeFirewallRule", {"router": router, "rule_id": int(rule_id)}, wait=wait
        )

    def list_firewall_rules(self, router: str | None = None) -> list[int]:
        router = router or self.inventory.routers[0]
        model = self.platform.model_view()
        node = model.get(router)
        return sorted(
            child.get("rule_id")
            for child in node.children.values()
            if child.entity_type == "fwRule"
        )

    # ------------------------------------------------------------------
    # Composite (single-transaction) orchestrations
    # ------------------------------------------------------------------

    def provision_tenant(
        self,
        tenant: str,
        num_vms: int,
        mem_mb: int = 1024,
        image_template: str = "template-small",
        vlan_id: int | None = None,
        firewall_rules: list[dict[str, Any]] | None = None,
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> Transaction | TransactionHandle:
        """Provision a whole tenant environment as one atomic transaction.

        VMs are named ``{tenant}-vm{N}`` and placed round-robin across the
        compute fleet with their images on the paired storage hosts.  With a
        ``vlan_id`` the VMs are attached to a tenant VLAN on the first
        router, and ``firewall_rules`` are installed on the same router.
        """
        if num_vms < 1:
            raise ProcedureError("a tenant environment needs at least one VM")
        vms = []
        for index in range(num_vms):
            host_index = index % len(self.inventory.vm_hosts)
            vms.append(
                {
                    "vm_name": f"{tenant}-vm{index}",
                    "vm_host": self.inventory.vm_hosts[host_index],
                    "storage_host": self.inventory.storage_host_for(host_index),
                    "image_template": image_template,
                    "mem_mb": mem_mb,
                }
            )
        router = self.inventory.routers[0] if self.inventory.routers else None
        return self.platform.submit(
            "provisionTenant",
            {
                "tenant": tenant,
                "vms": vms,
                "router": router if vlan_id is not None or firewall_rules else None,
                "vlan_id": vlan_id,
                "firewall_rules": firewall_rules or [],
            },
            wait=wait,
            timeout=timeout,
        )

    def teardown_tenant(
        self,
        tenant: str,
        vlan_id: int | None = None,
        firewall_rule_ids: list[int] | None = None,
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> Transaction | TransactionHandle:
        """Destroy every VM named ``{tenant}-vm*`` and the tenant VLAN."""
        vms = []
        for record in self.list_vms(prefix=f"{tenant}-vm"):
            vms.append(
                {
                    "vm_name": record.name,
                    "vm_host": record.host,
                    "storage_host": self._storage_host_of(record),
                }
            )
        if not vms:
            raise ProcedureError(f"tenant {tenant!r} has no VMs to tear down")
        router = self.inventory.routers[0] if self.inventory.routers else None
        return self.platform.submit(
            "teardownTenant",
            {
                "tenant": tenant,
                "vms": vms,
                "router": router if vlan_id is not None or firewall_rule_ids else None,
                "vlan_id": vlan_id,
                "firewall_rule_ids": firewall_rule_ids or [],
            },
            wait=wait,
            timeout=timeout,
        )

    def evacuate_host_atomic(
        self,
        vm_host: str,
        dst_hosts: list[str] | None = None,
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> Transaction | TransactionHandle:
        """Evacuate a compute host in a single all-or-nothing transaction.

        Unlike :meth:`evacuate_host`, which issues one migration transaction
        per VM, this submits the composite ``evacuateHost`` procedure: if any
        VM cannot be moved, none are, so the host is never left half-empty.
        """
        if dst_hosts is None:
            dst_hosts = [host for host in self.inventory.vm_hosts if host != vm_host]
        return self.platform.submit(
            "evacuateHost",
            {"src_host": vm_host, "dst_hosts": dst_hosts},
            wait=wait,
            timeout=timeout,
        )

    def clone_vm(
        self,
        vm_name: str,
        new_vm_name: str,
        dst_host: str | None = None,
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> Transaction | TransactionHandle:
        """Clone an existing VM (crash-consistent copy of its disk image)."""
        record = self._locate(vm_name)
        storage_host = self._storage_host_of(record)
        if storage_host is None:
            raise ProcedureError(f"cannot locate the disk image of VM {vm_name}")
        return self.platform.submit(
            "cloneVM",
            {
                "vm_name": vm_name,
                "new_vm_name": new_vm_name,
                "vm_host": record.host,
                "storage_host": storage_host,
                "dst_host": dst_host,
            },
            wait=wait,
            timeout=timeout,
        )

    def rebalance_hosts(
        self,
        src_host: str,
        dst_host: str,
        target_free_mb: int,
        wait: bool = True,
        timeout: float | None = 60.0,
    ) -> Transaction | TransactionHandle:
        """Free at least ``target_free_mb`` on ``src_host`` by migrating VMs."""
        return self.platform.submit(
            "rebalanceHosts",
            {
                "src_host": src_host,
                "dst_host": dst_host,
                "target_free_mb": int(target_free_mb),
            },
            wait=wait,
            timeout=timeout,
        )

    # ------------------------------------------------------------------
    # Operator workflows
    # ------------------------------------------------------------------

    def evacuate_host(
        self, vm_host: str, wait: bool = True, timeout: float | None = 60.0
    ) -> list[Transaction | TransactionHandle]:
        """Migrate every VM off ``vm_host`` (one transaction per VM).

        Used for planned maintenance: each migration is an independent
        transaction, so a single failure aborts only that VM's move.
        """
        model = self.platform.model_view()
        host = model.get(vm_host)
        vm_names = sorted(
            name for name, child in host.children.items() if child.entity_type == "vm"
        )
        results: list[Transaction | TransactionHandle] = []
        for vm_name in vm_names:
            results.append(self.migrate_vm(vm_name, wait=wait, timeout=timeout))
        return results

    # ------------------------------------------------------------------
    # Read-only inspection
    # ------------------------------------------------------------------

    def list_vms(self, prefix: str | None = None) -> list[VMRecord]:
        """VMs sorted by name (ties in host-path order), optionally only
        those whose name starts with ``prefix``.  Cost: O(compute hosts +
        VMs) dict steps; a record is built per VM *returned*.
        """
        found = self._resources("vmHost", "vm", prefix)
        return sorted((VMRecord.of(*hit) for hit in found), key=attrgetter("name"))

    def find_vm(self, vm_name: str) -> VMRecord | None:
        """The VM called ``vm_name`` on the first compute host (in path
        order) that has one.  Cost: one dict probe per compute host."""
        hit = self._resource("vmHost", "vm", vm_name)
        return VMRecord.of(*hit) if hit else None

    def vm_count(self) -> int:
        """Number of VMs.  Cost: O(compute hosts + VMs), no records built."""
        return sum(1 for _ in self._resources("vmHost", "vm"))

    def host_utilisation(self) -> dict[str, dict[str, Any]]:
        """Per compute host: memory capacity, committed memory, VM count.
        Cost: O(compute hosts + VMs)."""
        result: dict[str, dict[str, Any]] = {}
        for path, host in hosts(self.platform.model_view(), "vmHost"):
            vms = [vm for vm in list(host.children.values()) if vm.entity_type == "vm"]
            running = [vm for vm in vms if vm.get("state") == "running"]
            result[path] = {
                "mem_mb": host.get("mem_mb", 0),
                "mem_used_mb": sum(vm.get("mem_mb", 0) for vm in running),
                "vms": len(vms),
                "running": len(running),
            }
        return result

    # ------------------------------------------------------------------

    def _resources(
        self, host_type: str, entity_type: str, prefix: str | None = None
    ) -> Iterator[tuple[str, Node]]:
        """``(host path, node)`` of every ``entity_type`` child of a
        ``host_type`` host, filtered on the child key before anything is
        built from the node; hosts in path order."""
        for path, host in hosts(self.platform.model_view(), host_type):
            for name, node in list(host.children.items()):
                if node.entity_type == entity_type and (
                    prefix is None or name.startswith(prefix)
                ):
                    yield path, node

    def _resource(self, host_type: str, entity_type: str, name: str) -> tuple[str, Node] | None:
        """Probe each ``host_type`` host's children for ``name``; the first
        hit in host-path order wins."""
        for path, host in hosts(self.platform.model_view(), host_type):
            node = host.children.get(name)
            if node is not None and node.entity_type == entity_type:
                return path, node
        return None

    def _placement_model(self):
        """Model used for placement decisions.

        Normally the leader's logical model; during a failover window (no
        recovered leader yet) fall back to the static inventory so clients
        can keep submitting — correctness is still guaranteed by the
        constraint checks performed at logical execution time.
        """
        leader_model = self.platform.model_view()
        if leader_model.root.children:
            return leader_model
        return self.inventory.model

    def _locate(self, vm_name: str) -> VMRecord:
        record = self.find_vm(vm_name)
        if record is None:
            raise ProcedureError(f"VM {vm_name} not found")
        return record

    def _locate_volume(self, volume_name: str) -> VolumeRecord:
        record = self.find_volume(volume_name)
        if record is None:
            raise ProcedureError(f"volume {volume_name} not found")
        return record

    def _storage_host_of(self, record: VMRecord) -> str | None:
        """Find the storage host holding the VM's disk image.  Cost: one
        dict probe per storage host."""
        image = record.image or disk_image_name(record.name)
        for path, host in hosts(self.platform.model_view(), "storageHost"):
            if image in host.children:
                return path
        return None


def tcloud_shard_assignments(inventory: TCloudInventory, num_shards: int) -> dict[str, int]:
    """Subtree-to-shard assignments co-locating each storage host with the
    compute hosts whose disk images it serves.

    ``TCloudInventory.storage_host_for`` pairs each compute host with one
    storage host (4 compute : 1 storage blocks), so grouping by storage
    host keeps every ``spawnVM``/``destroyVM``/``snapshotVM`` single-shard.
    Routers (and any future top subtrees) fall back to the stable hash.
    """
    by_storage: dict[str, list[str]] = {s: [s] for s in inventory.storage_hosts}
    for index, vm_host in enumerate(inventory.vm_hosts):
        by_storage[inventory.storage_host_for(index)].append(vm_host)
    return colocated_assignments(by_storage.values(), num_shards)


def build_tcloud(
    num_vm_hosts: int = 4,
    num_storage_hosts: int = 2,
    num_routers: int = 1,
    host_mem_mb: int = 8192,
    hypervisors: list[str] | None = None,
    config: TropicConfig | None = None,
    threaded: bool = False,
    logical_only: bool = False,
    clock: Clock | None = None,
    ensemble: CoordinationEnsemble | None = None,
    placement_strategy: str = "least_loaded",
    device_call_latency: float = 0.0,
    local_shards: list[int] | None = None,
) -> TCloud:
    """Assemble a complete TCloud deployment (schema, procedures, fleet,
    platform).  The returned service is not started; use it as a context
    manager or call ``cloud.platform.start()``.

    With ``config.num_shards > 1`` the controller is sharded by subtree;
    storage hosts are co-located with the compute hosts they serve (see
    :func:`tcloud_shard_assignments`), and ``local_shards`` restricts which
    shards this process hosts (scale-out: one shard per process)."""
    config = config or TropicConfig()
    if logical_only:
        config = config.with_overrides(logical_only=True)
    inventory = build_inventory(
        num_vm_hosts=num_vm_hosts,
        num_storage_hosts=num_storage_hosts,
        num_routers=num_routers,
        host_mem_mb=host_mem_mb,
        hypervisors=hypervisors,
        with_devices=not logical_only,
        device_call_latency=device_call_latency,
    )
    assignments = (
        tcloud_shard_assignments(inventory, config.num_shards)
        if config.num_shards > 1
        else None
    )
    platform = TropicPlatform(
        schema=build_schema(),
        procedures=build_procedures(),
        config=config,
        registry=inventory.registry,
        initial_model=inventory.model,
        clock=clock,
        ensemble=ensemble,
        threaded=threaded,
        shard_assignments=assignments,
        local_shards=local_shards,
    )
    return TCloud(platform, inventory, PlacementEngine(placement_strategy))
