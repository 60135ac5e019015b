"""Fleet construction: initial logical model + matching mock devices.

The paper's performance experiments (§6.1) run against 12,500 compute
servers with 8 VM slots each (100,000 VMs) and 3,125 storage servers (one
per 4 compute servers).  :func:`build_inventory` constructs a scaled
version of that data centre: a logical :class:`~repro.datamodel.tree.
DataModel` for the controller and, unless running logical-only, a
:class:`~repro.drivers.registry.DeviceRegistry` of mock devices whose
initial state matches the logical model exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.datamodel.node import Node
from repro.datamodel.tree import DataModel
from repro.drivers.compute import ComputeHostDevice
from repro.drivers.network import RouterDevice
from repro.drivers.registry import DeviceRegistry
from repro.drivers.storage import StorageHostDevice

VM_ROOT = "/vmRoot"
STORAGE_ROOT = "/storageRoot"
NET_ROOT = "/netRoot"

#: Where each kind of host lives.  Hosts are the second-level nodes that
#: sharding, locking and checkpoints already treat as the unit.
HOST_ROOTS = {"vmHost": VM_ROOT, "storageHost": STORAGE_ROOT}

#: Default disk image templates installed on every storage host.
DEFAULT_TEMPLATES = {
    "template-small": 8.0,
    "template-medium": 16.0,
    "template-large": 32.0,
}


def hosts(model: DataModel, entity_type: str) -> Iterator[tuple[str, Node]]:
    """Yield ``(path, node)`` for every host of ``entity_type`` (``"vmHost"``
    or ``"storageHost"``) in ``model``, in path order.

    O(hosts of that type): the tree is the index, nothing below the hosts
    is visited.  The child dict is snapshotted (``sorted`` + ``get``), so a
    concurrent ``add_child`` on the leader's live model cannot break the
    iteration.
    """
    root_path = HOST_ROOTS[entity_type]
    root = model.root.children.get(root_path[1:])
    if root is None:
        return
    children = root.children
    for name in sorted(children):
        node = children.get(name)
        if node is not None and node.entity_type == entity_type:
            yield f"{root_path}/{name}", node


@dataclass
class TCloudInventory:
    """The assembled data centre: logical model, devices and path helpers."""

    model: DataModel
    registry: DeviceRegistry | None
    vm_hosts: list[str] = field(default_factory=list)
    storage_hosts: list[str] = field(default_factory=list)
    routers: list[str] = field(default_factory=list)
    templates: dict[str, float] = field(default_factory=dict)

    def storage_host_for(self, vm_host_index: int) -> str:
        """Storage host assigned to a compute host (4 compute : 1 storage)."""
        if not self.storage_hosts:
            raise IndexError("inventory has no storage hosts")
        return self.storage_hosts[vm_host_index * len(self.storage_hosts) // max(len(self.vm_hosts), 1)]


def build_inventory(
    num_vm_hosts: int = 4,
    num_storage_hosts: int = 2,
    num_routers: int = 1,
    host_mem_mb: int = 8192,
    host_cpu_cores: int = 8,
    storage_capacity_gb: float = 4096.0,
    hypervisors: list[str] | None = None,
    templates: dict[str, float] | None = None,
    with_devices: bool = True,
    device_call_latency: float = 0.0,
) -> TCloudInventory:
    """Build a TCloud data centre of the requested size.

    ``hypervisors`` cycles across compute hosts (e.g. ``["xen-4.1",
    "kvm-1.0"]`` creates a heterogeneous fleet, used by the VM-type
    constraint experiments).  With ``with_devices=False`` only the logical
    model is produced (logical-only mode, §5).
    """
    if num_vm_hosts < 1 or num_storage_hosts < 1:
        raise ValueError("need at least one compute host and one storage host")
    hypervisors = hypervisors or ["xen-4.1"]
    templates = dict(templates if templates is not None else DEFAULT_TEMPLATES)

    model = DataModel()
    registry = DeviceRegistry() if with_devices else None
    inventory = TCloudInventory(
        model=model, registry=registry, templates=templates
    )

    model.create(VM_ROOT, "vmRoot")
    model.create(STORAGE_ROOT, "storageRoot")
    model.create(NET_ROOT, "netRoot")
    if registry is not None:
        registry.register_container(VM_ROOT, "vmRoot")
        registry.register_container(STORAGE_ROOT, "storageRoot")
        registry.register_container(NET_ROOT, "netRoot")

    for index in range(num_storage_hosts):
        name = f"storageHost{index}"
        path = f"{STORAGE_ROOT}/{name}"
        model.create(path, "storageHost", {"capacity_gb": storage_capacity_gb})
        for template_name, size_gb in templates.items():
            model.create(
                f"{path}/{template_name}",
                "image",
                {"size_gb": size_gb, "exported": False, "template": True},
            )
        inventory.storage_hosts.append(path)
        if registry is not None:
            device = StorageHostDevice(
                name, capacity_gb=storage_capacity_gb, call_latency=device_call_latency
            )
            for template_name, size_gb in templates.items():
                device.add_template(template_name, size_gb)
            registry.register(path, device)

    for index in range(num_vm_hosts):
        name = f"vmHost{index}"
        path = f"{VM_ROOT}/{name}"
        hypervisor = hypervisors[index % len(hypervisors)]
        model.create(
            path,
            "vmHost",
            {
                "hypervisor": hypervisor,
                "mem_mb": host_mem_mb,
                "cpu_cores": host_cpu_cores,
                "imported_images": [],
            },
        )
        inventory.vm_hosts.append(path)
        if registry is not None:
            registry.register(
                path,
                ComputeHostDevice(
                    name,
                    hypervisor=hypervisor,
                    mem_mb=host_mem_mb,
                    cpu_cores=host_cpu_cores,
                    call_latency=device_call_latency,
                ),
            )

    for index in range(num_routers):
        name = f"router{index}"
        path = f"{NET_ROOT}/{name}"
        model.create(path, "router", {"max_vlans": 4096})
        inventory.routers.append(path)
        if registry is not None:
            registry.register(path, RouterDevice(name, call_latency=device_call_latency))

    return inventory
