"""TCloud entity types: the logical-layer behaviour of cloud resources.

Each entity type defines, for the logical layer, the *simulation* of every
device action plus its undo action and the constraints to enforce (§2.2).
The physical counterparts of the actions live in :mod:`repro.drivers`; the
worker resolves the same action names against the device registered at the
resource path.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import DataModelError
from repro.datamodel.node import Node
from repro.datamodel.schema import EntityType, ModelSchema
from repro.datamodel.tree import DataModel
from repro.tcloud.constraints import (
    firewall_capacity_constraint,
    storage_capacity_constraint,
    vlan_range_constraint,
    vm_hypervisor_constraint,
    vm_memory_constraint,
    volume_attachment_constraint,
)


def _child(node: Node, name: str, kind: str) -> Node:
    child = node.child(name)
    if child is None:
        raise DataModelError(f"no {kind} named {name!r} under {node.path}")
    return child


# ----------------------------------------------------------------------
# Compute hosts
# ----------------------------------------------------------------------

def _build_vm_host() -> EntityType:
    vm_host = EntityType(
        "vmHost",
        default_attrs={"hypervisor": "xen-4.1", "mem_mb": 32768, "cpu_cores": 8,
                       "imported_images": []},
    )

    @vm_host.action("importImage", undo="unimportImage",
                    undo_args=lambda node, args: [args[0]])
    def import_image(model: DataModel, node: Node, vm_image: str) -> None:
        images = list(node.get("imported_images", []))
        if vm_image not in images:
            images.append(vm_image)
        node["imported_images"] = sorted(images)

    @vm_host.action("unimportImage", undo="importImage",
                    undo_args=lambda node, args: [args[0]])
    def unimport_image(model: DataModel, node: Node, vm_image: str) -> None:
        node["imported_images"] = sorted(
            image for image in node.get("imported_images", []) if image != vm_image
        )

    @vm_host.action("createVM", undo="removeVM",
                    undo_args=lambda node, args: [args[0]])
    def create_vm(
        model: DataModel,
        node: Node,
        vm_name: str,
        vm_image: str,
        mem_mb: int = 1024,
        hypervisor: str | None = None,
    ) -> None:
        if node.child(vm_name) is not None:
            raise DataModelError(f"VM {vm_name} already exists on {node.path}")
        if vm_image not in node.get("imported_images", []):
            raise DataModelError(f"image {vm_image} is not imported on {node.path}")
        node.add_child(
            Node(
                vm_name,
                "vm",
                {
                    "state": "stopped",
                    "mem_mb": int(mem_mb),
                    "image": vm_image,
                    # The hypervisor the VM was built for; defaults to the
                    # host's.  Migration passes the original value so the
                    # VM-type constraint can reject incompatible hosts.
                    "hypervisor": hypervisor or node.get("hypervisor"),
                },
            )
        )

    @vm_host.action(
        "removeVM",
        undo="createVM",
        undo_args=lambda node, args: _remove_vm_undo_args(node, args),
    )
    def remove_vm(model: DataModel, node: Node, vm_name: str) -> None:
        vm = _child(node, vm_name, "VM")
        if vm.get("state") == "running":
            raise DataModelError(f"VM {vm_name} is running; stop it before removal")
        node.remove_child(vm_name)

    @vm_host.action("startVM", undo="stopVM", undo_args=lambda node, args: [args[0]])
    def start_vm(model: DataModel, node: Node, vm_name: str) -> None:
        _child(node, vm_name, "VM")["state"] = "running"

    @vm_host.action("stopVM", undo="startVM", undo_args=lambda node, args: [args[0]])
    def stop_vm(model: DataModel, node: Node, vm_name: str) -> None:
        _child(node, vm_name, "VM")["state"] = "stopped"

    @vm_host.query("memoryAvailable")
    def memory_available(model: DataModel, node: Node) -> int:
        used = sum(
            vm.get("mem_mb", 0)
            for vm in node.children.values()
            if vm.entity_type == "vm" and vm.get("state") == "running"
        )
        return int(node.get("mem_mb", 0)) - used

    @vm_host.query("listVMs")
    def list_vms(model: DataModel, node: Node) -> list[str]:
        return sorted(name for name, vm in node.children.items() if vm.entity_type == "vm")

    @vm_host.query("vmState")
    def vm_state(model: DataModel, node: Node, vm_name: str) -> str | None:
        vm = node.child(vm_name)
        return None if vm is None else vm.get("state")

    vm_host.constraint(
        "vm-memory", "aggregated memory of running VMs must not exceed host capacity"
    )(vm_memory_constraint)
    vm_host.constraint(
        "vm-hypervisor", "VMs must match the host's hypervisor type"
    )(vm_hypervisor_constraint)
    return vm_host


def _remove_vm_undo_args(node: Node, args: list[Any]) -> list[Any]:
    """Undo of removeVM recreates the VM with its original image and memory."""
    vm = node.child(args[0])
    if vm is None:
        return [args[0], "", 1024]
    return [args[0], vm.get("image", ""), vm.get("mem_mb", 1024)]


# ----------------------------------------------------------------------
# Storage hosts
# ----------------------------------------------------------------------

def _build_storage_host() -> EntityType:
    storage = EntityType("storageHost", default_attrs={"capacity_gb": 4096.0})

    @storage.action("cloneImage", undo="removeImage",
                    undo_args=lambda node, args: [args[1]])
    def clone_image(model: DataModel, node: Node, image_template: str, vm_image: str) -> None:
        template = _child(node, image_template, "image template")
        if node.child(vm_image) is not None:
            raise DataModelError(f"image {vm_image} already exists on {node.path}")
        node.add_child(
            Node(
                vm_image,
                "image",
                {"size_gb": template.get("size_gb", 8.0), "exported": False, "template": False},
            )
        )

    @storage.action(
        "removeImage",
        undo="restoreImage",
        undo_args=lambda node, args: _remove_image_undo_args(node, args),
    )
    def remove_image(model: DataModel, node: Node, vm_image: str) -> None:
        image = _child(node, vm_image, "image")
        if image.get("exported"):
            raise DataModelError(f"image {vm_image} is still exported")
        node.remove_child(vm_image)

    @storage.action("restoreImage", undo="removeImage",
                    undo_args=lambda node, args: [args[0]])
    def restore_image(
        model: DataModel, node: Node, vm_image: str, size_gb: float, template: bool
    ) -> None:
        if node.child(vm_image) is not None:
            raise DataModelError(f"image {vm_image} already exists on {node.path}")
        node.add_child(
            Node(
                vm_image,
                "image",
                {"size_gb": float(size_gb), "exported": False, "template": bool(template)},
            )
        )

    @storage.action("exportImage", undo="unexportImage",
                    undo_args=lambda node, args: [args[0]])
    def export_image(model: DataModel, node: Node, vm_image: str) -> None:
        _child(node, vm_image, "image")["exported"] = True

    @storage.action("unexportImage", undo="exportImage",
                    undo_args=lambda node, args: [args[0]])
    def unexport_image(model: DataModel, node: Node, vm_image: str) -> None:
        _child(node, vm_image, "image")["exported"] = False

    @storage.action("createVolume", undo="deleteVolume",
                    undo_args=lambda node, args: [args[0]])
    def create_volume(model: DataModel, node: Node, volume_name: str, size_gb: float) -> None:
        if node.child(volume_name) is not None:
            raise DataModelError(f"volume {volume_name} already exists on {node.path}")
        node.add_child(
            Node(
                volume_name,
                "volume",
                {"size_gb": float(size_gb), "exported": False, "attached_to": None},
            )
        )

    @storage.action(
        "deleteVolume",
        undo="createVolume",
        undo_args=lambda node, args: _delete_volume_undo_args(node, args),
    )
    def delete_volume(model: DataModel, node: Node, volume_name: str) -> None:
        volume = _child(node, volume_name, "volume")
        if volume.get("attached_to"):
            raise DataModelError(
                f"volume {volume_name} is attached to {volume.get('attached_to')}"
            )
        if volume.get("exported"):
            raise DataModelError(f"volume {volume_name} is still exported")
        node.remove_child(volume_name)

    @storage.action("exportVolume", undo="unexportVolume",
                    undo_args=lambda node, args: [args[0]])
    def export_volume(model: DataModel, node: Node, volume_name: str) -> None:
        _child(node, volume_name, "volume")["exported"] = True

    @storage.action("unexportVolume", undo="exportVolume",
                    undo_args=lambda node, args: [args[0]])
    def unexport_volume(model: DataModel, node: Node, volume_name: str) -> None:
        volume = _child(node, volume_name, "volume")
        if volume.get("attached_to"):
            raise DataModelError(
                f"volume {volume_name} is attached to {volume.get('attached_to')}; detach first"
            )
        volume["exported"] = False

    @storage.action("connectVolume", undo="disconnectVolume",
                    undo_args=lambda node, args: [args[0], args[1]])
    def connect_volume(model: DataModel, node: Node, volume_name: str, vm_ref: str) -> None:
        volume = _child(node, volume_name, "volume")
        if volume.get("attached_to"):
            raise DataModelError(
                f"volume {volume_name} is already attached to {volume.get('attached_to')}"
            )
        volume["attached_to"] = vm_ref

    @storage.action("disconnectVolume", undo="connectVolume",
                    undo_args=lambda node, args: [args[0], args[1]])
    def disconnect_volume(model: DataModel, node: Node, volume_name: str, vm_ref: str) -> None:
        volume = _child(node, volume_name, "volume")
        if volume.get("attached_to") != vm_ref:
            raise DataModelError(
                f"volume {volume_name} is not attached to {vm_ref}"
            )
        volume["attached_to"] = None

    @storage.query("freeCapacity")
    def free_capacity(model: DataModel, node: Node) -> float:
        used = sum(
            child.get("size_gb", 0.0)
            for child in node.children.values()
            if child.entity_type in ("image", "volume")
        )
        return float(node.get("capacity_gb", 0.0)) - used

    @storage.query("hasImage")
    def has_image(model: DataModel, node: Node, name: str) -> bool:
        return node.child(name) is not None

    @storage.query("hasVolume")
    def has_volume(model: DataModel, node: Node, name: str) -> bool:
        child = node.child(name)
        return child is not None and child.entity_type == "volume"

    @storage.query("volumeAttachment")
    def volume_attachment(model: DataModel, node: Node, name: str) -> str | None:
        child = node.child(name)
        return None if child is None else child.get("attached_to")

    @storage.query("listVolumes")
    def list_volumes(model: DataModel, node: Node) -> list[str]:
        return sorted(
            name for name, child in node.children.items() if child.entity_type == "volume"
        )

    storage.constraint(
        "storage-capacity", "total image and volume size must not exceed storage capacity"
    )(storage_capacity_constraint)
    storage.constraint(
        "volume-attachment", "attached volumes must be exported"
    )(volume_attachment_constraint)
    return storage


def _remove_image_undo_args(node: Node, args: list[Any]) -> list[Any]:
    """Undo of removeImage restores the (unexported) image as it was."""
    image = node.child(args[0]) or Node(args[0], "image")
    return [args[0], image.get("size_gb", 0.0), image.get("template", False)]


def _delete_volume_undo_args(node: Node, args: list[Any]) -> list[Any]:
    """Undo of deleteVolume recreates the volume with its original size."""
    volume = node.child(args[0])
    if volume is None:
        return [args[0], 0.0]
    return [args[0], volume.get("size_gb", 0.0)]


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------

def _build_router() -> EntityType:
    router = EntityType("router", default_attrs={"max_vlans": 4096})

    @router.action("createVlan", undo="deleteVlan",
                   undo_args=lambda node, args: [args[0]])
    def create_vlan(model: DataModel, node: Node, vlan_id: int, vlan_name: str = "") -> None:
        name = f"vlan{int(vlan_id)}"
        if node.child(name) is not None:
            raise DataModelError(f"VLAN {vlan_id} already exists on {node.path}")
        node.add_child(
            Node(name, "vlan", {"vlan_id": int(vlan_id), "name": vlan_name or name, "ports": []})
        )

    @router.action(
        "deleteVlan",
        undo="createVlan",
        undo_args=lambda node, args: _delete_vlan_undo_args(node, args),
    )
    def delete_vlan(model: DataModel, node: Node, vlan_id: int) -> None:
        name = f"vlan{int(vlan_id)}"
        vlan = _child(node, name, "VLAN")
        if vlan.get("ports"):
            raise DataModelError(f"VLAN {vlan_id} still has attached ports")
        node.remove_child(name)

    @router.action("attachPort", undo="detachPort",
                   undo_args=lambda node, args: [args[0], args[1]])
    def attach_port(model: DataModel, node: Node, vlan_id: int, port: str) -> None:
        vlan = _child(node, f"vlan{int(vlan_id)}", "VLAN")
        ports = list(vlan.get("ports", []))
        if port not in ports:
            ports.append(port)
        vlan["ports"] = sorted(ports)

    @router.action("detachPort", undo="attachPort",
                   undo_args=lambda node, args: [args[0], args[1]])
    def detach_port(model: DataModel, node: Node, vlan_id: int, port: str) -> None:
        vlan = _child(node, f"vlan{int(vlan_id)}", "VLAN")
        vlan["ports"] = sorted(p for p in vlan.get("ports", []) if p != port)

    @router.action(
        "addFirewallRule",
        undo="removeFirewallRule",
        undo_args=lambda node, args: [args[0]],
    )
    def add_firewall_rule(
        model: DataModel,
        node: Node,
        rule_id: int,
        src: str = "any",
        dst: str = "any",
        policy: str = "deny",
    ) -> None:
        name = f"fw{int(rule_id)}"
        if node.child(name) is not None:
            raise DataModelError(f"firewall rule {rule_id} already exists on {node.path}")
        node.add_child(
            Node(
                name,
                "fwRule",
                {"rule_id": int(rule_id), "src": src, "dst": dst, "policy": policy},
            )
        )

    @router.action(
        "removeFirewallRule",
        undo="addFirewallRule",
        undo_args=lambda node, args: _remove_firewall_undo_args(node, args),
    )
    def remove_firewall_rule(model: DataModel, node: Node, rule_id: int) -> None:
        name = f"fw{int(rule_id)}"
        _child(node, name, "firewall rule")
        node.remove_child(name)

    @router.query("listVlans")
    def list_vlans(model: DataModel, node: Node) -> list[int]:
        return sorted(
            vlan.get("vlan_id") for vlan in node.children.values() if vlan.entity_type == "vlan"
        )

    @router.query("listFirewallRules")
    def list_firewall_rules(model: DataModel, node: Node) -> list[int]:
        return sorted(
            rule.get("rule_id")
            for rule in node.children.values()
            if rule.entity_type == "fwRule"
        )

    router.constraint("vlan-range", "VLAN ids must be unique and in range")(
        vlan_range_constraint
    )
    router.constraint("firewall-capacity", "firewall rules must fit the router's budget")(
        firewall_capacity_constraint
    )
    return router


def _remove_firewall_undo_args(node: Node, args: list[Any]) -> list[Any]:
    """Undo of removeFirewallRule re-adds the rule with its original fields."""
    rule = node.child(f"fw{int(args[0])}")
    if rule is None:
        return [args[0]]
    return [args[0], rule.get("src", "any"), rule.get("dst", "any"), rule.get("policy", "deny")]


def _delete_vlan_undo_args(node: Node, args: list[Any]) -> list[Any]:
    """Undo of deleteVlan recreates the (port-less) VLAN under its name."""
    vlan = node.child(f"vlan{int(args[0])}") or Node("", "vlan")
    return [args[0], vlan.get("name", "")]


# ----------------------------------------------------------------------
# Schema assembly
# ----------------------------------------------------------------------

def build_schema() -> ModelSchema:
    """Construct the TCloud model schema (entity types + constraints)."""
    schema = ModelSchema()
    schema.define("vmRoot")
    schema.define("storageRoot")
    schema.define("netRoot")
    schema.define("container")
    schema.register(_build_vm_host())
    schema.register(_build_storage_host())
    schema.register(_build_router())
    schema.define("vm")
    schema.define("image")
    schema.define("vlan")
    schema.define("volume")
    schema.define("fwRule")
    return schema
