"""Mock programmable switch/router layer with VLAN support."""

from __future__ import annotations

from typing import Any

from repro.common.errors import DeviceError
from repro.datamodel.node import Node
from repro.drivers.base import Device


class RouterDevice(Device):
    """A router/switch providing VLANs for inter-VM communication.

    Spawning a VM sets up VLANs, software bridges and firewalls (§2.1); the
    reproduction models the VLAN piece, which is what the TCloud service
    orchestrates.
    """

    entity_type = "router"

    def __init__(self, name: str, max_vlans: int = 4096, max_fw_rules: int = 1024, **kwargs: Any):
        super().__init__(name, **kwargs)
        self.max_vlans = max_vlans
        self.max_fw_rules = max_fw_rules
        #: vlan id (int) -> {"name": str, "ports": list[str]}
        self.vlans: dict[int, dict[str, Any]] = {}
        #: rule id (int) -> {"src": str, "dst": str, "policy": str}
        self.firewall_rules: dict[int, dict[str, Any]] = {}

    # -- device API ---------------------------------------------------------

    def create_vlan(self, vlan_id: int, vlan_name: str = "") -> None:
        vlan_id = int(vlan_id)
        if vlan_id in self.vlans:
            raise DeviceError(
                f"VLAN {vlan_id} already exists on {self.name}",
                device=self.name,
                action="createVlan",
            )
        if not 1 <= vlan_id <= self.max_vlans:
            raise DeviceError(
                f"VLAN id {vlan_id} out of range", device=self.name, action="createVlan"
            )
        self.vlans[vlan_id] = {"name": vlan_name or f"vlan{vlan_id}", "ports": []}

    def delete_vlan(self, vlan_id: int) -> None:
        vlan = self._vlan(vlan_id, "deleteVlan")
        if vlan["ports"]:
            raise DeviceError(
                f"VLAN {vlan_id} still has attached ports", device=self.name, action="deleteVlan"
            )
        del self.vlans[int(vlan_id)]

    def attach_port(self, vlan_id: int, port: str) -> None:
        vlan = self._vlan(vlan_id, "attachPort")
        if port not in vlan["ports"]:
            vlan["ports"].append(port)

    def detach_port(self, vlan_id: int, port: str) -> None:
        vlan = self._vlan(vlan_id, "detachPort")
        if port in vlan["ports"]:
            vlan["ports"].remove(port)

    def add_firewall_rule(
        self, rule_id: int, src: str = "any", dst: str = "any", policy: str = "deny"
    ) -> None:
        rule_id = int(rule_id)
        if rule_id in self.firewall_rules:
            raise DeviceError(
                f"firewall rule {rule_id} already exists on {self.name}",
                device=self.name,
                action="addFirewallRule",
            )
        if len(self.firewall_rules) >= self.max_fw_rules:
            raise DeviceError(
                f"router {self.name} firewall table is full",
                device=self.name,
                action="addFirewallRule",
            )
        self.firewall_rules[rule_id] = {"src": src, "dst": dst, "policy": policy}

    def remove_firewall_rule(self, rule_id: int) -> None:
        if int(rule_id) not in self.firewall_rules:
            raise DeviceError(
                f"no firewall rule {rule_id} on {self.name}",
                device=self.name,
                action="removeFirewallRule",
            )
        del self.firewall_rules[int(rule_id)]

    # -- introspection --------------------------------------------------------

    def _vlan(self, vlan_id: int, action: str) -> dict[str, Any]:
        vlan = self.vlans.get(int(vlan_id))
        if vlan is None:
            raise DeviceError(
                f"no VLAN {vlan_id} on {self.name}", device=self.name, action=action
            )
        return vlan

    def has_vlan(self, vlan_id: int) -> bool:
        return int(vlan_id) in self.vlans

    # -- reconciliation ----------------------------------------------------------

    def describe(self) -> Node:
        node = Node(self.name, self.entity_type, {"max_vlans": self.max_vlans})
        for vlan_id in sorted(self.vlans):
            vlan = self.vlans[vlan_id]
            node.add_child(
                Node(
                    f"vlan{vlan_id}",
                    "vlan",
                    {"vlan_id": vlan_id, "name": vlan["name"], "ports": sorted(vlan["ports"])},
                )
            )
        for rule_id in sorted(self.firewall_rules):
            rule = self.firewall_rules[rule_id]
            node.add_child(
                Node(
                    f"fw{rule_id}",
                    "fwRule",
                    {
                        "rule_id": rule_id,
                        "src": rule["src"],
                        "dst": rule["dst"],
                        "policy": rule["policy"],
                    },
                )
            )
        return node
