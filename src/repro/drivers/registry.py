"""Device registry: maps data-model paths to physical devices.

The worker replays execution-log records of the form
``(path, action, args)``; the registry resolves ``path`` (or its nearest
registered ancestor) to the device whose API implements ``action``.  The
registry also assembles the *physical data model* by asking every device to
describe itself, which feeds the reload/repair reconciliation of §4.
"""

from __future__ import annotations

from repro.common.errors import DeviceError
from repro.datamodel.path import ResourcePath
from repro.datamodel.tree import DataModel
from repro.drivers.base import Device


class DeviceRegistry:
    """Path-addressable collection of mock devices."""

    def __init__(self) -> None:
        self._devices: dict[ResourcePath, Device] = {}
        self._containers: dict[ResourcePath, str] = {}

    # -- registration -----------------------------------------------------

    def register(self, path: str | ResourcePath, device: Device) -> Device:
        rpath = ResourcePath.parse(path)
        if rpath in self._devices:
            raise DeviceError(f"a device is already registered at {rpath}")
        self._devices[rpath] = device
        return device

    def register_container(self, path: str | ResourcePath, entity_type: str) -> None:
        """Declare a pure-container path (e.g. ``/vmRoot``) and its entity type
        so the physical model can be assembled with correct typing."""
        self._containers[ResourcePath.parse(path)] = entity_type

    def unregister(self, path: str | ResourcePath) -> Device | None:
        return self._devices.pop(ResourcePath.parse(path), None)

    # -- lookup --------------------------------------------------------------

    def lookup(self, path: str | ResourcePath) -> tuple[ResourcePath, Device]:
        """Resolve ``path`` to the device registered at it or at its nearest
        ancestor.  Raises :class:`DeviceError` if none is found."""
        rpath = ResourcePath.parse(path)
        candidates = list(rpath.ancestors(include_self=True))
        for candidate in reversed(candidates):
            device = self._devices.get(candidate)
            if device is not None:
                return candidate, device
        raise DeviceError(f"no device registered for path {rpath}")

    def device_at(self, path: str | ResourcePath) -> Device | None:
        return self._devices.get(ResourcePath.parse(path))

    def devices(self) -> list[tuple[ResourcePath, Device]]:
        return sorted(self._devices.items(), key=lambda item: item[0])

    def device_paths(self) -> list[ResourcePath]:
        return sorted(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    # -- physical data model ----------------------------------------------------

    def build_physical_model(self) -> DataModel:
        """Assemble the physical data model from device descriptions."""
        model = DataModel()
        for path, entity_type in sorted(self._containers.items()):
            self._ensure_containers(model, path, entity_type)
        for path, device in self.devices():
            if not device.online:
                continue
            parent = path.parent
            self._ensure_containers(model, parent, self._containers.get(parent, "container"))
            subtree = device.describe()
            subtree.name = path.name
            model.get(parent).add_child(subtree)
        return model

    @staticmethod
    def _ensure_containers(model: DataModel, path: ResourcePath, entity_type: str) -> None:
        current = ResourcePath()
        for part in path.parts:
            current = current.child(part)
            if not model.exists(current):
                etype = entity_type if current == path else "container"
                model.create(current, etype)
