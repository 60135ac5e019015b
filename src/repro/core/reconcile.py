"""Reconciliation between the logical and physical layers (§4).

TROPIC does not try to transparently mask resource volatility.  It detects
cross-layer inconsistencies (failed undos, out-of-band changes, crashes),
fences the affected subtrees, and offers two eventual-consistency
mechanisms:

* **reload** (physical → logical): replace logical subtrees with the state
  retrieved from devices, provided no constraint is violated and no
  outstanding transaction holds conflicting locks;
* **repair** (logical → physical): diff the two layers and execute
  pre-defined compensating device actions (e.g. restart VMs powered off by
  a host reboot) so the physical layer converges back to the logical state.

Resources that cannot be reconciled are marked unusable (fenced) so future
transactions avoid them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import DeviceError, ReproError
from repro.core.controller import Controller
from repro.datamodel.node import Node
from repro.datamodel.path import ResourcePath
from repro.datamodel.snapshot import ModelDiff, NodeDelta, diff_models
from repro.datamodel.tree import DataModel
from repro.drivers.registry import DeviceRegistry

#: A repair handler inspects one delta and returns device calls
#: ``(device_path, action, args)`` that bring the physical state back in
#: line with the logical state.
RepairHandler = Callable[[NodeDelta], list[tuple[str, str, list[Any]]]]


@dataclass
class RepairReport:
    """Outcome of one repair pass."""

    inspected: int = 0
    actions_executed: list[tuple[str, str, list[Any]]] = field(default_factory=list)
    action_errors: list[str] = field(default_factory=list)
    unrepairable: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.action_errors and not self.unrepairable


@dataclass
class ReloadReport:
    """Outcome of one reload operation."""

    path: str
    applied: bool
    violations: list[str] = field(default_factory=list)
    conflict: str | None = None


class Reconciler:
    """Detects and resolves divergence between the two layers."""

    def __init__(self, controller: Controller, registry: DeviceRegistry):
        self.controller = controller
        self.registry = registry
        self._handlers: dict[str, RepairHandler] = {}
        self.register_handler("vm", self._repair_vm)
        self.register_handler("image", self._repair_image)
        self.register_handler("vmHost", self._repair_vm_host)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def physical_model(self) -> DataModel:
        """Assemble the physical data model from device descriptions."""
        return self.registry.build_physical_model()

    def detect(self, path: str | ResourcePath = "/") -> ModelDiff:
        """Diff the logical and physical layers under ``path``."""
        return diff_models(self.controller.model, self.physical_model(), path)

    def detect_and_fence(self, path: str | ResourcePath = "/") -> ModelDiff:
        """Periodic detection (§4): fence every diverging subtree root.

        The fence is placed on the *device* owning the diverging node (its
        nearest registered ancestor), so the whole device subtree is denied
        to new transactions until reconciled — e.g. a rebooted compute host
        stops accepting spawns even though only its VMs' states diverged.
        """
        diff = self.detect(path)
        self.controller.fence(mark=[self._fence_root(delta.path) for delta in diff.all_deltas()])
        return diff

    def _fence_root(self, delta_path: ResourcePath) -> ResourcePath | None:
        """The path to fence for a divergence at ``delta_path``.

        Prefers the registered device root, then the diverging node itself,
        then its parent; returns None if none of these exist logically.
        """
        try:
            device_path, _ = self.registry.lookup(delta_path)
        except DeviceError:
            device_path = None
        candidates = [device_path, delta_path, delta_path.parent]
        for candidate in candidates:
            if candidate is not None and self.controller.model.exists(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------
    # Reload: physical -> logical
    # ------------------------------------------------------------------

    def reload(self, path: str | ResourcePath) -> ReloadReport:
        """Replace the logical subtree at ``path`` with the physical state.

        The swap and the checkpoint that makes it durable commit together
        through ``Controller._commit``, so the reload is applied only at a
        quiesce point: with transactions outstanding the checkpoint, its
        only durable route, cannot run, and the report names the
        conflict.  Not applied either if the reloaded state would violate
        constraints.
        """
        rpath = ResourcePath.parse(path)
        physical = self.physical_model()
        subtree = physical.get(rpath).clone() if physical.exists(rpath) else None
        report = ReloadReport(path=str(rpath), applied=False)
        self.controller._commit(lambda: self._reload(rpath, subtree, report))
        return report

    def _reload(
        self, rpath: ResourcePath, subtree: Node | None, report: ReloadReport
    ) -> None:
        """Reload's commit body: swap the subtree in (``None``: the device
        was decommissioned out of band, so drop it), lift the fences under
        it and checkpoint.  No lock probe is needed: every lock holder is
        outstanding, so a quiesce point has an empty lock table."""
        controller = self.controller
        if not controller.recovered:
            # Its model need not match the store: checkpointing it could
            # lose commits.
            report.conflict = "controller not recovered"
            return
        if controller.outstanding:
            report.conflict = f"{len(controller.outstanding)} transactions outstanding"
            return
        model = controller.model
        previous = model.get(rpath) if model.exists(rpath) else None
        if subtree is not None:
            model.replace_subtree(rpath, subtree)
            violations = controller.constraint_engine.check_subtree(model, rpath)
            if violations:
                if previous is None:
                    model.delete(rpath, recursive=True)
                else:
                    model.replace_subtree(rpath, previous)
                report.violations = violations
                return
        elif previous is not None:
            model.delete(rpath, recursive=True)
        controller._refence(lift=lambda fenced: fenced.is_descendant_of(rpath, strict=False))
        controller._checkpoint()
        report.applied = True

    # ------------------------------------------------------------------
    # Repair: logical -> physical
    # ------------------------------------------------------------------

    def register_handler(self, entity_type: str, handler: RepairHandler) -> None:
        """Register a pre-defined repair handler for one entity type."""
        self._handlers[entity_type] = handler

    def repair(self, path: str | ResourcePath = "/") -> RepairReport:
        """Drive the physical layer back to the logical state under ``path``."""
        report = RepairReport()
        diff = self.detect(path)
        for delta in diff.all_deltas():
            report.inspected += 1
            entity_type = self._entity_type_for(delta)
            handler = self._handlers.get(entity_type)
            if handler is None:
                report.unrepairable.append(str(delta.path))
                continue
            for device_path, action, args in handler(delta):
                try:
                    _, device = self.registry.lookup(device_path)
                    device.invoke(action, args, phase="repair")
                    report.actions_executed.append((device_path, action, args))
                except (DeviceError, ReproError) as exc:
                    report.action_errors.append(f"{action}@{device_path}: {exc}")
                    report.unrepairable.append(str(delta.path))

        # Verify convergence: lift the fences under ``path`` where the
        # layers now agree, and fence what could not be repaired.
        scope = ResourcePath.parse(path)
        diverged = [delta.path for delta in self.detect(path).all_deltas()]

        def converged(fenced: ResourcePath) -> bool:
            return fenced.is_descendant_of(scope, strict=False) and not any(
                bad.is_descendant_of(fenced, strict=False) for bad in diverged
            )

        self.controller.fence(mark=report.unrepairable, lift=converged)
        return report

    # ------------------------------------------------------------------
    # Default repair handlers
    # ------------------------------------------------------------------

    def _entity_type_for(self, delta: NodeDelta) -> str:
        if self.controller.model.exists(delta.path):
            return self.controller.model.get(delta.path).entity_type
        physical = self.physical_model()
        if physical.exists(delta.path):
            return physical.get(delta.path).entity_type
        return ""

    def _repair_vm(self, delta: NodeDelta) -> list[tuple[str, str, list[Any]]]:
        """Repair VM divergence: power state drift and VMs destroyed out of band."""
        host_path = str(delta.path.parent)
        vm_name = delta.path.name
        calls: list[tuple[str, str, list[Any]]] = []
        if delta.kind == "changed" and "state" in delta.changed_keys:
            logical_state = delta.attrs_left.get("state")
            if logical_state == "running":
                calls.append((host_path, "startVM", [vm_name]))
            elif logical_state == "stopped":
                calls.append((host_path, "stopVM", [vm_name]))
        elif delta.kind == "removed":
            # VM exists logically but not physically: recreate and restore state.
            image = delta.attrs_left.get("image")
            mem_mb = delta.attrs_left.get("mem_mb", 1024)
            hypervisor = delta.attrs_left.get("hypervisor")
            calls.append((host_path, "importImage", [image]))
            calls.append((host_path, "createVM", [vm_name, image, mem_mb, hypervisor]))
            if delta.attrs_left.get("state") == "running":
                calls.append((host_path, "startVM", [vm_name]))
        elif delta.kind == "added":
            # VM exists physically but not logically: remove the orphan.
            if delta.attrs_right.get("state") == "running":
                calls.append((host_path, "stopVM", [vm_name]))
            calls.append((host_path, "removeVM", [vm_name]))
        return calls

    def _repair_vm_host(self, delta: NodeDelta) -> list[tuple[str, str, list[Any]]]:
        """Repair compute-host attribute drift (currently: imported images)."""
        host_path = str(delta.path)
        calls: list[tuple[str, str, list[Any]]] = []
        if delta.kind == "changed" and "imported_images" in delta.changed_keys:
            logical = set(delta.attrs_left.get("imported_images") or [])
            physical = set(delta.attrs_right.get("imported_images") or [])
            for image in sorted(logical - physical):
                calls.append((host_path, "importImage", [image]))
            for image in sorted(physical - logical):
                calls.append((host_path, "unimportImage", [image]))
        return calls

    def _repair_image(self, delta: NodeDelta) -> list[tuple[str, str, list[Any]]]:
        """Repair image export-state drift on storage hosts."""
        host_path = str(delta.path.parent)
        image_name = delta.path.name
        calls: list[tuple[str, str, list[Any]]] = []
        if delta.kind == "changed" and "exported" in delta.changed_keys:
            if delta.attrs_left.get("exported"):
                calls.append((host_path, "exportImage", [image_name]))
            else:
                calls.append((host_path, "unexportImage", [image_name]))
        elif delta.kind == "added" and not delta.attrs_right.get("template"):
            if delta.attrs_right.get("exported"):
                calls.append((host_path, "unexportImage", [image_name]))
            calls.append((host_path, "removeImage", [image_name]))
        return calls
