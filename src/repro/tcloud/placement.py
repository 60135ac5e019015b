"""Placement of new VMs and disk images onto hosts.

The TCloud API gateway chooses a compute host and a storage host for each
spawn request (the paper's operators can also pin hosts explicitly, e.g.
for consolidation).  Placement reads the *logical* data model — the same
state the constraints are checked against — so a well-placed VM normally
commits without constraint aborts, while a deliberately bad placement (or a
race that the constraint engine catches) aborts safely.
"""

from __future__ import annotations

import itertools

from repro.common.errors import ProcedureError
from repro.datamodel.tree import DataModel
from repro.tcloud.inventory import hosts

LEAST_LOADED = "least_loaded"
ROUND_ROBIN = "round_robin"
FIRST_FIT = "first_fit"
STRATEGIES = (LEAST_LOADED, ROUND_ROBIN, FIRST_FIT)


class PlacementEngine:
    """Chooses compute and storage hosts for new VMs."""

    def __init__(self, strategy: str = LEAST_LOADED):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown placement strategy {strategy!r}")
        self.strategy = strategy
        self._round_robin = itertools.count()

    # -- compute ---------------------------------------------------------

    def pick_vm_host(
        self,
        model: DataModel,
        mem_mb: int,
        hypervisor: str | None = None,
        reserved: dict[str, int] | None = None,
    ) -> str:
        """Pick a compute host with enough free memory (and hypervisor type).

        ``reserved`` maps host path to memory already promised to earlier
        picks of the same batch; it is subtracted from the host's free
        memory.  Cost: O(compute hosts + VMs on them).
        """
        reserved = reserved or {}
        candidates = []
        for path, host in hosts(model, "vmHost"):
            if hypervisor is not None and host.get("hypervisor") != hypervisor:
                continue
            committed = sum(
                vm.get("mem_mb", 0)
                for vm in list(host.children.values())
                if vm.entity_type == "vm" and vm.get("state") == "running"
            )
            free = host.get("mem_mb", 0) - committed - reserved.get(path, 0)
            if free >= mem_mb:
                candidates.append((path, free))
        if not candidates:
            raise ProcedureError(
                f"no compute host has {mem_mb} MB free"
                + (f" with hypervisor {hypervisor}" if hypervisor else "")
            )
        return self._choose(candidates)

    # -- storage -----------------------------------------------------------

    def pick_storage_host(
        self,
        model: DataModel,
        size_gb: float,
        template: str | None = None,
        reserved: dict[str, float] | None = None,
    ) -> str:
        """Pick a storage host with enough free capacity.

        With ``template`` set, only hosts holding that image template are
        considered (the spawn path); with ``template=None`` any storage host
        qualifies (the block-volume path).  ``reserved`` maps host path to
        capacity already promised to earlier picks of the same batch.
        Cost: O(storage hosts + images and volumes on them).
        """
        reserved = reserved or {}
        candidates = []
        for path, host in hosts(model, "storageHost"):
            if template is not None and template not in host.children:
                continue
            used = sum(
                child.get("size_gb", 0.0)
                for child in list(host.children.values())
                if child.entity_type in ("image", "volume")
            )
            free = host.get("capacity_gb", 0.0) - used - reserved.get(path, 0.0)
            if free >= size_gb:
                candidates.append((path, free))
        if not candidates:
            wanted = f" with template {template!r}" if template is not None else ""
            raise ProcedureError(f"no storage host{wanted} has {size_gb} GB free")
        return self._choose(candidates)

    def _choose(self, candidates: list[tuple[str, float]]) -> str:
        """Apply the strategy to ``(path, free)`` candidates in path order."""
        if self.strategy == LEAST_LOADED:
            # Most free capacity first: spreads load across hosts.
            return max(candidates, key=lambda item: item[1])[0]
        if self.strategy == ROUND_ROBIN:
            return candidates[next(self._round_robin) % len(candidates)][0]
        return candidates[0][0]  # first fit
