"""Synthetic data-model builders shared by benchmarks and tests.

The O(1)-snapshot micro-guard in ``benchmarks/bench_writepath.py`` builds
its fleet-shaped models here, so any other measurement of snapshot cost
can import the same tree shape instead of drifting from it.
"""

from __future__ import annotations

from repro.datamodel.tree import DataModel

#: Model sizes (in hosts) the O(1)-snapshot evidence is collected at.
SNAPSHOT_BENCH_SIZES = (50, 200, 800)


def build_host_fleet_model(hosts: int, vms_per_host: int = 2) -> DataModel:
    """A fleet-shaped model: ``/vmRoot/host<i>`` units with a fixed number
    of VM children each, matching the checkpoint-unit granularity the
    snapshot benchmarks care about."""
    model = DataModel()
    model.create("/vmRoot", "vmRoot")
    for h in range(hosts):
        model.create(f"/vmRoot/host{h}", "vmHost", {"mem_mb": 4096})
        for v in range(vms_per_host):
            state = "running" if v % 2 == 0 else "stopped"
            model.create(f"/vmRoot/host{h}/vm{v}", "vm", {"state": state})
    return model
