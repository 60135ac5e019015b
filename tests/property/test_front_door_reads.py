"""Reference-model parity for the front-door reads.

``TCloud``'s reads and the placement pickers walk the host units and
probe ``host.children`` by name instead of scanning the whole tree.  This
test keeps the scan implementation they replaced — written here on
``DataModel.find`` — as the oracle: after every step of a random
spawn / stop / start / destroy / migrate / volume sequence, every read
answers exactly what the brute-force scan answers on the same view.

Three views are exercised: the single-shard live model, a 2-shard
all-local merged ``fleet_view``, and an observer platform that serves the
writer's shards from read replicas (the ``gw_describe_replica`` shape).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import TropicConfig
from repro.common.errors import ProcedureError, ReproError
from repro.coordination.ensemble import CoordinationEnsemble
from repro.datamodel.tree import DataModel
from repro.tcloud.placement import STRATEGIES, PlacementEngine
from repro.tcloud.procedures import disk_image_name
from repro.tcloud.service import TCloud, VMRecord, VolumeRecord, build_tcloud

VM_HOSTS = 4
STORAGE_HOSTS = 2
HOST_MEM_MB = 2048
VM_NAMES = ["a--vm0", "a--vm1", "a--web", "b--vm0", "reserved-0"]
VOLUME_NAMES = ["a--data", "a--logs", "b--data"]
PREFIXES = ["a--", "a--vm", "b--", "zz"]


# -- the oracle: today's scans, on DataModel.find ------------------------------


def ref_list_vms(model: DataModel, prefix: str | None = None) -> list[VMRecord]:
    records = []
    for path in model.find(entity_type="vm"):
        node = model.get(path)
        records.append(
            VMRecord(
                name=node.name,
                host=str(path.parent),
                state=node.get("state", "unknown"),
                mem_mb=node.get("mem_mb", 0),
                image=node.get("image", ""),
            )
        )
    records = sorted(records, key=lambda r: r.name)
    return [r for r in records if prefix is None or r.name.startswith(prefix)]


def ref_list_volumes(model: DataModel, prefix: str | None = None) -> list[VolumeRecord]:
    records = []
    for path in model.find(entity_type="volume"):
        node = model.get(path)
        records.append(
            VolumeRecord(
                name=node.name,
                storage_host=str(path.parent),
                size_gb=node.get("size_gb", 0.0),
                exported=node.get("exported", False),
                attached_to=node.get("attached_to"),
            )
        )
    records = sorted(records, key=lambda r: r.name)
    return [r for r in records if prefix is None or r.name.startswith(prefix)]


def ref_first(records, name):
    return next((r for r in records if r.name == name), None)


def ref_host_utilisation(model: DataModel) -> dict:
    result = {}
    for path in model.find(entity_type="vmHost"):
        host = model.get(path)
        vms = [vm for vm in host.children.values() if vm.entity_type == "vm"]
        running = [vm for vm in vms if vm.get("state") == "running"]
        result[str(path)] = {
            "mem_mb": host.get("mem_mb", 0),
            "mem_used_mb": sum(vm.get("mem_mb", 0) for vm in running),
            "vms": len(vms),
            "running": len(running),
        }
    return result


def ref_storage_host_of(model: DataModel, record: VMRecord) -> str | None:
    image = record.image or disk_image_name(record.name)
    for path in model.find(entity_type="storageHost"):
        if model.get(path).child(image) is not None:
            return str(path)
    return None


def ref_choose(candidates, strategy, rr_index):
    if not candidates:
        return None
    if strategy == "least_loaded":
        return max(candidates, key=lambda item: item[1])[0]
    if strategy == "round_robin":
        return sorted(path for path, _ in candidates)[rr_index % len(candidates)]
    return sorted(path for path, _ in candidates)[0]


def ref_pick_vm_host(model, strategy, rr_index, mem_mb, hypervisor=None):
    candidates = []
    for path in model.find(entity_type="vmHost"):
        host = model.get(path)
        if hypervisor is not None and host.get("hypervisor") != hypervisor:
            continue
        committed = sum(
            vm.get("mem_mb", 0)
            for vm in host.children.values()
            if vm.entity_type == "vm" and vm.get("state") == "running"
        )
        free = host.get("mem_mb", 0) - committed
        if free >= mem_mb:
            candidates.append((str(path), free))
    return ref_choose(candidates, strategy, rr_index)


def ref_pick_storage_host(model, strategy, rr_index, size_gb, template=None):
    candidates = []
    for path in model.find(entity_type="storageHost"):
        host = model.get(path)
        if template is not None and host.child(template) is None:
            continue
        used = sum(
            child.get("size_gb", 0.0)
            for child in host.children.values()
            if child.entity_type in ("image", "volume")
        )
        free = host.get("capacity_gb", 0.0) - used
        if free >= size_gb:
            candidates.append((str(path), free))
    return ref_choose(candidates, strategy, rr_index)


def with_planted_reservations(model, reserved_mb, reserved_gb) -> DataModel:
    """The reservation scheme the ``reserved`` dicts replaced: a private
    copy of the model with one fake running VM / image per reserved host."""
    planted = model.deep_clone()
    for host, mem_mb in reserved_mb.items():
        planted.create(f"{host}/__reserved__", "vm", {"mem_mb": mem_mb, "state": "running"})
    for host, size_gb in reserved_gb.items():
        planted.create(f"{host}/__reserved__", "image", {"size_gb": size_gb})
    return planted


def pick_or_none(pick, *args):
    try:
        return pick(*args)
    except ProcedureError:
        return None


# -- parity --------------------------------------------------------------------


def assert_parity(reader: TCloud) -> None:
    """Every front-door read of ``reader`` equals the brute-force scan of
    the view it was served from."""
    model = reader.platform.model_view()
    vms = ref_list_vms(model)
    volumes = ref_list_volumes(model)
    assert reader.list_vms() == vms
    assert reader.list_volumes() == volumes
    assert reader.vm_count() == len(vms)
    for prefix in PREFIXES:
        assert reader.list_vms(prefix) == ref_list_vms(model, prefix)
        assert reader.list_volumes(prefix=prefix) == ref_list_volumes(model, prefix)
    for name in VM_NAMES + ["absent"]:
        assert reader.find_vm(name) == ref_first(vms, name)
    for name in VOLUME_NAMES + ["absent", "template-small"]:
        assert reader.find_volume(name) == ref_first(volumes, name)
    utilisation, expected = reader.host_utilisation(), ref_host_utilisation(model)
    assert utilisation == expected and list(utilisation) == list(expected)
    for record in vms:
        assert reader._storage_host_of(record) == ref_storage_host_of(model, record)
    assert reader._storage_host_of(VMRecord("absent", "", "", 0, "")) is None

    hosts = reader.inventory.vm_hosts
    stores = reader.inventory.storage_hosts
    reservations = [
        ({}, {}),
        ({hosts[0]: 1024, hosts[3]: 512}, {stores[0]: 4000.0, stores[1]: 8.0}),
        ({host: HOST_MEM_MB for host in hosts}, {store: 4096.0 for store in stores}),
    ]
    for strategy in STRATEGIES:
        for reserved_mb, reserved_gb in reservations:
            planted = with_planted_reservations(model, reserved_mb, reserved_gb)
            engine = PlacementEngine(strategy)
            rr = 0
            for mem_mb, hypervisor in [(256, None), (1024, None), (1024, "kvm-1.0"), (9999, None)]:
                got = pick_or_none(
                    engine.pick_vm_host, model, mem_mb, hypervisor, reserved_mb or None
                )
                assert got == ref_pick_vm_host(planted, strategy, rr, mem_mb, hypervisor)
                rr += got is not None
            for size_gb, template in [(8.0, "template-small"), (64.0, None), (8.0, "nope")]:
                got = pick_or_none(
                    engine.pick_storage_host, model, size_gb, template, reserved_gb or None
                )
                assert got == ref_pick_storage_host(planted, strategy, rr, size_gb, template)
                rr += got is not None


# -- deployments ---------------------------------------------------------------


def build(shape: str, placement_strategy: str = "least_loaded") -> tuple[list[TCloud], TCloud, TCloud]:
    """``(all clouds, writer, reader)`` for one of the three view shapes."""
    fleet = dict(
        num_vm_hosts=VM_HOSTS,
        num_storage_hosts=STORAGE_HOSTS,
        host_mem_mb=HOST_MEM_MB,
        hypervisors=["xen-4.1", "kvm-1.0"],
        logical_only=True,
        placement_strategy=placement_strategy,
    )
    if shape == "single":
        clouds = [build_tcloud(**fleet)]
    elif shape == "two_shards":
        config = TropicConfig(num_shards=2, cross_shard_policy="2pc")
        clouds = [build_tcloud(config=config, **fleet)]
    else:  # observer: shards 0 and 1 are served from read replicas
        config = TropicConfig(num_shards=3, cross_shard_policy="2pc")
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        clouds = [
            build_tcloud(config=config, ensemble=ensemble, local_shards=local, **fleet)
            for local in ([0, 1], [2])
        ]
    for cloud in clouds:
        cloud.platform.start()
    return clouds, clouds[0], clouds[-1]


SHAPES = ["single", "two_shards", "observer"]

vm_name = st.sampled_from(VM_NAMES)
volume_name = st.sampled_from(VOLUME_NAMES)
vm_host = st.integers(0, VM_HOSTS - 1)
storage_host = st.integers(0, STORAGE_HOSTS - 1)
mem_mb = st.sampled_from([256, 512, 1024])

step = st.one_of(
    st.tuples(st.just("spawn_pinned"), vm_name, vm_host, storage_host, mem_mb),
    st.tuples(st.just("spawn_auto"), st.lists(vm_name, min_size=1, max_size=4, unique=True),
              mem_mb),
    st.tuples(st.just("stop"), vm_name),
    st.tuples(st.just("start"), vm_name),
    st.tuples(st.just("destroy"), vm_name),
    st.tuples(st.just("migrate"), vm_name, st.one_of(st.none(), vm_host)),
    st.tuples(st.just("create_volume"), volume_name, st.one_of(st.none(), storage_host),
              st.sampled_from([1.0, 8.0, 64.0])),
    st.tuples(st.just("attach"), volume_name, vm_name),
    st.tuples(st.just("detach"), volume_name, vm_name),
    st.tuples(st.just("delete_volume"), volume_name),
)


def apply_step(writer: TCloud, op: tuple) -> None:
    """Run one step through the service API.  Steps aimed at something
    that is not there (or, for the observer shape, at a shard the writer
    does not host) fail before or inside the transaction; either way the
    reads must keep agreeing with the oracle."""
    inventory = writer.inventory
    kind = op[0]
    try:
        if kind == "spawn_pinned":
            writer.spawn_vm(op[1], vm_host=inventory.vm_hosts[op[2]],
                            storage_host=inventory.storage_hosts[op[3]], mem_mb=op[4])
        elif kind == "spawn_auto":
            writer.spawn_vms([{"vm_name": name, "mem_mb": op[2]} for name in op[1]])
        elif kind == "stop":
            writer.stop_vm(op[1])
        elif kind == "start":
            writer.start_vm(op[1])
        elif kind == "destroy":
            writer.destroy_vm(op[1])
        elif kind == "migrate":
            writer.migrate_vm(op[1], None if op[2] is None else inventory.vm_hosts[op[2]])
        elif kind == "create_volume":
            writer.create_volume(
                op[1], op[3], None if op[2] is None else inventory.storage_hosts[op[2]])
        elif kind == "attach":
            writer.attach_volume(op[1], op[2])
        elif kind == "detach":
            writer.detach_volume(op[1], op[2])
        elif kind == "delete_volume":
            writer.delete_volume(op[1])
    except ReproError:
        pass


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(steps=st.lists(step, min_size=1, max_size=12), strategy=st.sampled_from(STRATEGIES))
def test_reads_match_the_brute_force_scan(shape, steps, strategy):
    clouds, writer, reader = build(shape, strategy)
    try:
        assert_parity(reader)  # the VM-less, volume-less fleet
        for op in steps:
            apply_step(writer, op)
            assert_parity(reader)
            if reader is not writer:
                assert_parity(writer)
    finally:
        for cloud in clouds:
            cloud.platform.stop()


@pytest.mark.parametrize("shape", SHAPES)
def test_duplicate_names_on_two_hosts_resolve_in_host_path_order(shape):
    """The platform only requires VM names to be unique per compute host
    (and volume names per storage host): ``find_*`` answers the first host
    in path order, ``list_*`` keeps both, ties in host-path order."""
    clouds, writer, reader = build(shape)
    try:
        hosts, stores = writer.inventory.vm_hosts, writer.inventory.storage_hosts
        for vm_host_index, store_index in ((2, 1), (0, 0)):
            writer.spawn_vm("a--vm0", vm_host=hosts[vm_host_index],
                            storage_host=stores[store_index], mem_mb=256)
            writer.create_volume("a--data", 8.0, stores[store_index])
        assert [r.host for r in reader.list_vms("a--")] == [hosts[0], hosts[2]]
        assert reader.find_vm("a--vm0").host == hosts[0]
        assert [r.storage_host for r in reader.list_volumes()] == [stores[0], stores[1]]
        assert reader.find_volume("a--data").storage_host == stores[0]
        assert reader.vm_count() == 2
        assert_parity(reader)
    finally:
        for cloud in clouds:
            cloud.platform.stop()
