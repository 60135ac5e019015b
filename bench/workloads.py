"""The five seeded workloads of the gateway-to-store benchmark.

Every workload drives the platform's *inline* runtime (``threaded=False``)
from one closed-loop client with the shipped defaults (``logical_only``,
``checkpoint_every=64``, ``input_batch_size=64``, ``pipeline_depth=1``,
``worker_batch_size=16``).  A workload is a sequence of *rounds*; round
``i`` is a pure function of ``(workload, seed, i)`` and leaves the resource
population where it found it, so any number of rounds can be run against
one deployment and the per-transaction counts repeat exactly.

Phases of one run (see ``run.py``): set-up (build + pre-load + warm-up),
fixed history rounds, crash-restarts on that fixed history, then timed
rounds until the clock runs out.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from stats import Interval

from repro.common.config import TropicConfig
from repro.coordination.ensemble import CoordinationEnsemble
from repro.core.txn import TransactionState
from repro.gateway.api import ApiGateway
from repro.gateway.tenants import TenantDirectory, TenantQuota
from repro.tcloud.procedures import disk_image_name
from repro.tcloud.service import TCloud, build_tcloud

COMMITTED = TransactionState.COMMITTED
TENANTS = 8
HOST_MEM_MB = 65536
INSTANCE_TYPES = ("t.small", "t.medium")
#: Controller counters summed over every platform of a deployment.
CONTROLLER_COUNTERS = (
    "committed", "deferred", "aborted_logical", "aborted_physical", "failed",
    "checkpoints", "cross_shard_wounded", "cross_shard_waits",
)
ENSEMBLE_COUNTERS = (
    "op_count", "write_round_trips", "read_round_trips", "multi_count",
    "multi_sub_ops", "bytes_written",
)


def spawn_request(name: str, vm_host: str, storage_host: str, mem_mb: int = 512):
    return (
        "spawnVM",
        {
            "vm_name": name,
            "image_template": "template-small",
            "storage_host": storage_host,
            "vm_host": vm_host,
            "mem_mb": mem_mb,
        },
    )


def destroy_request(spawn: tuple[str, dict[str, Any]]):
    args = spawn[1]
    return (
        "destroyVM",
        {
            "vm_host": args["vm_host"],
            "vm_name": args["vm_name"],
            "storage_host": args["storage_host"],
        },
    )


def storage_interleaved(inventory, indices: list[int]) -> list[int]:
    """Order compute-host indices so neighbours use different storage
    hosts: ``spawnVM`` write-locks its storage host, and back-to-back
    requests on one storage host would measure submission order, not the
    write path."""
    groups: dict[str, list[int]] = {}
    for index in indices:
        groups.setdefault(inventory.storage_host_for(index), []).append(index)
    columns = list(groups.values())
    return [
        column[row]
        for row in range(max(len(c) for c in columns))
        for column in columns
        if row < len(column)
    ]


def model_digest(cloud: TCloud) -> str:
    """Content hash of the merged read view (restart equality check; a
    shard's own tree also holds bootstrap-frozen foreign subtrees, which
    are not authoritative and may differ after recovery)."""
    payload = json.dumps(cloud.platform.model_view().to_dict(), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


class Workload:
    """Shared phases; subclasses supply the deployment and the rounds."""

    name = ""
    primary_op = ""
    secondary_op = ""
    #: (full, quick) sizes; quick is the 1/20-size self-check.
    vm_hosts = (0, 0)
    storage_hosts = (0, 0)
    history = (0, 0)
    #: Crash-restarts per run (the median is reported): more where one is cheap.
    restarts = 25
    num_shards = 1
    cross_shard_policy = "reject"
    coordination_latency = 0.0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.config = TropicConfig(
            logical_only=True,
            num_shards=self.num_shards,
            cross_shard_policy=self.cross_shard_policy,
            coordination_latency=self.coordination_latency,
        )
        self.ensemble: CoordinationEnsemble | None = None
        self.clouds: list[TCloud] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.acked: list[str] = []
        self.probes = 0
        #: Traced runs replace this with ``Tracer.op`` (one span per operation).
        self.span = nullcontext
        self.reset_samples()

    # -- sizing --------------------------------------------------------

    def size(self, pair: tuple[int, int]) -> int:
        return pair[1] if self.quick else pair[0]

    def rng(self, *scope: Any) -> random.Random:
        return random.Random(":".join(str(part) for part in (self.name, self.seed, *scope)))

    # -- deployment ----------------------------------------------------

    def new_cloud(self, local_shards: list[int] | None = None) -> TCloud:
        return build_tcloud(
            num_vm_hosts=self.size(self.vm_hosts),
            num_storage_hosts=self.size(self.storage_hosts),
            host_mem_mb=HOST_MEM_MB,
            config=self.config,
            logical_only=True,
            ensemble=self.ensemble,
            local_shards=local_shards,
        )

    def build(self) -> None:
        """Set-up: deployment, pre-load and warm-up (timed as ``setup_s``)."""
        self.ensemble = CoordinationEnsemble(
            num_servers=3,
            default_session_timeout=self.config.session_timeout,
            op_latency=self.config.coordination_latency,
        )
        self.clouds = [self.new_cloud(shards) for shards in self.shard_layout()]
        for cloud in self.clouds:
            cloud.platform.start()
        self.acked = []
        self.deployed()
        self.preload()
        self.warm_up()
        self.reset_samples()

    def shard_layout(self) -> list[list[int] | None]:
        return [None]

    def deployed(self) -> None:
        """Hook: derive host lists, gateways, ... from the fresh clouds."""

    def preload(self) -> None:
        """Hook: populate the deployment before the warm-up."""

    def warm_up(self) -> None:
        """Untimed first use of every code path the rounds take."""
        self.round(-1)

    def teardown(self) -> None:
        for cloud in self.clouds:
            cloud.platform.stop()
        self.clouds = []
        self.ensemble = None

    @property
    def writer(self) -> TCloud:
        return self.clouds[0]

    def reset_samples(self) -> None:
        self.primary: list[float] = []
        self.secondary: list[float] = []
        self.ops = 0  # operations completed (throughput numerator)
        self.unclocked_s = 0.0
        self.crossed = 0  # cross-shard transactions committed
        self.fresh_reads = self.fresh_ops = self.fresh_lag = 0
        self.cached_reads = self.cached_ops = 0

    # -- rounds --------------------------------------------------------

    def plan(self, index: int) -> Any:
        """Request descriptors of round ``index`` — pure in (seed, index)."""
        raise NotImplementedError

    def round(self, index: int) -> None:
        raise NotImplementedError

    def sequence_digest(self) -> str:
        """Hash of the first rounds' generated requests (self-check: equal
        seeds give equal sequences, another seed gives another)."""
        payload = repr([self.plan(index) for index in range(3)])
        return hashlib.sha1(payload.encode()).hexdigest()

    @contextmanager
    def unclocked(self) -> Iterator[None]:
        """Output checks run inside this: their time is taken off the
        timed wall and never lands in a latency sample."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.unclocked_s += time.perf_counter() - started

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def expect_committed(self, txns, what: str) -> None:
        for txn in txns:
            self.expect(txn.state is COMMITTED, f"{what}: {txn.txid} {txn.state} {txn.error}")

    def burst(self, cloud: TCloud, requests, what: str) -> list:
        """Commit one ``submit_many`` burst; every transaction must commit."""
        with self.span():
            txns = cloud.platform.submit_many(requests, wait=True, timeout=120.0)
        self.expect_committed(txns, what)
        self.acked.extend(txn.txid for txn in txns)
        return txns

    # -- crash-restart -------------------------------------------------

    def restart(self) -> dict[str, float]:
        """Crash the writing platform and bring up a successor on the same
        ensemble.  Timed (each at reference host speed): successor
        ``start()`` and the first probe commit; failure *detection* is
        ``session_timeout`` by construction and is not measured.  The
        equality checks sit between the two timers."""
        old = self.writer
        self.expect_no_orphans()
        before = model_digest(old)
        vms_before = old.vm_count()
        layout = self.shard_layout()[0]
        self.ensemble.expire_session(old.platform.client.session_id)
        old.platform.stop()
        new = self.new_cloud(layout)
        ops_before = self.ensemble.op_count
        start = Interval()
        new.platform.start()
        start.stop()
        ops = self.ensemble.op_count - ops_before
        self.clouds[0] = new
        self.deployed()
        self.expect(model_digest(new) == before,
                    "successor model digest differs from predecessor")
        self.expect(new.vm_count() == vms_before, "successor VM count differs")
        if self.acked:
            lost = [
                txid for txid in self.acked
                if (txn := new.platform.load_transaction(txid)) is None or not txn.is_terminal
            ]
            self.expect(not lost, f"{len(lost)} acked txids not terminal after restart")
            self.acked = []
        probe = self.probe_request()
        first_commit = Interval()
        txn = new.platform.submit(*probe, wait=True, timeout=120.0)
        first_commit.stop()
        self.expect(txn.state is COMMITTED, f"restart probe {txn.state} {txn.error}")
        self.expect_committed(
            [new.platform.submit(*destroy_request(probe), wait=True)], "probe clean-up"
        )
        self.probes += 1
        return {
            "recovery_s": start.reference_s + first_commit.reference_s,
            "first_commit_s": first_commit.reference_s,
            "wall_s": start.wall_s + first_commit.wall_s,
            "ops": ops,
        }

    def probe_request(self):
        raise NotImplementedError

    # -- counters and final checks ---------------------------------------

    def counters(self) -> dict[str, int]:
        values = {name: getattr(self.ensemble, name) for name in ENSEMBLE_COUNTERS}
        values["znodes"] = self.ensemble.total_znodes()
        values["bootstraps"] = sum(
            replica.stats["bootstraps"]
            for cloud in self.clouds
            for replica in cloud.platform.read_proxy.replicas().values()
        )
        stats = [cloud.platform.controller_stats() for cloud in self.clouds]
        for name in CONTROLLER_COUNTERS:
            values[name] = sum(shard[name] for shard in stats)
        return values

    def progress(self) -> tuple[int, int, int, int]:
        """Running totals a measurement differences around a round."""
        committed = sum(c.platform.controller_stats()["committed"] for c in self.clouds)
        return self.ops, committed, self.crossed, self.fresh_reads

    def expect_no_orphans(self) -> None:
        """Every VM owns exactly one disk image besides the templates: a
        commit that lost its storage-side half leaves one behind."""
        view = self.writer.platform.model_view()
        inventory = self.writer.inventory
        templates = len(inventory.templates) * len(inventory.storage_hosts)
        orphans = view.count("image") - templates - view.count("vm")
        self.expect(orphans == 0, f"{orphans} disk images without a VM")

    def final_checks(self) -> None:
        """Whole-run output checks after the timed phase."""
        self.expect_no_orphans()


# ----------------------------------------------------------------------
# Gateway workloads
# ----------------------------------------------------------------------


class GatewayWorkload(Workload):
    """Workloads entering through ``ApiGateway.handle`` as one of 8 tenants."""

    preload_vms = (512, 32)

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.tenants = TenantDirectory()
        large = TenantQuota(max_vms=1_000_000, max_total_mem_mb=None,
                            max_volumes=None, max_volume_gb=None)
        for index in range(TENANTS):
            self.tenants.register(f"tenant{index}", self.api_key(index), large)

    @staticmethod
    def api_key(tenant: int) -> str:
        return f"key-{tenant}"

    def preload_on(self, cloud: TCloud, host_indices: list[int]) -> None:
        inventory = cloud.inventory
        order = storage_interleaved(inventory, host_indices)
        requests = [
            spawn_request(
                f"tenant{i % TENANTS}--pre{i}",
                inventory.vm_hosts[order[i % len(order)]],
                inventory.storage_host_for(order[i % len(order)]),
            )
            for i in range(self.size(self.preload_vms))
        ]
        self.burst(cloud, requests, "pre-load")

    def request(self, gateway: ApiGateway, tenant: int, action: str, **params):
        with self.span():
            started = time.perf_counter()
            response = gateway.handle(self.api_key(tenant), action, **params)
            elapsed = time.perf_counter() - started
        self.expect(response.ok, f"{action}: {response.code} {response.error}")
        self.ops += 1
        return response, elapsed * 1000.0


class GwLifecycle(GatewayWorkload):
    """Run/Stop/Start/Terminate cycles through the gateway at a steady
    512-VM population: the scans in gateway, tcloud and datamodel are the work."""

    name = "gw_lifecycle"
    primary_op = "RunInstances -> acked COMMITTED"
    secondary_op = "Stop/Start/Terminate pooled"
    vm_hosts = (64, 16)
    storage_hosts = (16, 4)
    cycles_per_round = 5  # 20 requests

    def deployed(self) -> None:
        self.gateway = ApiGateway(self.writer, self.tenants)

    def preload(self) -> None:
        self.preload_on(self.writer, list(range(self.size(self.vm_hosts))))

    def plan(self, index: int):
        rng = self.rng(index)
        return [
            (rng.randrange(TENANTS), rng.choice(INSTANCE_TYPES), f"r{index}c{cycle}")
            for cycle in range(self.cycles_per_round)
        ]

    def round(self, index: int) -> None:
        for tenant, instance_type, name in self.plan(index):
            response, ms = self.request(
                self.gateway, tenant, "RunInstances", name=name, instance_type=instance_type
            )
            self.primary.append(ms)
            self.acked.extend(response.txids)
            for action in ("StopInstances", "StartInstances", "TerminateInstances"):
                response, ms = self.request(self.gateway, tenant, action, names=name)
                self.secondary.append(ms)
                self.acked.extend(response.txids)

    def probe_request(self):
        inventory = self.writer.inventory
        return spawn_request(
            f"probe{self.probes}", inventory.vm_hosts[0], inventory.storage_host_for(0)
        )

    def final_checks(self) -> None:
        super().final_checks()
        self.expect(
            self.writer.vm_count() == self.size(self.preload_vms),
            "population drifted from the pre-loaded size",
        )


class GwDescribeReplica(GatewayWorkload):
    """Reads beside writes: an observer platform serves DescribeInstances
    from read replicas while a writer platform commits 2PC bursts."""

    name = "gw_describe_replica"
    primary_op = "cached DescribeInstances"
    secondary_op = "first DescribeInstances after an acked commit"
    vm_hosts = (96, 48)
    storage_hosts = (24, 12)
    num_shards = 3
    cross_shard_policy = "2pc"
    burst_size = 8
    cross_per_burst = 2
    describes = 10

    def shard_layout(self):
        return [[0, 1], [2]]  # writer, observer

    def deployed(self) -> None:
        writer, observer = self.clouds
        self.gateway = ApiGateway(observer, self.tenants)
        inventory = writer.inventory
        router = writer.platform.shard_router
        owned = [
            index for index, host in enumerate(inventory.vm_hosts)
            if router.shard_of(host) in (0, 1)
        ]
        self.writer_hosts = owned
        #: storage host -> compute-host indices it serves, per writer shard.
        self.groups: dict[int, dict[str, list[int]]] = {0: {}, 1: {}}
        for index in owned:
            storage = inventory.storage_host_for(index)
            self.groups[router.shard_of(storage)].setdefault(storage, []).append(index)

    def preload(self) -> None:
        self.preload_on(self.writer, self.writer_hosts)

    def plan(self, index: int):
        """8 spawns on 8 distinct storage hosts (no lock conflicts), the
        first two pairing a VM host with the other writer shard's storage."""
        rng = self.rng(index)
        inventory = self.writer.inventory
        picks = {shard: rng.sample(sorted(groups), self.burst_size // 2)
                 for shard, groups in self.groups.items()}
        spawns = []
        for slot in range(self.burst_size):
            shard = slot % 2
            storage = picks[shard][slot // 2]
            vm_shard = 1 - shard if slot < self.cross_per_burst else shard
            vm_group = self.groups[vm_shard][picks[vm_shard][slot // 2]]
            vm_host = inventory.vm_hosts[rng.choice(vm_group)]
            tenant = rng.randrange(TENANTS)
            spawns.append((tenant, spawn_request(f"tenant{tenant}--r{index}v{slot}",
                                                 vm_host, storage)))
        readers = [spawns[0][0]] + [rng.randrange(TENANTS) for _ in range(self.describes - 1)]
        return spawns, readers

    def round(self, index: int) -> None:
        spawns, readers = self.plan(index)
        writer, observer = self.clouds
        requests = [request for _, request in spawns]
        txns = self.burst(writer, requests, "writer spawn burst")
        with self.unclocked():
            crossed = sum(len(txn.participants or ()) > 1 for txn in txns)
            self.expect(crossed == self.cross_per_burst, f"{crossed} cross-shard spawns")
            self.crossed += crossed
        replicas = observer.platform.read_proxy.replicas().values()
        # The first Describe is fresh (it pays the replicas' catch-up) ...
        ops_before = self.ensemble.op_count
        applied_before = sum(replica.stats["txns_applied"] for replica in replicas)
        response, ms = self.request(self.gateway, readers[0], "DescribeInstances")
        self.secondary.append(ms)
        self.fresh_reads += 1
        self.fresh_ops += self.ensemble.op_count - ops_before
        self.fresh_lag += sum(r.stats["txns_applied"] for r in replicas) - applied_before
        with self.unclocked():
            self.check_fresh(observer, readers[0], spawns, response)
        # ... the rest are served from the cached view.
        ops_before = self.ensemble.op_count
        for tenant in readers[1:]:
            self.primary.append(self.request(self.gateway, tenant, "DescribeInstances")[1])
        self.cached_reads += len(readers) - 1
        self.cached_ops += self.ensemble.op_count - ops_before
        self.burst(writer, [destroy_request(r) for r in requests], "writer destroy burst")

    def check_fresh(self, observer: TCloud, tenant: int, spawns, response) -> None:
        """Read-after-write: the first Describe shows every instance acked
        for that tenant, and the observer's view holds no VM without its
        disk image (no torn cross-shard commit)."""
        shown = {entry["instance"] for entry in response.data["instances"]}
        per_tenant = self.size(self.preload_vms) // TENANTS
        acked = {
            args["vm_name"].split("--", 1)[1]
            for owner, (_, args) in spawns if owner == tenant
        }
        self.expect(acked <= shown, f"fresh Describe misses {sorted(acked - shown)}")
        self.expect(len(shown) == per_tenant + len(acked),
                    f"fresh Describe shows {len(shown)} instances")
        view = observer.platform.model_view()
        torn = [
            args["vm_name"] for _, (_, args) in spawns
            if view.exists(f"{args['vm_host']}/{args['vm_name']}")
            != view.exists(f"{args['storage_host']}/{disk_image_name(args['vm_name'])}")
        ]
        self.expect(not torn, f"torn cross-shard commit visible: {torn}")

    def probe_request(self):
        """A cross-shard spawn: recovery must leave 2PC working."""
        inventory = self.writer.inventory
        storage = sorted(self.groups[1])[0]
        vm_host = inventory.vm_hosts[self.groups[0][sorted(self.groups[0])[0]][0]]
        return spawn_request(f"probe{self.probes}", vm_host, storage)

    def final_checks(self) -> None:
        super().final_checks()
        shown = self.clouds[1].vm_count()
        self.expect(shown == self.size(self.preload_vms), f"observer sees {shown} VMs at the end")


# ----------------------------------------------------------------------
# Controller burst workloads
# ----------------------------------------------------------------------


class CtlBurst(Workload):
    """``submit_many`` bursts of pre-bound requests, bypassing the gateway and
    tcloud scans: controller, persistence and coordination CPU are the work."""

    name = "ctl_burst"
    primary_op = "burst transaction submit -> terminal"
    secondary_op = "lone submit(wait=True) transaction"
    vm_hosts = (256, 32)
    storage_hosts = (64, 8)
    history = (8, 1)
    restarts = 15
    burst_size = (256, 32)
    warm_size = (256, 32)
    solo_pairs = (4, 2)

    def deployed(self) -> None:
        inventory = self.writer.inventory
        self.order = storage_interleaved(inventory, list(range(len(inventory.vm_hosts))))

    def warm_up(self) -> None:
        """One spawn burst and its destroy burst."""
        for requests in self.bursts(self.plan(-1)[0][: self.size(self.warm_size)]):
            self.burst(self.writer, requests, "warm-up")

    def bursts(self, spawns: list) -> list[list]:
        """The ``submit_many`` calls that create and remove ``spawns``."""
        return [spawns, [destroy_request(r) for r in spawns]]

    def pair(self, position: int) -> tuple[str, str]:
        inventory = self.writer.inventory
        index = self.order[position % len(self.order)]
        return inventory.vm_hosts[index], inventory.storage_host_for(index)

    def plan(self, index: int):
        rng = self.rng(index)
        offset = rng.randrange(len(self.order))
        spawns = [
            spawn_request(f"b{index}v{slot}", *self.pair(offset + slot),
                          mem_mb=rng.choice((256, 512)))
            for slot in range(self.size(self.burst_size))
        ]
        solos = [
            spawn_request(f"b{index}solo{slot}", *self.pair(rng.randrange(len(self.order))))
            for slot in range(self.size(self.solo_pairs))
        ]
        return spawns, solos

    def round(self, index: int) -> None:
        spawns, solos = self.plan(index)
        platform = self.writer.platform
        for number, requests in enumerate(self.bursts(spawns)):
            self.record_burst(self.burst(self.writer, requests, "burst"), spawning=number == 0)
        for spawn in solos:
            for request in (spawn, destroy_request(spawn)):
                with self.span():
                    txn = platform.submit(*request, wait=True, timeout=120.0)
                self.expect_committed([txn], "solo")
                self.acked.append(txn.txid)
                self.secondary.append(txn.latency() * 1000.0)
                self.ops += 1

    def record_burst(self, txns, spawning: bool) -> None:
        self.primary.extend(txn.latency() * 1000.0 for txn in txns)
        self.ops += len(txns)

    def probe_request(self):
        return spawn_request(f"probe{self.probes}", *self.pair(0))

    def final_checks(self) -> None:
        super().final_checks()
        self.expect(self.writer.vm_count() == 0, "burst VMs left behind")


class CtlBurstRtt(CtlBurst):
    """``ctl_burst`` with a coordination round-trip time: throughput follows
    the number of coordination operations per transaction, not CPU."""

    name = "ctl_burst_rtt"
    coordination_latency = 0.0005
    history = (1, 1)
    restarts = 3
    burst_size = (256, 16)
    warm_size = (32, 16)
    solo_pairs = (8, 2)


class Xshard2pc(CtlBurst):
    """Bursts over two local shards under 2PC, every 4th request cross-shard
    on a storage host a neighbour in the burst also locks."""

    name = "xshard_2pc"
    primary_op = "spawn-burst transaction submit -> terminal"
    secondary_op = "cross-shard spawn-burst transaction submit -> terminal"
    num_shards = 2
    cross_shard_policy = "2pc"
    history = (4, 1)
    restarts = 15
    cross_every = 4

    def plan(self, index: int):
        """One spawn in every ``cross_every`` keeps its VM host but takes the
        storage host of the next request owned by the other shard, so the
        pair contends for that storage host's lock inside the spawn burst.
        The chosen slot moves on by one each time the burst wraps around the
        storage hosts, so that no two cross-shard requests of a burst share
        a storage host (see :meth:`bursts`)."""
        spawns, _ = super().plan(index)
        router = self.writer.platform.shard_router
        storage_hosts = self.size(self.storage_hosts)
        planned = [args["storage_host"] for _, args in spawns]
        for group in range(0, len(spawns), self.cross_every):
            slot = group + group // storage_hosts
            args = spawns[slot][1]
            home = router.shard_of(args["vm_host"])
            args["storage_host"] = next(
                storage for step in range(1, len(spawns))
                if router.shard_of(storage := planned[(slot + step) % len(spawns)]) != home
            )
        return spawns, []

    def bursts(self, spawns: list) -> list[list]:
        """The spawn burst keeps the contention; every destroy burst names
        each storage host at most once (the cross-shard destroys, then the
        others in windows of one storage-host cycle each), so that no
        ``destroyVM`` is deferred on a lock conflict.  ``removeImage`` has no
        undo action, so today a deferred ``destroyVM`` retries against a
        model that already lost the image and logs no storage-side actions:
        cross-shard the participant then keeps the image, single-shard a
        restart that replays the log resurrects it (``expect_no_orphans``
        and the restart digest catch both), and a workload must not fail."""
        router = self.writer.platform.shard_router
        width = self.size(self.storage_hosts)
        crossing = [
            router.shard_of(args["vm_host"]) != router.shard_of(args["storage_host"])
            for _, args in spawns
        ]
        windows = [[]] + [[] for _ in range(0, len(spawns), width)]
        for slot, spawn in enumerate(spawns):
            window = 0 if crossing[slot] else 1 + slot // width
            windows[window].append(destroy_request(spawn))
        return [spawns, *windows]

    def record_burst(self, txns, spawning: bool) -> None:
        self.ops += len(txns)
        with self.unclocked():
            crossed = [txn for txn in txns if len(txn.participants or ()) > 1]
            self.crossed += len(crossed)
        if spawning:
            self.primary.extend(txn.latency() * 1000.0 for txn in txns)
            self.secondary.extend(txn.latency() * 1000.0 for txn in crossed)

    def probe_request(self):
        """A cross-shard spawn: recovery must leave 2PC working."""
        args = self.plan(0)[0][0][1]
        return spawn_request(f"probe{self.probes}", args["vm_host"], args["storage_host"])

    def final_checks(self) -> None:
        super().final_checks()
        self.expect(self.crossed * self.cross_every == self.ops,
                    f"{self.crossed} of {self.ops} transactions ran cross-shard")


WORKLOADS = {
    cls.name: cls
    for cls in (GwLifecycle, GwDescribeReplica, CtlBurst, CtlBurstRtt, Xshard2pc)
}
