"""Operator console for the TROPIC reproduction.

``tropic-demo`` (or ``python -m repro.cli``) builds an in-memory TCloud
deployment and runs self-contained demonstrations of the paper's
mechanisms from the command line:

* ``table1``       — print the spawnVM execution log (Table 1);
* ``lifecycle``    — spawn / migrate / constraint-abort / destroy walkthrough;
* ``replay-ec2``   — replay a scaled EC2 spawn trace and report Figure 4/5
  style metrics (controller busy fraction, latency percentiles);
* ``replay-hosting`` — replay the hosting-provider operation mix (§6.2);
* ``failover``     — kill the lead controller mid-workload and report the
  recovery time (§6.4);
* ``repair-drill`` — power-cycle a host out of band and repair it (§4);
* ``chaos``        — run seeded chaos scenarios (crashes + ensemble
  faults + retries) and check the end-to-end invariants;
* ``stats``        — run a short workload and print the write-path
  instrumentation: store I/O counters, checkpoint stats and resilience
  counters;
* ``inventory``    — print the fleet and per-host utilisation;
* ``2pc-gc``       — decision-record retention drill, including the
  administrative sweep for a permanently retired coordinator shard
  (``--retired-shard N``).

Every command prints its transactions' outcomes; nothing persists between
invocations (the coordination service and devices are simulated in
process), which makes the console safe to run anywhere.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.common.config import TropicConfig
from repro.core.txn import TransactionState
from repro.metrics.report import ascii_table, format_resilience
from repro.metrics.stats import percentile
from repro.tcloud.service import TCloud, build_tcloud
from repro.workloads.ec2 import EC2TraceParams, ec2_spawn_trace
from repro.workloads.hosting import HostingTraceParams, hosting_trace
from repro.workloads.loadgen import LoadGenerator


def _build_cloud(args: argparse.Namespace, threaded: bool = False,
                 logical_only: bool = False) -> TCloud:
    config = TropicConfig(
        num_controllers=3 if threaded else 1,
        num_workers=2,
        logical_only=logical_only,
        heartbeat_interval=0.05,
        session_timeout=0.5,
        queue_poll_interval=0.002,
        num_shards=getattr(args, "shards", 1),
        cross_shard_policy=getattr(args, "cross_shard", "2pc"),
    )
    return build_tcloud(
        num_vm_hosts=args.hosts,
        num_storage_hosts=max(1, args.hosts // 4),
        host_mem_mb=args.host_mem_mb,
        config=config,
        threaded=threaded,
        logical_only=logical_only,
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_table1(args: argparse.Namespace) -> int:
    """Print the execution log of one spawnVM transaction (Table 1)."""
    cloud = _build_cloud(args)
    with cloud.platform:
        txn = cloud.spawn_vm("vm1", image_template="template-small", mem_mb=1024)
        print(f"spawnVM transaction {txn.txid}: {txn.state.value}")
        print()
        print(txn.log.format_table())
    return 0


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Spawn, migrate, violate a constraint, and destroy — end to end."""
    cloud = _build_cloud(args)
    with cloud.platform:
        spawn = cloud.spawn_vm("web-1", mem_mb=1024)
        print(f"spawn:    {spawn.state.value}")
        migrate = cloud.migrate_vm("web-1")
        print(f"migrate:  {migrate.state.value} -> {cloud.find_vm('web-1').host}")
        doomed = cloud.spawn_vm("whale", mem_mb=args.host_mem_mb * 2,
                                vm_host=cloud.inventory.vm_hosts[0],
                                storage_host=cloud.inventory.storage_hosts[0])
        print(f"oversized spawn: {doomed.state.value} ({doomed.error})")
        destroy = cloud.destroy_vm("web-1")
        print(f"destroy:  {destroy.state.value}")
        print(f"VMs left: {cloud.vm_count()}")
        print(f"cross-layer divergence: "
              f"{len(cloud.platform.reconciler().detect().all_deltas())} node(s)")
    return 0


def cmd_replay_ec2(args: argparse.Namespace) -> int:
    """Replay a scaled EC2 spawn trace (Figures 3-5 style metrics)."""
    cloud = _build_cloud(args, threaded=True, logical_only=True)
    params = EC2TraceParams().scaled_to(args.window)
    trace = ec2_spawn_trace(params, mem_mb=512).scaled(args.multiplier)
    print(f"replaying {len(trace)} spawn requests "
          f"({args.multiplier}x EC2, {args.window}s window, "
          f"compression {args.compression}x)")
    with cloud.platform:
        generator = LoadGenerator(cloud, prebind_spawns=True)
        result = generator.replay_async(trace, compression=args.compression,
                                        utilization_bucket_s=max(args.window / 10, 1.0))
    rows = [
        ("submitted", result.submitted),
        ("committed", result.committed),
        ("aborted", result.aborted),
        ("throughput (txn/s)", f"{result.throughput:.1f}"),
        ("median latency (ms)", f"{percentile(result.latencies, 50) * 1000:.1f}"),
        ("p95 latency (ms)", f"{percentile(result.latencies, 95) * 1000:.1f}"),
        ("avg controller busy fraction",
         f"{sum(u for _, u in result.utilization) / max(len(result.utilization), 1):.2f}"),
    ]
    print(ascii_table(("metric", "value"), rows, title="EC2 replay"))
    return 0


def cmd_replay_hosting(args: argparse.Namespace) -> int:
    """Replay the hosting-provider operation mix (§6.2)."""
    cloud = _build_cloud(args)
    trace = hosting_trace(HostingTraceParams(duration_s=args.window,
                                             num_operations=args.operations))
    with cloud.platform:
        generator = LoadGenerator(cloud)
        result = generator.replay_sync(trace)
        stats = cloud.platform.controller_stats()
    mix = trace.stats().mix
    rows = [
        ("operation mix", ", ".join(f"{op}:{n}" for op, n in sorted(mix.items()))),
        ("submitted", result.submitted),
        ("committed", result.committed),
        ("aborted", result.aborted),
        ("deferred (lock conflicts)", stats.get("deferred", 0)),
        ("median latency (ms)", f"{percentile(result.latencies, 50) * 1000:.1f}"),
    ]
    print(ascii_table(("metric", "value"), rows, title="hosting-workload replay"))
    return 0


def cmd_failover(args: argparse.Namespace) -> int:
    """Kill the lead controller mid-workload and measure recovery (§6.4)."""
    cloud = _build_cloud(args, threaded=True)
    clock = cloud.platform.clock
    with cloud.platform:
        for index in range(args.operations):
            cloud.spawn_vm(f"pre-{index}", mem_mb=256)
        handles = [cloud.spawn_vm(f"inflight-{i}", mem_mb=256, wait=False)
                   for i in range(5)]
        killed_at = clock.now()
        killed = cloud.platform.kill_leader()
        print(f"killed lead controller: {killed}")
        outcomes = [h.wait(timeout=30.0) for h in handles]
        recovered_at = clock.now()
        lost = [t for t in outcomes if t.state is not TransactionState.COMMITTED]
        print(f"in-flight transactions committed after failover: "
              f"{len(outcomes) - len(lost)}/{len(outcomes)}")
        print(f"time from kill to all in-flight transactions finished: "
              f"{recovered_at - killed_at:.2f}s")
        print(f"new leader: {cloud.platform.leader().name}")
        print(format_resilience(cloud.platform.resilience_stats()))
    return 0 if not lost else 1


def cmd_repair_drill(args: argparse.Namespace) -> int:
    """Simulate an out-of-band host reboot and repair it (§4)."""
    cloud = _build_cloud(args)
    with cloud.platform:
        for index in range(3):
            cloud.spawn_vm(f"svc-{index}", vm_host=cloud.inventory.vm_hosts[0], mem_mb=256)
        device = cloud.inventory.registry.device_at(cloud.inventory.vm_hosts[0])
        device.power_cycle()
        diff = cloud.platform.reconciler().detect()
        print(f"divergence after out-of-band reboot: {len(diff.all_deltas())} node(s)")
        report = cloud.platform.repair(cloud.inventory.vm_hosts[0])
        print(f"repair actions executed: {[a for _, a, _ in report.actions_executed]}")
        print(f"repair clean: {report.clean}")
        print(f"layers back in sync: {cloud.platform.reconciler().detect().is_empty}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded chaos scenarios and check end-to-end invariants."""
    from repro.testing.chaos import run_soak

    seeds = list(range(args.seeds))
    reports = run_soak(seeds, num_ops=args.operations)
    for report in reports:
        print(report.summary())
    passed = sum(1 for r in reports if r.ok)
    print(f"chaos: {passed}/{len(reports)} scenarios passed "
          f"({sum(len(r.crashes) for r in reports)} crashes, "
          f"{sum(len(r.ensemble_faults) for r in reports)} ensemble faults, "
          f"{sum(r.client_retries for r in reports)} client retries)")
    return 0 if passed == len(reports) else 1


def cmd_twopc_gc(args: argparse.Namespace) -> int:
    """Demonstrate 2PC decision-record GC and the administrative sweep for
    a permanently decommissioned (retired) coordinator shard.

    Builds a sharded deployment, commits cross-shard transactions so the
    global decision log retains records keyed by coordinator shard
    (``/tropic/2pc/decisions/<shard>/<txid>``), then — with
    ``--retired-shard N`` — runs :meth:`TwoPCLog.retire_shard`: the retired
    shard's records are swept and its horizon is replaced by a retirement
    sentinel so the surviving coordinators' mark-and-sweep stops waiting
    for its checkpoints.
    """
    if args.shards < 2:
        args.shards = 2
    cloud = _build_cloud(args, logical_only=True)
    platform = cloud.platform
    with platform:
        twopc = platform.twopc
        # Pair each VM host with a storage host owned by another shard so
        # every spawn runs the full cross-shard two-phase protocol.
        router = platform.shard_router
        inventory = cloud.inventory
        spawned = 0
        for index, vm_host in enumerate(inventory.vm_hosts):
            partner = next(
                (s for s in inventory.storage_hosts
                 if router.shard_of(s) != router.shard_of(vm_host)),
                None,
            )
            if partner is None:
                continue
            txn = cloud.spawn_vm(
                f"gc-demo-{index}", vm_host=vm_host, storage_host=partner, mem_mb=256
            )
            if txn.state is TransactionState.COMMITTED:
                spawned += 1
            if spawned >= args.operations:
                break
        kv = twopc.kv
        def retained():
            return {
                child: len(kv.keys(f"{twopc.DECISION_PREFIX}/{child}"))
                for child in kv.keys(twopc.DECISION_PREFIX)
            }
        print(f"cross-shard transactions committed: {spawned}")
        rows = [(dir_, count) for dir_, count in sorted(retained().items())]
        print(ascii_table(("decision directory", "records"), rows,
                          title="retained decision records"))
        if args.retired_shard is None:
            print("\n(no --retired-shard given; records are garbage-collected "
                  "by their coordinators' quiesce-point checkpoints)")
            return 0
        result = twopc.retire_shard(args.retired_shard)
        print(f"\nretired shard {args.retired_shard}: "
              f"{result['records_removed']} record(s) swept, horizon replaced "
              f"by a retirement sentinel")
        rows = [(dir_, count) for dir_, count in sorted(retained().items())]
        print(ascii_table(("decision directory", "records"), rows,
                          title="retained decision records after sweep"))
        print(f"horizons now: {twopc.horizons()}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a short logical workload and print the write-path stats."""
    cloud = _build_cloud(args, logical_only=True)
    with cloud.platform:
        for index in range(args.operations):
            cloud.spawn_vm(f"stat-{index}", mem_mb=256)
        leader = cloud.platform.leader()
        rows = [
            (key, value)
            for key, value in sorted(leader.io_stats().items())
            if not isinstance(value, dict)
        ]
        print(ascii_table(
            ("counter", "value"), rows,
            title=f"store I/O ({args.operations} spawns)",
        ))
        print()
        checkpoint_rows = sorted(leader.store.checkpoint_stats.as_dict().items())
        print(ascii_table(("counter", "value"), checkpoint_rows, title="checkpoints"))
        print()
        print(format_resilience(cloud.platform.resilience_stats()))
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    """Print the fleet layout and per-host utilisation."""
    cloud = _build_cloud(args)
    with cloud.platform:
        for index in range(args.operations):
            cloud.spawn_vm(f"seed-{index}", mem_mb=512)
        rows = []
        for host, info in sorted(cloud.host_utilisation().items()):
            rows.append((host, info["running"], f"{info['mem_used_mb']}/{info['mem_mb']} MB"))
        print(ascii_table(("compute host", "running VMs", "memory"), rows,
                          title="fleet utilisation"))
        print(f"\nstorage hosts: {len(cloud.inventory.storage_hosts)}   "
              f"routers: {len(cloud.inventory.routers)}   "
              f"resources in the data model: {cloud.platform.resource_count()}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropic-demo",
        description="Self-contained demonstrations of the TROPIC reproduction.",
    )
    parser.add_argument("--hosts", type=int, default=4,
                        help="number of compute hosts in the simulated fleet")
    parser.add_argument("--host-mem-mb", type=int, default=8192,
                        help="memory capacity of each compute host (MB)")
    parser.add_argument("--shards", type=int, default=1,
                        help="number of controller shards the data-model tree "
                             "is partitioned over (1 = the paper's single "
                             "controller)")
    parser.add_argument("--cross-shard", choices=("2pc", "reject"),
                        default="2pc",
                        help="policy for transactions spanning shards: run "
                             "two-phase commit across the shard leaders (2pc, "
                             "the default) or reject them at submit time")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the spawnVM execution log (Table 1)")
    sub.add_parser("lifecycle", help="VM life-cycle walkthrough with a constraint abort")

    replay = sub.add_parser("replay-ec2", help="replay a scaled EC2 spawn trace")
    replay.add_argument("--window", type=int, default=60,
                        help="trace window in seconds (paper: 3600)")
    replay.add_argument("--multiplier", type=int, default=1, choices=range(1, 6),
                        help="workload multiplier (1x-5x, Figure 4/5)")
    replay.add_argument("--compression", type=float, default=6.0,
                        help="time-compression factor for the replay")

    hosting = sub.add_parser("replay-hosting", help="replay the hosting operation mix")
    hosting.add_argument("--window", type=int, default=120, help="trace window in seconds")
    hosting.add_argument("--operations", type=int, default=60,
                         help="number of operations to generate")

    failover = sub.add_parser("failover", help="leader-failover drill (§6.4)")
    failover.add_argument("--operations", type=int, default=10,
                          help="transactions committed before the kill")

    sub.add_parser("repair-drill", help="out-of-band change + repair drill (§4)")

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos scenarios: crashes + ensemble faults + "
             "tokened client retries, with invariant checks",
    )
    chaos.add_argument("--seeds", type=int, default=8,
                       help="number of seeded scenarios to run (seeds 0..N-1)")
    chaos.add_argument("--operations", type=int, default=10,
                       help="operations per scenario")

    stats = sub.add_parser(
        "stats",
        help="run a short workload and print write-path instrumentation: "
             "store I/O, checkpoint round-trips, resilience counters",
    )
    stats.add_argument("--operations", type=int, default=24,
                       help="VMs to spawn before reporting the counters")

    inventory = sub.add_parser("inventory", help="show fleet and utilisation")
    inventory.add_argument("--operations", type=int, default=6,
                           help="VMs to seed before reporting utilisation")

    twopc_gc = sub.add_parser(
        "2pc-gc",
        help="2PC decision-record retention drill, incl. the administrative "
             "sweep for a permanently decommissioned coordinator shard",
    )
    twopc_gc.add_argument("--retired-shard", type=int, default=None,
                          help="permanently decommissioned shard whose "
                               "decision records should be swept and whose "
                               "horizon should be retired")
    twopc_gc.add_argument("--operations", type=int, default=4,
                          help="cross-shard transactions to commit before "
                               "inspecting the decision log")

    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "lifecycle": cmd_lifecycle,
    "replay-ec2": cmd_replay_ec2,
    "replay-hosting": cmd_replay_hosting,
    "failover": cmd_failover,
    "repair-drill": cmd_repair_drill,
    "chaos": cmd_chaos,
    "stats": cmd_stats,
    "inventory": cmd_inventory,
    "2pc-gc": cmd_twopc_gc,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
