#!/usr/bin/env python3
"""Gateway-to-store benchmark of the TROPIC reproduction.

One run (the ``BENCHMARK.json`` contract; what the driver calls)::

    python3 bench/run.py --workload gw_lifecycle --seed 7 --seconds 15 --trace 0

builds the workload's deployment from source in this checkout, measures
for ``--seconds``, checks the outputs and prints one JSON object as the
last line of stdout.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ledger from a separately traced run.

Without ``--workload`` the same runs are orchestrated as a suite, each
(workload, rep) in its own child process, one at a time, reps interleaved
``A B C D E, A B C D E, ...``::

    python3 bench/run.py --seed 7              # 3 reps x 5 workloads, medians + min-max
    python3 bench/run.py --seed 7 --trace      # ... plus one traced run each: the ledger
    python3 bench/run.py --sets 2              # agreement of two sets -> out/agreement.json
    python3 bench/run.py --selfcheck           # exact-repeat counts, < 30 s

See ``bench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host_platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from stats import (
    MIN_SAMPLES_BEYOND, REFERENCE_SPIN_S, Interval, aggregate, min_samples, percentile, worsening,
)
from tracing import SCANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
#: Untraced reps of every workload in one suite set.
REPS = 3
#: Per-layer counts that must repeat exactly for equal seeds (--selfcheck).
EXACT_COUNTS = (
    "coordination.ops_per_txn", "coordination.write_rt_per_txn",
    "persistence.saves_per_txn", "persistence.loads_per_txn",
    "controller.steps_per_txn", "twopc.records_per_xtxn",
    "coordination.znodes_per_txn", "recovery.docs_loaded",
)


def bootstrap() -> dict:
    """Make ``repro`` importable from this checkout's source (the bench
    modules sit next to this script, which Python already searches);
    return the benchmark specification."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {source}/repro is missing")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def per(amount: float, base: float) -> float:
    return amount / base if base else 0.0


def git_rev() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


class Slice:
    """The timed rounds of one run: wall, samples and counter deltas.

    In a traced run every other round is recorded (a ``timed`` root span
    each) and the rest run with recording off, so the two classes see the
    same history growth and host window; their throughput ratio is the
    tracing overhead."""

    def __init__(self, workload, first_round: int, seconds: float, rounds: int | None,
                 tracer=None):
        wl = workload
        wl.reset_samples()
        before = wl.counters()
        gen2_before = gc.get_stats()[2]["collections"]
        cpu_before = time.process_time()
        rss_before = rss_mb()
        #: Seconds at reference speed, then (ops, committed, crossed,
        #: fresh_reads), summed over the plain and over the recorded rounds.
        self.plain = [0.0, 0, 0, 0, 0]
        self.traced = [0.0, 0, 0, 0, 0]
        self.raw_wall_s = 0.0
        started = time.perf_counter()
        index = first_round
        last_spin = None
        progress = wl.progress()
        while True:
            record = tracer is not None and (index - first_round) % 2 == 1
            mark = (wl.unclocked_s, len(wl.primary), len(wl.secondary))
            interval = Interval(last_spin)
            with tracer.span("timed") if record else nullcontext():
                wl.round(index)
            interval.stop(wl.unclocked_s - mark[0])
            last_spin = interval.spin_after
            self.raw_wall_s += interval.wall_s
            scale = interval.reference_s / interval.wall_s
            for samples, first in ((wl.primary, mark[1]), (wl.secondary, mark[2])):
                samples[first:] = [sample * scale for sample in samples[first:]]
            tally = self.traced if record else self.plain
            tally[0] += interval.reference_s
            was, progress = progress, wl.progress()
            for slot, (old, new) in enumerate(zip(was, progress), start=1):
                tally[slot] += new - old
            index += 1
            done = index - first_round
            if rounds is not None:
                if done >= rounds:
                    break
            elif (time.perf_counter() - started >= seconds
                  and min(len(wl.primary), len(wl.secondary)) >= min_samples(50)
                  and (tracer is None or done % 2 == 0)):
                break  # time is up and both medians have their samples
        self.gross_s = time.perf_counter() - started
        self.rss_growth_mb = rss_mb() - rss_before
        self.cpu_s = time.process_time() - cpu_before
        self.gen2 = gc.get_stats()[2]["collections"] - gen2_before
        after = wl.counters()
        self.delta = {key: after[key] - before[key] for key in after}
        self.checks_s = wl.unclocked_s
        self.reference_s = self.plain[0] + self.traced[0]
        #: Seconds at reference speed per measured second (< 1: slow host).
        self.host_speed = self.reference_s / self.raw_wall_s
        self.rounds = index - first_round
        self.ops = wl.ops
        self.primary = wl.primary
        self.secondary = wl.secondary
        self.ops_per_s = self.ops / self.reference_s


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, rounds: int | None = None):
    """Run one workload once; returns ``(result, envelope)`` where
    ``result`` is the contract's last-line object."""
    from workloads import WORKLOADS

    started_at = time.time()
    run_started = time.perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[name](seed, quick=quick)
    if tracer is not None:
        wl.span = tracer.op

    # Set-up, several times: the median is the reported setup_s.
    setup_reps = 1 if quick else SETUP_REPS
    setups = []
    for rep in range(setup_reps):
        if rep:
            wl.teardown()
            gc.collect()
        interval = Interval()
        wl.build()
        setups.append(interval.stop())
    digest = wl.sequence_digest()

    # Fixed history, then crash-restarts on it (same count on every run,
    # so recovery time and peak RSS are comparable between commits).
    next_round = 0
    for _ in range(wl.size(wl.history)):
        wl.round(next_round)
        next_round += 1
    restarts = []
    with tracer.span("recovery") if tracer else nullcontext():
        for _ in range(1 if quick else wl.restarts):
            gc.collect()  # every restart meets the collector in the same state
            restarts.append(wl.restart())
    rss_fixed = rss_mb()

    # Timed rounds.  The pre-existing heap is frozen so a generation-2
    # collection does not walk the whole deployment mid-measurement; the
    # collector stays on for what the rounds themselves allocate.
    gc.collect()
    gc.freeze()
    timed = Slice(wl, next_round, seconds, rounds, tracer)
    gc.unfreeze()
    wl.final_checks()

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(s.reference_s for s in setups),
            "ops_per_s": timed.ops_per_s,
            "primary_p50_ms": percentile(timed.primary, 50),
            "secondary_p50_ms": percentile(timed.secondary, 50),
            "recovery_s": statistics.median(r["recovery_s"] for r in restarts),
            "peak_rss_mb": rss_fixed,
        }
        declared = spec["end_to_end"]
    else:
        metrics = layer_metrics(wl, tracer, timed, restarts)
        declared = spec["per_layer"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            f"bench: metrics out of step with BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": units[key]} for key in units
        },
    }
    envelope = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "quick": quick,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "started_at": started_at,
        "run_wall_s": time.perf_counter() - run_started,
        "runtime": "inline (threaded=False), closed loop, 1 client",
        "config": asdict(wl.config),
        "sequence_digest": digest,
        "primary_op": wl.primary_op,
        "secondary_op": wl.secondary_op,
        "setup_reps": [{"wall_s": s.wall_s, "reference_s": s.reference_s} for s in setups],
        "restarts": restarts,
        "reference_spin_s": REFERENCE_SPIN_S,
        "timed": {
            "rounds": timed.rounds, "ops": timed.ops, "wall_s": timed.raw_wall_s,
            "reference_s": timed.reference_s,
            "checks_s": timed.checks_s, "cpu_s": timed.cpu_s,
            "rss_growth_mb": timed.rss_growth_mb, "gc_gen2_collections": timed.gen2,
            "primary_samples": len(timed.primary),
            "secondary_samples": len(timed.secondary),
            "counters": timed.delta,
        },
        "errors": wl.errors,
        "result": result,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{name}.json", {k: envelope[k] for k in
                                                 ("workload", "seed", "git_rev", "quick")})
        envelope["ledger"] = tracer.ledger("timed").shares()
    return result, envelope


def layer_metrics(wl, tracer, timed, restarts) -> dict[str, float]:
    """The per-layer ledger of the traced slice (see README: layers)."""
    ledger = tracer.ledger("timed")
    crash = tracer.ledger("recovery")
    # Spans cover the recorded rounds only; counters cover every timed round.
    traced_s, ops, txns, xtxns, fresh = timed.traced
    reqs = ledger.n("gateway.ApiGateway.handle")
    views = ledger.n("platform.TropicPlatform.fleet_view")
    delta = timed.delta
    all_txns = delta["committed"]
    all_reqs = timed.ops if reqs else 0
    # Span times are raw; report them at reference speed like the end-to-end
    # metrics, so that the ledger's milliseconds add up to theirs.
    ms = 1000.0 * timed.host_speed
    layer_ms = {layer: ms * seconds for layer, seconds in ledger.self_by_layer.items()}
    scans = [f"tcloud.TCloud.{name}" for name in SCANS]
    picks = ("tcloud.PlacementEngine.pick_vm_host", "tcloud.PlacementEngine.pick_storage_host")
    find, clone = "datamodel.DataModel.find", "datamodel.DataModel.clone"
    store = "persistence.TropicStore."
    checkpoint = store + "save_checkpoint_incremental"
    sleep = "coordination.RealClock.sleep"
    step = "controller.Controller.step"
    # Highest percentile with ten samples beyond it (a short run has none).
    tail_rank = max(len(timed.primary) - MIN_SAMPLES_BEYOND, 1)
    metrics = {
        "gateway.self_ms_per_req": per(layer_ms["gateway"], reqs),
        "gateway.scan_calls_per_req": per(ledger.n(*scans), reqs),
        "tcloud.scan_ms_per_req": per(ms * ledger.scan_outer_s, reqs),
        "tcloud.records_built_per_req": per(ledger.count(*scans[:2]), reqs),
        "tcloud.placement_ms_per_run": per(
            ms * ledger.total_s(*picks), ledger.n("tcloud.TCloud.spawn_vms")),
        "datamodel.find_calls_per_req": per(ledger.n(find), reqs),
        "datamodel.find_ms_per_req": per(ms * ledger.total_s(find), reqs),
        "datamodel.clone_ms_per_call": per(ms * ledger.total_s(clone), ledger.n(clone)),
        "platform.submit_ms_per_txn": per(ms * ledger.self_s(
            "platform.TropicPlatform.submit", "platform.TropicPlatform.submit_many"), txns),
        "platform.wait_ms_per_txn": per(ms * ledger.self_s(
            "platform.TropicPlatform.wait_for", "platform.TropicPlatform.run_until_idle"), txns),
        "platform.view_ms_per_call": per(ms * ledger.self_s(
            "platform.TropicPlatform.model_view", "platform.TropicPlatform.fleet_view"), views),
        "controller.steps_per_txn": per(ledger.count(step), txns),
        "controller.txns_per_step": per(txns, ledger.count(step)),
        "controller.self_ms_per_txn": per(layer_ms["controller"], txns),
        "controller.deferred_per_txn": per(delta["deferred"], all_txns),
        "controller.aborted": delta["aborted_logical"] + delta["aborted_physical"]
        + delta["failed"],
        "persistence.saves_per_txn": per(ledger.n(store + "save_transaction"), txns),
        "persistence.loads_per_txn": per(ledger.n(store + "load_transaction"), txns),
        "persistence.self_ms_per_txn": per(layer_ms["persistence"], txns),
        "persistence.checkpoints_per_ktxn": per(1000.0 * delta["checkpoints"], all_txns),
        "persistence.checkpoint_ms_each": per(
            ms * ledger.total_s(checkpoint), ledger.n(checkpoint)),
        "coordination.ops_per_txn": per(delta["op_count"], all_txns),
        "coordination.ops_per_req": per(delta["op_count"], all_reqs),
        "coordination.write_rt_per_txn": per(delta["write_round_trips"], all_txns),
        "coordination.read_rt_per_txn": per(delta["read_round_trips"], all_txns),
        "coordination.sub_ops_per_multi": per(delta["multi_sub_ops"], delta["multi_count"]),
        "coordination.bytes_per_txn": per(delta["bytes_written"], all_txns),
        "coordination.self_ms_per_txn": per(layer_ms["coordination"], txns),
        "coordination.rtt_charged_s": ledger.total_s(sleep),
        "coordination.rtt_share": per(ledger.total_s(sleep), ledger.wall),
        "coordination.znodes_per_txn": per(delta["znodes"], all_txns),
        "worker.self_ms_per_txn": per(layer_ms["worker"], txns),
        "twopc.records_per_xtxn": per(ledger.n("twopc.TwoPCLog.decide"), xtxns),
        "twopc.self_ms_per_xtxn": per(layer_ms["twopc"], xtxns),
        "twopc.wounds_per_kxtxn": per(1000.0 * delta["cross_shard_wounded"], wl.crossed),
        "twopc.waits_per_kxtxn": per(1000.0 * delta["cross_shard_waits"], wl.crossed),
        "replica.refresh_ms_per_fresh_read": per(
            ms * ledger.total_s("replica.ReadReplica.refresh"), fresh),
        "replica.fence_ms_per_view": per(
            ms * ledger.total_s("replica.platform.fence_replica_sources"), views),
        "replica.ops_per_fresh_read": per(wl.fresh_ops, wl.fresh_reads),
        "replica.ops_per_cached_read": per(wl.cached_ops, wl.cached_reads),
        "replica.lag_txns_at_fresh_read": per(wl.fresh_lag, wl.fresh_reads),
        "replica.rebootstraps_per_kread": per(1000.0 * delta["bootstraps"], wl.fresh_reads),
        "recovery.recover_state_s": per(
            crash.total_s("controller.controller.recover_state"), len(restarts)),
        "recovery.docs_loaded": per(
            crash.count(store + "load_all_transactions"), len(restarts)),
        "recovery.ops": per(sum(r["ops"] for r in restarts), len(restarts)),
        "recovery.first_commit_ms": 1000.0 * statistics.median(
            r["first_commit_s"] for r in restarts),
        "process.cpu_share": per(timed.cpu_s, timed.gross_s),
        "process.gc_gen2_collections": timed.gen2,
        "harness.self_ms_per_op": per(layer_ms["harness"], ops),
        "harness.checks_share": per(timed.checks_s, timed.gross_s),
        "harness.host_speed": timed.host_speed,
        "harness.trace_overhead_ratio": per(
            per(timed.plain[1], timed.plain[0]), per(ops, traced_s)),
        # The demoted end-to-end tail: too unsteady on the gateway workloads to
        # gate on (0 when a short run has fewer than 200 samples).
        "harness.primary_p95_ms": percentile(timed.primary, 95)
        if len(timed.primary) >= min_samples(95) else 0.0,
        "harness.primary_tail_ms": sorted(timed.primary)[tail_rank - 1],
        "harness.primary_tail_pct": 100.0 * tail_rank / len(timed.primary),
    }
    for layer, share in ledger.shares().items():
        metrics[f"share.{layer}"] = share
    return metrics


# ----------------------------------------------------------------------
# Suite: child processes, interleaved reps, agreement, self-check
# ----------------------------------------------------------------------


def child(name: str, seed: int, seconds: float, trace: bool, extra: list[str]) -> dict:
    """Run one (workload, rep) in its own process; return its envelope."""
    OUT.mkdir(exist_ok=True)
    envelope_path = OUT / f"run-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--envelope", str(envelope_path), *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: {name} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    with open(envelope_path, encoding="utf-8") as handle:
        envelope = json.load(handle)
    envelope_path.unlink()
    return envelope


def values_of(envelope: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in envelope["result"]["metrics"].items()}


def run_set(spec: dict, seed: int, seconds: float, label: str) -> dict:
    """``REPS`` interleaved untraced reps of every workload."""
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    started = time.perf_counter()
    for rep in range(REPS):
        for name in names:
            envelope = child(name, seed, seconds, False, [])
            runs[name].append(envelope)
            print(f"  [{label} rep {rep + 1}/{REPS}] {name}: "
                  f"{envelope['run_wall_s']:.1f}s, failed {envelope['result']['failed']}"
                  f"/{envelope['result']['attempted']}", flush=True)
    summary = {}
    for name in names:
        per_rep = [values_of(envelope) for envelope in runs[name]]
        summary[name] = {
            metric: {**aggregate([rep[metric] for rep in per_rep]),
                     "per_rep": [rep[metric] for rep in per_rep]}
            for metric in per_rep[0]
        }
    return {"label": label, "seed": seed, "set_wall_s": time.perf_counter() - started,
            "summary": summary, "runs": runs}


def print_set(spec: dict, result: dict) -> None:
    units = {m["name"]: m for m in spec["end_to_end"]}
    for name, metrics in result["summary"].items():
        first = result["runs"][name][0]
        print(f"\n{name}  (primary: {first['primary_op']}; secondary: {first['secondary_op']}; "
              f"samples/rep {first['timed']['primary_samples']}/"
              f"{first['timed']['secondary_samples']}; failed "
              f"{sum(r['result']['failed'] for r in result['runs'][name])})")
        for metric, agg in metrics.items():
            print(f"  {metric:<18} {units[metric]['unit']:<6} median {agg['median']:>10.4f}   "
                  f"min-max {agg['min']:.4f} - {agg['max']:.4f}   ({agg['reps']} reps, "
                  f"{units[metric]['better']} is better, bound {units[metric]['bound']:.0%})")


def print_ledger(envelope: dict) -> None:
    metrics = values_of(envelope)
    print(f"\n{envelope['workload']} ledger (traced, {envelope['timed']['wall_s']:.1f}s; "
          f"trace overhead x{metrics['harness.trace_overhead_ratio']:.3f}; "
          f"layer self times sum to {sum(envelope['ledger'].values()):.4f} of the wall)")
    shares = sorted(envelope["ledger"].items(), key=lambda item: -item[1])
    print("  " + "  ".join(f"{layer} {share:.1%}" for layer, share in shares if share >= 0.0005))
    for key, value in metrics.items():
        if not key.startswith("share."):
            print(f"  {key:<36} {value:>12.4f} {envelope['result']['metrics'][key]['unit']}")


def save(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    return path


def suite(spec: dict, args) -> int:
    seconds = args.seconds or spec["run_seconds"]
    sets = [run_set(spec, args.seed, seconds, f"set {n + 1}")
            for n in range(args.sets)]
    for result in sets:
        print(f"\n== {result['label']}: seed {result['seed']}, "
              f"{result['set_wall_s']:.0f}s wall ==")
        print_set(spec, result)
    payload = {"sets": sets}
    status = 0
    if args.sets > 1:
        rows = []
        print("\n== agreement of the sets (second median against the first) ==")
        for entry in spec["end_to_end"]:
            for name in sets[0]["summary"]:
                medians = [s["summary"][name][entry["name"]]["median"] for s in sets]
                worse = max(worsening(medians[0], m, entry["better"]) for m in medians[1:])
                passed = worse <= entry["bound"]
                status |= not passed
                rows.append({"workload": name, "metric": entry["name"], "medians": medians,
                             "worsening": worse, "bound": entry["bound"], "pass": passed})
                print(f"  {name:<20} {entry['name']:<18} "
                      + "  ".join(f"{m:>10.4f}" for m in medians)
                      + f"   {worse:+7.2%} of {entry['bound']:.0%}  {'ok' if passed else 'FAIL'}")
        payload["agreement"] = rows
        print(f"saved {save('agreement.json', payload)}")
    if args.trace:
        payload["traced"] = {}
        for workload in spec["workloads"]:
            envelope = child(workload["name"], args.seed, seconds, True, [])
            payload["traced"][workload["name"]] = envelope
            print_ledger(envelope)
    print(f"saved {save('suite.json', payload)}")
    failed = sum(run["result"]["failed"] for s in sets for runs in s["runs"].values()
                 for run in runs)
    return status or int(failed > 0)


def selfcheck(spec: dict) -> int:
    """Every workload at 1/20 size: twice with one seed, once with another."""
    started = time.perf_counter()
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        quick = ["--quick", "--rounds", "2"]
        first, again, other = (child(name, seed, 1, True, quick) for seed in (1, 1, 2))
        a, b = values_of(first), values_of(again)
        for key in EXACT_COUNTS:
            if a[key] != b[key]:
                problems.append(f"{name}: {key} differs for equal seeds: {a[key]} vs {b[key]}")
        if first["sequence_digest"] != again["sequence_digest"]:
            problems.append(f"{name}: request sequence differs for equal seeds")
        if first["sequence_digest"] == other["sequence_digest"]:
            problems.append(f"{name}: request sequence is the same for another seed")
        for envelope in (first, again, other):
            if not envelope["result"]["correct"]:
                problems.append(f"{name}: output checks failed: {envelope['errors']}")
        print(f"  {name}: " + ", ".join(f"{key}={a[key]:g}" for key in EXACT_COUNTS))
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFCHECK FAIL {problem}")
    print(f"selfcheck {'FAILED' if problems else 'ok'} in {elapsed:.1f}s")
    return int(bool(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        help="contract mode: 1 = traced run printing per-layer metrics; "
                             "suite: add one traced run per workload")
    parser.add_argument("--sets", type=int, default=1, help="suite: sets to compare")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true", help="1/20-size deployment")
    parser.add_argument("--rounds", type=int, default=None,
                        help="fixed timed rounds instead of --seconds (exact-repeat counts)")
    parser.add_argument("--envelope", help="also write the run's full envelope here")
    args = parser.parse_args(argv)
    spec = bootstrap()
    if args.selfcheck:
        return selfcheck(spec)
    if not args.workload:
        return suite(spec, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    result, envelope = run_workload(spec, args.workload, args.seed, seconds,
                                    bool(args.trace), args.quick, args.rounds)
    if args.envelope:
        with open(args.envelope, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
    for key, metric in result["metrics"].items():
        print(f"{key:<36} {metric['value']:>14.6f} {metric['unit']}")
    for error in envelope["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
