"""Write-path micro-benchmarks (PR 1 + PR 2 performance subsystems).

Covers the write-path optimisations in isolation:

* structure-aware ``deep_copy`` vs the legacy JSON round-trip (guarded: a
  regression that reintroduces serialisation-based copying fails the run),
* ``WriteBatch`` group commit vs one round-trip per put,
* ``ResourcePath.parse`` interning,
* submit-side batching (``submit_many``: two coordination round-trips per
  shard per batch, PR 2),
* the commit path's read diet (a single-shard burst costs at most 5 read
  round-trips per transaction; workers never read a transaction document
  back, because execute messages carry the log),
* read replicas (PR 4): strictly read-only against the store — a tailing
  replica adds zero write round-trips to the commit path — and free while
  idle (watch-parked, zero coordination operations per read), and
* copy-on-write snapshots (PR 5): ``DataModel.clone()`` is an O(1) fork
  that creates no node at any model size, with full isolation from later
  writes on either side.

Runs under pytest (``make bench-micro``) or standalone to emit JSON:
``python benchmarks/bench_writepath.py --json out.json``.
"""

import gc
import json
import os
import sys
import time
from unittest import mock

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.common.jsonutil import deep_copy  # noqa: E402
from repro.coordination.client import CoordinationClient  # noqa: E402
from repro.coordination.ensemble import CoordinationEnsemble  # noqa: E402
from repro.coordination.kvstore import KVStore  # noqa: E402
from repro.core.persistence import TropicStore  # noqa: E402
from repro.core.txn import TransactionState  # noqa: E402
from repro.datamodel.node import Node  # noqa: E402
from repro.datamodel.path import ResourcePath  # noqa: E402

#: A representative attribute document (nested, mixed types).
_DOC = {
    "name": "vm17",
    "state": "running",
    "mem_mb": 2048,
    "disks": [{"id": f"d{i}", "size_gb": 16 * (i + 1)} for i in range(4)],
    "tags": {"tier": "web", "owner": "tenant-42", "numbers": list(range(20))},
}


def _legacy_deep_copy(value):
    return json.loads(json.dumps(value))


def _time(fn, iterations):
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return time.perf_counter() - start


def _fresh_store():
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=600.0)
    store = TropicStore(KVStore(CoordinationClient(ensemble)))
    return ensemble, store


def _live_nodes() -> int:
    """Data-model nodes currently alive (collected garbage excluded)."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Node))


# ----------------------------------------------------------------------
# Micro-benchmarks (each returns a result dict; pytest wrappers assert the
# guard conditions, the standalone runner collects the dicts)
# ----------------------------------------------------------------------

def run_deep_copy(iterations: int = 2000) -> dict:
    fast = _time(lambda: deep_copy(_DOC), iterations)
    legacy = _time(lambda: _legacy_deep_copy(_DOC), iterations)
    expected = _legacy_deep_copy(_DOC)
    # The JSON codec raises while patched: a copy that serialises fails.
    refuse = mock.Mock(side_effect=AssertionError("deep_copy serialised"))
    try:
        with mock.patch("json.dumps", refuse), mock.patch("json.loads", refuse):
            copy = deep_copy(_DOC)
        serialises = False
    except AssertionError:
        copy, serialises = None, True
    return {
        "iterations": iterations,
        "fast_s": round(fast, 5),
        "legacy_json_roundtrip_s": round(legacy, 5),
        "speedup": round(legacy / fast, 2) if fast else float("inf"),
        "matches_json_roundtrip": copy == expected,
        "enters_json_codec": serialises,
    }


def run_group_commit(puts: int = 200) -> dict:
    ensemble, store = _fresh_store()
    kv = store.kv

    before = ensemble.write_round_trips
    for i in range(puts):
        kv.put(f"unbatched/key-{i}", {"value": i})
    unbatched_rts = ensemble.write_round_trips - before

    before = ensemble.write_round_trips
    with kv.batch():
        for i in range(puts):
            kv.put(f"batched/key-{i}", {"value": i})
    batched_rts = ensemble.write_round_trips - before

    assert kv.get("batched/key-0") == {"value": 0}
    assert kv.get(f"batched/key-{puts - 1}") == {"value": puts - 1}
    return {
        "puts": puts,
        "unbatched_write_round_trips": unbatched_rts,
        "batched_write_round_trips": batched_rts,
        "round_trip_reduction": round(unbatched_rts / max(batched_rts, 1), 1),
    }


def run_submit_batching(txns: int = 120) -> dict:
    """Round-trips to submit a batch through ``submit_many`` vs per-call
    ``submit``: the batch costs one store group commit plus one queue group
    write regardless of size."""
    from repro.common.config import TropicConfig
    from repro.tcloud.service import build_tcloud

    def requests(cloud, tag):
        return [
            (
                "spawnVM",
                {
                    "vm_name": f"{tag}-{i}",
                    "image_template": "template-small",
                    "storage_host": cloud.inventory.storage_host_for(i % 20),
                    "vm_host": cloud.inventory.vm_hosts[i % 20],
                    "mem_mb": 256,
                },
            )
            for i in range(txns)
        ]

    config = TropicConfig(logical_only=True, checkpoint_every=100_000)
    cloud = build_tcloud(num_vm_hosts=20, num_storage_hosts=5, host_mem_mb=1 << 20,
                         config=config, logical_only=True)
    with cloud.platform as platform:
        before = platform.ensemble.write_round_trips
        unbatched = [platform.submit(p, a, wait=False) for p, a in requests(cloud, "u")]
        unbatched_rts = platform.ensemble.write_round_trips - before

        before = platform.ensemble.write_round_trips
        batched = platform.submit_many(requests(cloud, "b"), wait=False)
        batched_rts = platform.ensemble.write_round_trips - before

        platform.run_until_idle()
        states = {h.wait(timeout=60.0).state.value for h in unbatched + batched}
    return {
        "txns": txns,
        "unbatched_submit_round_trips": unbatched_rts,
        "batched_submit_round_trips": batched_rts,
        "round_trip_reduction": round(unbatched_rts / max(batched_rts, 1), 1),
        "all_committed": states == {"committed"},
    }


def run_commit_path_reads(txns: int = 64) -> dict:
    """Read round-trips of one single-shard ``submit_many`` burst, and the
    transaction-document (``txns/``) reads issued inside worker steps.
    Execute messages carry the execution log, so a worker has no reason
    to read a document back."""
    from repro.common.config import TropicConfig
    from repro.tcloud.service import build_tcloud

    # One compute and one storage host per request: no lock conflicts, so
    # the burst dispatches in one step and measures per-transaction reads
    # rather than conflict retries.
    config = TropicConfig(logical_only=True)
    cloud = build_tcloud(num_vm_hosts=txns, num_storage_hosts=txns, host_mem_mb=1 << 20,
                         config=config, logical_only=True)
    with cloud.platform as platform:
        ensemble = platform.ensemble
        in_worker = [False]
        worker_txn_reads = []
        ensemble_get = ensemble.get

        def get(session_id, path, watcher=None):
            if in_worker[0] and "/txns/" in path:
                worker_txn_reads.append(path)
            return ensemble_get(session_id, path, watcher)

        def traced_step(step):
            def wrapper():
                in_worker[0] = True
                try:
                    return step()
                finally:
                    in_worker[0] = False
            return wrapper

        ensemble.get = get
        for worker in platform.workers:
            worker.step = traced_step(worker.step)
        requests = [
            ("spawnVM", {
                "vm_name": f"rd-{i}", "image_template": "template-small",
                "storage_host": cloud.inventory.storage_host_for(i),
                "vm_host": cloud.inventory.vm_hosts[i], "mem_mb": 256,
            })
            for i in range(txns)
        ]
        reads_before = ensemble.read_round_trips
        handles = platform.submit_many(requests, wait=False)
        platform.run_until_idle()
        reads = ensemble.read_round_trips - reads_before
        committed = sum(
            handle.wait(timeout=60.0).state is TransactionState.COMMITTED
            for handle in handles
        )
    return {
        "txns": txns,
        "committed": committed,
        "read_round_trips_per_txn": round(reads / txns, 3),
        "worker_txn_document_reads": len(worker_txn_reads),
    }


def run_path_interning(iterations: int = 5000) -> dict:
    paths = [f"/vmRoot/host{i % 40}/vm{i % 7}" for i in range(iterations)]
    start = time.perf_counter()
    parsed = [ResourcePath.parse(p) for p in paths]
    elapsed = time.perf_counter() - start
    interned = ResourcePath.parse("/vmRoot/host0/vm0") is ResourcePath.parse(
        "/vmRoot/host0/vm0"
    )
    return {
        "iterations": iterations,
        "elapsed_s": round(elapsed, 5),
        "interned_identity": interned,
        "distinct_objects": len({id(p) for p in parsed}),
    }


def run_replica_read_cost(txns: int = 40) -> dict:
    """Write round-trips of a spawn workload with a replica tailing the
    shard vs the replica's own coordination footprint: tailing must be
    pure reads (zero writes) and idle reads must be free entirely."""
    from repro.common.config import TropicConfig
    from repro.core.platform import shard_store_prefix
    from repro.core.replica import ReadReplica
    from repro.tcloud.service import build_tcloud

    config = TropicConfig(logical_only=True, checkpoint_every=1_000_000)
    cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, host_mem_mb=65536,
                         config=config, logical_only=True)
    with cloud.platform:
        ensemble = cloud.platform.ensemble
        replica = ReadReplica(
            TropicStore(KVStore(cloud.platform.client, shard_store_prefix(0, 1))),
            cloud.platform.schema, cloud.platform.procedures,
        )
        replica.model()  # bootstrap + arm watches
        writes_before = ensemble.write_round_trips
        requests = [
            ("spawnVM", {
                "vm_name": f"rb-{i}", "image_template": "template-small",
                "storage_host": cloud.inventory.storage_host_for(i % 8),
                "vm_host": cloud.inventory.vm_hosts[i % 8], "mem_mb": 256,
            })
            for i in range(txns)
        ]
        handles = cloud.platform.submit_many(requests, wait=False)
        cloud.platform.run_until_idle()
        committed = sum(
            handle.wait(timeout=60.0).state is TransactionState.COMMITTED
            for handle in handles
        )
        workload_writes = ensemble.write_round_trips - writes_before
        # The replica catches up on the whole workload: reads only.
        writes_before = ensemble.write_round_trips
        replica.refresh()
        replica_writes = ensemble.write_round_trips - writes_before
        caught_up = replica.applied_txn == cloud.platform.store.applied_seq()
        ops_before = ensemble.op_count
        for _ in range(100):
            replica.model()
        idle_ops = ensemble.op_count - ops_before
    return {
        "txns": txns,
        "committed": committed,
        "workload_write_round_trips": workload_writes,
        "replica_catchup_write_round_trips": replica_writes,
        "replica_idle_read_ops": idle_ops,
        "replica_caught_up": caught_up,
    }


def run_cow_snapshot(sizes=None, iterations: int = 2000) -> dict:
    """Copy-on-write ``DataModel.clone()`` across model sizes: the fork
    must cost the same regardless of how many nodes the tree holds (it is
    a pointer swap plus two epoch stamps), and mutations after the fork
    must never leak into it."""
    from repro.testing import SNAPSHOT_BENCH_SIZES, build_host_fleet_model as build

    sizes = sizes or SNAPSHOT_BENCH_SIZES
    per_size = {}
    nodes_created = {}
    for hosts in sizes:
        model = build(hosts)
        before = _live_nodes()
        fork = model.clone()  # alive through the count: copies would show
        nodes_created[str(hosts)] = _live_nodes() - before
        del fork
        elapsed = _time(model.clone, iterations)
        per_size[hosts] = elapsed / iterations
    smallest, largest = min(sizes), max(sizes)
    # Isolation check at the largest size.
    model = build(largest)
    fork = model.clone()
    shares_root = fork.root is model.root
    frozen = json.dumps(fork.to_dict(), sort_keys=True)
    model.set_attrs("/vmRoot/host0", mem_mb=1)
    model.delete("/vmRoot/host1/vm0")
    isolated = json.dumps(fork.to_dict(), sort_keys=True) == frozen
    return {
        "iterations": iterations,
        "snapshot_us_by_hosts": {
            str(hosts): round(per_size[hosts] * 1e6, 3) for hosts in sizes
        },
        "size_ratio": round(largest / smallest, 1),
        "cost_ratio_largest_vs_smallest": round(
            per_size[largest] / max(per_size[smallest], 1e-12), 2
        ),
        "nodes_created_by_hosts": nodes_created,
        "fork_shares_structure": shares_root,
        "snapshot_isolated_from_writes": isolated,
    }


# ----------------------------------------------------------------------
# pytest wrappers (guards)
# ----------------------------------------------------------------------

def test_deep_copy_matches_json_roundtrip_without_serialising():
    """The structure-aware copy equals the legacy JSON round-trip and
    never enters the JSON codec (a regression to serialisation-based
    copying fails deterministically, not by a timing margin)."""
    result = run_deep_copy()
    assert result["matches_json_roundtrip"], result
    assert not result["enters_json_codec"], result


def test_group_commit_reduces_round_trips():
    result = run_group_commit()
    assert result["batched_write_round_trips"] == 1, result
    assert result["unbatched_write_round_trips"] >= result["puts"], result


def test_path_parse_interning():
    result = run_path_interning()
    assert result["interned_identity"] is True
    # 40 hosts x 7 vm slots = 280 distinct paths.
    assert result["distinct_objects"] == 280, result


def test_submit_batching_costs_two_round_trips_per_batch():
    result = run_submit_batching()
    assert result["batched_submit_round_trips"] == 2, result
    assert result["unbatched_submit_round_trips"] >= result["txns"], result
    assert result["all_committed"], result


def test_commit_path_reads_stay_on_the_diet():
    """Count-only guard: a single-shard burst costs at most 5 read
    round-trips per transaction, none of them a worker reading back a
    transaction document."""
    result = run_commit_path_reads()
    assert result["committed"] == result["txns"], result
    assert result["read_round_trips_per_txn"] <= 5, result
    assert result["worker_txn_document_reads"] == 0, result


def test_replica_is_read_only_and_idle_free():
    """The PR 4 'assert, don't add' guard: a tailing replica issues zero
    store *writes* (commit markers were already durable for recovery's
    sake) and zero coordination ops of any kind while idle."""
    result = run_replica_read_cost()
    assert result["committed"] == result["txns"], result
    assert result["replica_catchup_write_round_trips"] == 0, result
    assert result["replica_idle_read_ops"] == 0, result
    assert result["replica_caught_up"], result


def test_cow_snapshot_is_o1_and_isolated():
    """PR 5 guard: a snapshot is a structural fork — it creates no node at
    any model size (the op is two epoch stamps) and is byte-frozen against
    writes on the live side."""
    result = run_cow_snapshot()
    assert set(result["nodes_created_by_hosts"].values()) == {0}, result
    assert result["fork_shares_structure"], result
    assert result["snapshot_isolated_from_writes"], result


# ----------------------------------------------------------------------
# standalone runner
# ----------------------------------------------------------------------

def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=str, default=None)
    args = parser.parse_args()
    results = {
        "deep_copy": run_deep_copy(),
        "group_commit": run_group_commit(),
        "path_interning": run_path_interning(),
        "submit_batching": run_submit_batching(),
        "commit_path_reads": run_commit_path_reads(),
        "replica_read_cost": run_replica_read_cost(),
        "cow_snapshot": run_cow_snapshot(),
    }
    print(json.dumps(results, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main()
