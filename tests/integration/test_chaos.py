"""Seeded chaos soak (PR 6): end-to-end fault tolerance.

Each scenario composes, from one deterministic seed, controller crashes
at named failure points, coordination-ensemble faults (session expiry,
connection loss, latency spikes, partitions), leader kills and a client
that retries with idempotency tokens — over a concurrent single-shard +
cross-shard (2PC) spawn workload on a two-shard cluster.  The scenario
then asserts the invariants that define "no lost or duplicated work":

* **exactly-once per token** — every idempotency token maps to exactly
  one transaction, terminal, applied at most once;
* **zero acked loss** — every committed acknowledgement corresponds to a
  VM running on the devices and present in the logical model;
* **no duplicate application** — no committed ack is delivered twice;
* **recovery equality** — a fresh controller recovering from the store
  rebuilds the incumbent leader's exact model;
* **layer agreement** — the reconciler finds logical == physical;
* **no leaked locks**.

The soak runs ``CHAOS_SOAK_SEEDS`` fixed seeds (CI gates on this), and
the aggregate assertions prove the soak actually exercised the fault
space — crashes fired, ensemble faults fired, duplicates and retries
happened — so a regression that silently disables injection fails here
rather than producing a vacuous green run.
"""

from __future__ import annotations

import pytest

from repro.testing import ChaosScenario, run_chaos

#: Fixed seed set: CI and `make chaos` run exactly these (>= 20 per the
#: acceptance criteria).  Append seeds rather than replacing them — a
#: seed that once found a bug is a regression test forever.
CHAOS_SOAK_SEEDS = tuple(range(24))


@pytest.fixture(scope="module")
def soak_reports():
    """Run the whole soak once; individual tests assert per-seed slices."""
    return {seed: run_chaos(seed) for seed in CHAOS_SOAK_SEEDS}


@pytest.mark.parametrize("seed", CHAOS_SOAK_SEEDS)
def test_scenario_invariants_hold(soak_reports, seed):
    report = soak_reports[seed]
    assert report.ok, "invariant violations:\n" + "\n".join(report.failures)
    # Every submitted operation reached a terminal outcome (nothing lost,
    # nothing stuck non-terminal behind a crashed leader or dead session).
    assert report.committed + report.aborted == report.submits


def test_soak_exercised_controller_crashes(soak_reports):
    crashes = [c for r in soak_reports.values() for c in r.crashes]
    assert len(crashes) >= 10, crashes
    # Both single-shard failure points and 2PC protocol points fired.
    assert any("2pc" in c for c in crashes), crashes
    assert any("2pc" not in c for c in crashes), crashes


def test_soak_exercised_concurrent_cross_shard_bursts(soak_reports):
    """PR 9: the workload includes back-to-back bursts of overlapping
    cross-shard submissions, so the soak drives wound-wait's concurrent
    prepare admission (not just isolated 2PC transactions)."""
    assert sum(r.cross_bursts for r in soak_reports.values()) >= 5


def test_soak_exercised_ensemble_faults(soak_reports):
    faults = [f for r in soak_reports.values() for f in r.ensemble_faults]
    kinds = {f.split("@")[0] for f in faults}
    assert len(faults) >= 15, faults
    # All four injectable fault kinds occurred somewhere in the soak.
    assert {"expire-session", "connection-loss", "latency-spike", "partition"} <= kinds


def test_soak_exercised_client_side_retries(soak_reports):
    reports = soak_reports.values()
    assert sum(r.duplicate_submits for r in reports) >= 10
    assert sum(r.client_retries for r in reports) >= 10
    assert sum(r.leader_kills for r in reports) >= 1


def test_scenario_is_deterministic():
    """Same seed, same scenario: the plan and the outcome both replay."""
    first = ChaosScenario(7)
    second = ChaosScenario(7)
    assert first.ops == second.ops
    assert first.crash_plan == second.crash_plan
    assert first.fault_plan == second.fault_plan
    one, two = first.run(), second.run()
    assert one.ok and two.ok
    assert one.committed == two.committed
    assert one.crashes == two.crashes
    assert one.ensemble_faults == two.ensemble_faults


def test_distinct_seeds_produce_distinct_plans():
    plans = {
        (tuple(s.crash_plan), tuple(s.fault_plan), tuple(s.ops))
        for s in (ChaosScenario(seed) for seed in CHAOS_SOAK_SEEDS)
    }
    assert len(plans) > 1


def test_the_crash_plan_draws_from_its_own_generator(monkeypatch):
    """Adding or deleting a crash edge redraws only the crash plans: the
    workload, ensemble faults, leader kills, duplicates and retries of
    every seed stay the same, so a seed-by-seed comparison across such a
    change compares like with like."""
    from repro.testing import chaos

    def plan(scenario):
        return (
            scenario.ops, scenario.steps_between, scenario.fault_plan,
            scenario.leader_kills, scenario.dup_ops, scenario.retry_ops,
        )

    before = {seed: plan(ChaosScenario(seed)) for seed in CHAOS_SOAK_SEEDS}
    monkeypatch.setattr(chaos, "ALL_FAILURE_POINTS", chaos.ALL_FAILURE_POINTS[:-1])
    after = {seed: plan(ChaosScenario(seed)) for seed in CHAOS_SOAK_SEEDS}
    assert after == before


#: Seeds whose partition overlapped a session expiry, so that the
#: driver's heal met a refused reconnect: 441 and 640 under the
#: operation-count fault schedule, 799 under the write-count one.
HEAL_SEEDS = (441, 640, 799)


@pytest.mark.parametrize("seed", HEAL_SEEDS)
def test_the_driver_heals_through_a_partition_over_an_expired_session(seed):
    report = run_chaos(seed)
    assert report.ok, "invariant violations:\n" + "\n".join(report.failures)
    assert report.committed + report.aborted == report.submits


def test_heal_absorbs_a_reconnect_the_partition_refuses():
    """A partition refuses new sessions as well as operations: the heal
    leaves the session expired and the next step retries."""
    from repro.testing import FaultyEnsemble, ShardedCluster

    ensemble = FaultyEnsemble(num_servers=3, default_session_timeout=3600.0)
    cluster = ShardedCluster(num_shards=2, ensemble=ensemble)
    ensemble.expire_session(cluster.client.session_id)
    ensemble.crash_server(0)
    ensemble.crash_server(1)
    scenario = ChaosScenario(0)
    scenario._heal(cluster)
    assert not cluster.client.is_live()
    ensemble.restart_server(0)
    scenario._heal(cluster)
    assert cluster.client.is_live()
