"""Deterministic test infrastructure for the TROPIC reproduction.

This package ships with the library (rather than hiding in ``tests/``) so
integration tests, property tests and downstream experiments can all build
multi-shard clusters and inject controller crashes at named failure points
without hand-rolling controller/ensemble wiring.
"""

from repro.testing.chaos import ChaosReport, ChaosScenario, run_chaos, run_soak
from repro.testing.cluster import ShardedCluster
from repro.testing.faults import (
    ALL_FAILURE_POINTS,
    CONNECTION_LOSS,
    ENSEMBLE_FAULT_KINDS,
    EXPIRE_SESSION,
    LATENCY_SPIKE,
    PARTITION,
    FAILURE_POINTS,
    POST_COMMIT_PRE_ACK,
    PRE_CHECKPOINT,
    PRE_COMMIT,
    PRE_DISPATCH,
    TWOPC_FAILURE_POINTS,
    TWOPC_POST_DECISION,
    TWOPC_POST_PREPARE,
    TWOPC_PRE_DECISION,
    TWOPC_PRE_PREPARE,
    CrashPoint,
    FaultInjector,
    FaultyEnsemble,
)
from repro.testing.models import SNAPSHOT_BENCH_SIZES, build_host_fleet_model

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "run_chaos",
    "run_soak",
    "ShardedCluster",
    "SNAPSHOT_BENCH_SIZES",
    "build_host_fleet_model",
    "CrashPoint",
    "FaultInjector",
    "FaultyEnsemble",
    "ALL_FAILURE_POINTS",
    "FAILURE_POINTS",
    "TWOPC_FAILURE_POINTS",
    "PRE_COMMIT",
    "POST_COMMIT_PRE_ACK",
    "PRE_CHECKPOINT",
    "PRE_DISPATCH",
    "TWOPC_PRE_PREPARE",
    "TWOPC_POST_PREPARE",
    "TWOPC_PRE_DECISION",
    "TWOPC_POST_DECISION",
    "ENSEMBLE_FAULT_KINDS",
    "EXPIRE_SESSION",
    "CONNECTION_LOSS",
    "LATENCY_SPIKE",
    "PARTITION",
]
