"""Seeded chaos scenarios: crash points x ensemble faults x leader kills.

The crash-point matrix (PR 2) proves recovery from a *single* controller
death at every named protocol edge.  Real outages are messier: sessions
expire while a prepare is in flight, the ensemble partitions during a
checkpoint, a client retries a submission whose fate it cannot know.
:class:`ChaosScenario` composes all of the fault machinery in this package
— :class:`~repro.testing.faults.FaultInjector` crash points,
:class:`~repro.testing.faults.FaultyEnsemble` session/connection/latency/
partition faults, and leader kills — over a concurrent single-shard + 2PC
workload submitted with idempotency tokens, then checks the invariants
that define "fault tolerant" for this system.  Since PR 9 the workload
includes back-to-back *bursts* of overlapping cross-shard submissions
(same compute host, same foreign storage host) under the aggressive
scheduler, so the drain runs concurrent cross-shard prepares through the
wound-wait admission path — including wounds and retries — with crashes,
expiries and partitions landing mid-protocol.  The invariants:

1. **Exactly-once per token** — every idempotency token maps to exactly
   one persisted transaction document, no matter how many times the
   client (re)submitted it, and that document is terminal.
2. **Zero acked-transaction loss** — every completion delivered to the
   client observer is still terminal, in the same state, in the recovered
   store; committed spawns exist on the devices and in the model.
3. **Zero duplicate application** — no transaction is acknowledged as
   committed twice, and the logical/physical layers agree
   (:meth:`~repro.testing.cluster.ShardedCluster.detect_is_clean`).
4. **Recovered-model equality** — a brand-new replica recovering purely
   from the coordination store reproduces each shard's model exactly.
5. **Cross-shard read atomicity** (PR 7) — persistent read replicas
   tailing both shards, periodically fenced mid-drain through the
   decision-log-aware read fence (:mod:`repro.core.readfence`), never
   show exactly one participant's half of a cross-shard 2PC spawn —
   both the VM and its disk image, or neither, at every fenced check
   even while crashes, session expiries and partitions are in flight.

Everything is derived from a single integer seed via ``random.Random``,
so a failing scenario is replayable bit-for-bit:
``ChaosScenario(seed).run()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.common.config import TropicConfig
from repro.common.errors import QuorumLostError, SessionExpiredError
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.readfence import fence_replica_sources
from repro.core.replica import ReadReplica
from repro.core.submission import submit_batch
from repro.core.txn import TransactionState
from repro.testing.cluster import ShardedCluster
from repro.testing.faults import (
    ALL_FAILURE_POINTS,
    CONNECTION_LOSS,
    ENSEMBLE_FAULT_KINDS,
    EXPIRE_SESSION,
    LATENCY_SPIKE,
    PARTITION,
    CrashPoint,
    FaultInjector,
    FaultyEnsemble,
)

#: Faults a client/step wrapper absorbs and retries: the operation either
#: provably did not happen (connection loss, quorum loss) or the session
#: must be re-established first (expiry).  Mirrors the platform's
#: transient classification in :mod:`repro.common.retry`.
TRANSIENT_ERRORS = (SessionExpiredError, QuorumLostError, ConnectionError)

#: The shard whose controller wears the crash-point wrappers.
FAULTY_SHARD = 0

#: Aggressive checkpointing so checkpoint-edge crash points are reachable
#: within a short workload (same trick as the fault matrix), and the
#: aggressive scheduler so overlapping cross-shard bursts genuinely run
#: concurrent prepares (and can wound) instead of serialising FIFO-style
#: behind a blocked queue head.
CHAOS_CONFIG = TropicConfig(checkpoint_every=2, scheduler_policy="aggressive")


@dataclass
class ChaosReport:
    """What one scenario did and whether the invariants held."""

    seed: int
    submits: int = 0
    cross_bursts: int = 0
    duplicate_submits: int = 0
    post_drain_retries: int = 0
    client_retries: int = 0
    transient_steps: int = 0
    leader_kills: int = 0
    committed: int = 0
    aborted: int = 0
    fence_checks: int = 0
    fence_advances: int = 0
    fence_degrades: int = 0
    crashes: list[str] = field(default_factory=list)
    ensemble_faults: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK " if self.ok else "FAIL"
        line = (
            f"[{verdict}] seed={self.seed:<4d} submits={self.submits:<3d} "
            f"bursts={self.cross_bursts} "
            f"dups={self.duplicate_submits} retries={self.client_retries:<3d} "
            f"crashes={len(self.crashes)} faults={len(self.ensemble_faults)} "
            f"kills={self.leader_kills} committed={self.committed} "
            f"aborted={self.aborted} fenced={self.fence_checks} "
            f"advanced={self.fence_advances} degraded={self.fence_degrades}"
        )
        for failure in self.failures:
            line += f"\n       - {failure}"
        return line


class ChaosScenario:
    """One seeded chaos plan over a two-shard cluster with a 2PC mix.

    The constructor derives the *entire* plan — workload, crash points,
    ensemble-fault schedule, leader kills, duplicate submissions and
    post-drain retries — from ``seed``; :meth:`run` executes it and
    returns a :class:`ChaosReport`.
    """

    def __init__(self, seed: int, num_ops: int = 10, config: TropicConfig | None = None):
        self.seed = seed
        self.config = config or CHAOS_CONFIG
        rng = random.Random(seed)

        #: Workload: (name, kind, host_index).  ``cross`` ops provably span
        #: two shards (VM on one shard, disk image on the other) and are
        #: coordinated through 2PC; the rest stay single-shard.  Some of
        #: the cross ops arrive as *bursts*: 2-3 submissions sharing one
        #: compute host (hence one home shard and one foreign storage
        #: host) enqueued back-to-back with no stepping in between, so
        #: their prepares overlap and contend under wound-wait.
        self.ops: list[tuple[str, str, int]] = []
        #: Inline step rounds after each submission (interleaves the
        #: workload with execution so faults land mid-flight; zero inside
        #: a burst, by construction).
        self.steps_between: list[int] = []
        self.cross_bursts = 0
        while len(self.ops) < num_ops:
            remaining = num_ops - len(self.ops)
            if remaining >= 2 and rng.random() < 0.25:
                self.cross_bursts += 1
                host_index = rng.randrange(4)
                for _ in range(min(rng.randint(2, 3), remaining)):
                    self.ops.append((f"vm{len(self.ops)}", "cross", host_index))
                    self.steps_between.append(0)
                self.steps_between[-1] = rng.randint(0, 3)
            else:
                self.ops.append(
                    (
                        f"vm{len(self.ops)}",
                        "cross" if rng.random() < 0.3 else "spawn",
                        rng.randrange(4),
                    )
                )
                self.steps_between.append(rng.randint(0, 3))
        #: Crash plan: the first entry is armed up front at an absolute
        #: occurrence; later entries are armed after the previous crash
        #: fires, at (hits so far + offset).
        points = rng.sample(ALL_FAILURE_POINTS, k=rng.randint(1, 2))
        self.crash_plan: list[tuple[str, int]] = [
            (point, rng.randint(0, 3)) for point in points
        ]
        #: Ensemble faults, scheduled relative to the op count observed
        #: right after cluster construction: (kind, op_offset, duration).
        self.fault_plan: list[tuple[str, int, int]] = [
            (
                rng.choice(ENSEMBLE_FAULT_KINDS),
                rng.randint(20, 600),
                rng.randint(4, 20),
            )
            for _ in range(rng.randint(1, 3))
        ]
        #: Leader kills during the drain: round number -> shard.
        self.leader_kills: dict[int, int] = {
            rng.randint(1, 40): rng.randrange(2) for _ in range(rng.randint(0, 2))
        }
        #: Op indices the client submits twice back-to-back (dedup must
        #: collapse them onto one transaction).
        self.dup_ops = {i for i in range(num_ops) if rng.random() < 0.25}
        #: Op indices re-submitted with the same token *after* the drain —
        #: the "ambiguous outcome, retry with the same token" client path.
        self.retry_ops = {i for i in range(num_ops) if rng.random() < 0.5}

        # Run-time state.
        self._crash_queue: list[tuple[str, int]] = []
        self._kill_queue: list[tuple[int, int]] = []
        #: token -> every txid a submission with it returned (must end up
        #: size 1).
        self.token_txids: dict[str, set[str]] = {}
        #: Persistent per-shard read replicas for the mid-drain fenced
        #: read-atomicity checks (created lazily on the first check).
        self._fence_replicas: dict[int, ReadReplica] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> ChaosReport:
        report = ChaosReport(seed=self.seed, cross_bursts=self.cross_bursts)
        injector = FaultInjector()
        ensemble = FaultyEnsemble(num_servers=3, default_session_timeout=3600.0)
        cluster = ShardedCluster(
            num_shards=2,
            cross_shard_policy="2pc",
            config=self.config,
            injector=injector,
            faulty_shards=(FAULTY_SHARD,),
            ensemble=ensemble,
        )
        self._injector = injector
        self._crash_queue = list(self.crash_plan)
        self._kill_queue = sorted(self.leader_kills.items())
        point, occurrence = self._crash_queue.pop(0)
        injector.arm(point, occurrence)

        # Construction itself issues coordination ops; schedule faults
        # relative to the post-construction count so they land inside the
        # workload, deterministically.
        base = ensemble.fault_schedule.op_count
        for kind, offset, duration in self.fault_plan:
            at_op = base + offset
            if kind == EXPIRE_SESSION:
                ensemble.fault_schedule.expire_session_at(at_op)
            elif kind == CONNECTION_LOSS:
                ensemble.fault_schedule.connection_loss_at(at_op)
            elif kind == LATENCY_SPIKE:
                ensemble.fault_schedule.latency_spike_at(at_op, 0.0002, duration)
            elif kind == PARTITION:
                ensemble.fault_schedule.partition_at(at_op, duration)

        # Submission phase, interleaved with stepping.
        for index, op in enumerate(self.ops):
            token = self._token(index)
            self._submit(cluster, report, token, op)
            report.submits += 1
            if index in self.dup_ops:
                self._submit(cluster, report, token, op)
                report.duplicate_submits += 1
            for _ in range(self.steps_between[index]):
                self._step(cluster, report)

        self._drain(cluster, report)

        # Ambiguous-outcome client retries: same token, after the fact.
        for index in sorted(self.retry_ops):
            self._submit(cluster, report, self._token(index), self.ops[index])
            report.post_drain_retries += 1
        self._drain(cluster, report)

        # Verification runs against a healthy ensemble: unfired faults are
        # cancelled (they would otherwise fire mid-assertion) and any
        # lingering degradation (partition, latency, dead session) healed.
        ensemble.fault_schedule.cancel_pending()
        self._heal(cluster)
        self._drain(cluster, report)

        self._check_invariants(cluster, report)
        report.crashes = [crash.point for crash in injector.fired]
        report.ensemble_faults = [kind for _, kind in ensemble.fault_schedule.fired]
        return report

    def _token(self, index: int) -> str:
        return f"chaos-{self.seed}-op{index}"

    # -- client ---------------------------------------------------------

    def _build_args(self, cluster: ShardedCluster, op: tuple[str, str, int]) -> dict[str, Any]:
        name, kind, host_index = op
        inventory = cluster.inventory
        vm_host = inventory.vm_hosts[host_index % len(inventory.vm_hosts)]
        if kind == "cross":
            home = cluster.router.shard_of(vm_host)
            foreign = [
                host
                for host in inventory.storage_hosts
                if cluster.router.shard_of(host) != home
            ]
            storage_host = foreign[0] if foreign else inventory.storage_host_for(host_index)
        else:
            storage_host = inventory.storage_host_for(host_index % len(inventory.vm_hosts))
        return {
            "vm_name": name,
            "image_template": "template-small",
            "storage_host": storage_host,
            "vm_host": vm_host,
            "mem_mb": 512,
        }

    def _submit(
        self,
        cluster: ShardedCluster,
        report: ChaosReport,
        token: str,
        op: tuple[str, str, int],
    ) -> str:
        """Tokened submission with transparent retry on transient faults —
        the client half of the idempotent-retry contract, through the
        platform's own submission protocol over the raw cluster."""
        for _ in range(500):
            try:
                return self._try_submit(cluster, token, op)
            except TRANSIENT_ERRORS:
                report.client_retries += 1
                self._heal(cluster)
        raise AssertionError(f"seed {self.seed}: submit of {token} never succeeded")

    def _try_submit(
        self, cluster: ShardedCluster, token: str, op: tuple[str, str, int]
    ) -> str:
        args = self._build_args(cluster, op)
        (entry,) = submit_batch(
            cluster.router, cluster.endpoint, [("spawnVM", args)], [token], 0.0
        )
        self.token_txids.setdefault(token, set()).add(entry.txid)
        return entry.txid

    def _heal(self, cluster: ShardedCluster) -> None:
        if not cluster.client.is_live():
            cluster.client.reconnect()

    def _with_heal(self, cluster: ShardedCluster, report: ChaosReport, fn) -> None:
        """Run a recovery action, absorbing faults that land *during* the
        recovery itself (e.g. a second session expiry while the first
        failover bootstraps) — recovery code must be re-drivable too."""
        for _ in range(200):
            try:
                fn()
                return
            except TRANSIENT_ERRORS:
                report.transient_steps += 1
                self._heal(cluster)
        raise AssertionError(f"seed {self.seed}: recovery action never succeeded")

    # -- driving --------------------------------------------------------

    def _step(self, cluster: ShardedCluster, report: ChaosReport) -> bool:
        try:
            return cluster.step_all(failover=False)
        except CrashPoint:
            self._with_heal(cluster, report, lambda: self._failover(cluster))
            return True
        except SessionExpiredError:
            # Everything here shares one coordination session, and an
            # expiry deletes the ephemeral leadership of every component
            # riding it.  The real platform demotes, re-elects and lets
            # the new leader recover from the store — which is also what
            # re-drives any in-flight work the expiry interrupted (e.g. a
            # dispatched transaction whose worker batch died with the
            # session).  Model that: heal the session, then fail both
            # shards over to fresh replicas that recover from the store.
            report.transient_steps += 1
            self._heal(cluster)
            self._with_heal(cluster, report, lambda: self._failover(cluster))
            for shard in cluster.shard_ids:
                if shard != FAULTY_SHARD:
                    self._with_heal(
                        cluster, report, lambda s=shard: cluster.replace_controller(s)
                    )
            return True
        except TRANSIENT_ERRORS:
            report.transient_steps += 1
            self._heal(cluster)
            return True

    def _failover(self, cluster: ShardedCluster) -> None:
        """Replace the crashed faulty-shard controller.  While crash-plan
        entries remain the successor wears fault wrappers again, armed for
        the next point at a future occurrence; afterwards it is clean."""
        rearm = bool(self._crash_queue)
        # Build the successor first: its bootstrap issues ensemble ops that
        # can themselves hit a fault, and a retried _failover must not
        # consume a second crash-plan entry.
        successor = cluster.new_controller(FAULTY_SHARD, faulty=rearm)
        if rearm:
            point, offset = self._crash_queue.pop(0)
            self._injector.arm(point, self._injector.hits(point) + offset)
        cluster.controllers[FAULTY_SHARD] = successor

    def _drain(
        self, cluster: ShardedCluster, report: ChaosReport, max_rounds: int = 20_000
    ) -> None:
        for round_no in range(max_rounds):
            if round_no % 50 == 0:
                # Concurrent-reader invariant: a fenced replica read taken
                # mid-chaos must be cross-shard atomic (PR 7).
                self._fence_check(cluster, report)
            if self._kill_queue and round_no >= self._kill_queue[0][0]:
                # A leader kill can itself collide with an active fault
                # (replacement bootstraps through the ensemble); defer it
                # until the ensemble accepts the replacement.
                try:
                    cluster.replace_controller(self._kill_queue[0][1])
                except TRANSIENT_ERRORS:
                    report.transient_steps += 1
                    self._heal(cluster)
                else:
                    self._kill_queue.pop(0)
                    report.leader_kills += 1
            progressed = self._step(cluster, report)
            if not progressed:
                try:
                    if cluster.queues_empty():
                        return
                except TRANSIENT_ERRORS:
                    report.transient_steps += 1
                    self._heal(cluster)
        report.failures.append(f"cluster did not quiesce within {max_rounds} rounds")

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _fence_check(self, cluster: ShardedCluster, report: ChaosReport) -> None:
        """Invariant 5: fence the persistent replica pair and assert every
        cross-shard spawn is both-or-neither visible in the fenced models.

        Shards the fence degraded (a commit it could not advance, e.g. with
        an unreachable decision) are outside the atomicity domain by
        contract — disclosed partial staleness — and are skipped, exactly
        as a fenced ``fleet_view`` would serve them.  Coordination faults
        in flight abort the check (a reader would retry); they never fail
        the scenario."""
        try:
            replicas = self._fence_replicas
            for shard in cluster.shard_ids:
                if shard not in replicas:
                    store = TropicStore(
                        KVStore(cluster.client, f"/tropic/store/shard-{shard}"),
                        shard_id=shard,
                        num_shards=cluster.num_shards,
                    )
                    replicas[shard] = ReadReplica(
                        store, cluster.schema, cluster.procedures, shard_id=shard
                    )
            for replica in replicas.values():
                replica.refresh(force=True)
            fenced = fence_replica_sources(replicas, set(), cluster.twopc)
        except TRANSIENT_ERRORS:
            report.transient_steps += 1
            self._heal(cluster)
            return
        report.fence_checks += 1
        report.fence_advances += fenced.advanced
        report.fence_degrades += len(fenced.degraded)
        models = {}
        for shard, replica in replicas.items():
            if shard in fenced.degraded:
                continue
            models[shard] = replica.model(refresh=False)
        for index, (name, kind, _host) in enumerate(self.ops):
            if kind != "cross":
                continue
            args = self._build_args(cluster, self.ops[index])
            vm_shard = cluster.router.shard_of(args["vm_host"])
            img_shard = cluster.router.shard_of(args["storage_host"])
            if vm_shard not in models or img_shard not in models:
                continue
            vm_there = models[vm_shard].exists(f"{args['vm_host']}/{name}")
            image_there = models[img_shard].exists(
                f"{args['storage_host']}/{name}-disk"
            )
            if vm_there != image_there:
                report.failures.append(
                    f"fenced replica read tore {name}: "
                    f"vm={vm_there} image={image_there}"
                )

    def _check_invariants(self, cluster: ShardedCluster, report: ChaosReport) -> None:
        fail = report.failures.append

        # 1. Exactly-once per idempotency token.
        for index, op in enumerate(self.ops):
            token = self._token(index)
            txids = self.token_txids.get(token, set())
            if len(txids) != 1:
                fail(f"token {token} created {len(txids)} transactions: {sorted(txids)}")
                continue
            args = self._build_args(cluster, op)
            shard = cluster.router.plan("spawnVM", args).shard
            entry = cluster.stores[shard].lookup_token(token)
            if entry is None:
                fail(f"token {token} has no persisted index entry")
                continue
            (txid,) = txids
            if entry["txid"] != txid:
                fail(f"token {token} indexed to {entry['txid']}, expected {txid}")
            doc = cluster.load(txid)
            if doc is None or not doc.is_terminal:
                state = None if doc is None else doc.state
                fail(f"token {token} transaction {txid} ended non-terminal: {state}")
            elif doc.state is TransactionState.COMMITTED:
                report.committed += 1
            else:
                report.aborted += 1

        # 2. Zero acked-transaction loss, and 3. zero duplicate application.
        acked_committed: set[str] = set()
        for txn in cluster.acked:
            final = cluster.load(txn.txid)
            if final is None or final.state is not txn.state:
                got = None if final is None else final.state
                fail(
                    f"acked {txn.txid} ({txn.state.value}) now "
                    f"{'missing' if final is None else got.value} in the store"
                )
                continue
            if txn.state is not TransactionState.COMMITTED:
                continue
            if txn.txid in acked_committed:
                fail(f"{txn.txid} acknowledged as committed twice")
            acked_committed.add(txn.txid)
            vm, host = txn.args["vm_name"], txn.args["vm_host"]
            device = cluster.inventory.registry.device_at(host)
            if device.vm_state(vm) != "running":
                fail(f"acked commit {vm}: device at {host} says {device.vm_state(vm)!r}")
            shard = cluster.router.shard_of(host)
            if not cluster.model(shard).exists(f"{host}/{vm}"):
                fail(f"acked commit {vm} missing from shard {shard}'s model")

        # 4. Recovered-model equality: a fresh replica rebuilding purely
        # from the coordination store must agree with the incumbent.
        for shard in cluster.shard_ids:
            incumbent = cluster.model(shard).to_dict()
            fresh = cluster.new_controller(shard, faulty=False)
            fresh.recover()
            if fresh.model.to_dict() != incumbent:
                fail(f"shard {shard}: fresh recovery diverged from incumbent model")

        # Cross-layer agreement and no leaked locks.
        for shard in cluster.shard_ids:
            if not cluster.detect_is_clean(shard):
                fail(f"shard {shard}: logical/physical layers disagree")
            leaked = cluster.controllers[shard].lock_manager.active_transactions()
            if leaked:
                fail(f"shard {shard}: leaked locks for {sorted(leaked)}")


def run_chaos(seed: int, num_ops: int = 10) -> ChaosReport:
    """Generate and run one seeded scenario."""
    return ChaosScenario(seed, num_ops=num_ops).run()


def run_soak(seeds: "list[int] | range", num_ops: int = 10) -> list[ChaosReport]:
    """Run a batch of seeded scenarios (the chaos soak)."""
    return [run_chaos(seed, num_ops=num_ops) for seed in seeds]
