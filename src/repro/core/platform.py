"""The TROPIC platform: public API tying all components together (Figure 1).

:class:`TropicPlatform` owns the coordination ensemble, the persistent
store, the inputQ/phyQ queues, a set of replicated controllers (leader +
followers) and the physical workers.  Clients submit stored-procedure calls
with :meth:`TropicPlatform.submit` and receive a
:class:`TransactionHandle`.

Two runtimes are provided:

* **inline** (``threaded=False``): controller and workers are stepped in
  the calling thread; execution is fully deterministic.  Used by most
  tests and by benchmarks that measure per-transaction costs.
* **threaded** (``threaded=True``): one service thread per controller
  replica and per worker.  Used by the examples, the EC2-trace
  performance benchmarks, and the high-availability experiments (leader
  failover, §6.4).

With ``config.num_shards > 1`` the data-model tree is partitioned over N
controller *shards* (see :mod:`repro.core.sharding`).  Each shard gets its
own namespaced store prefix, inputQ/phyQ, leader election and replica set;
submissions are routed client-side to the owning shard's inputQ.  Shards
share nothing, so a process may host only a subset of them
(``local_shards``) — the scale-out deployment runs one shard (plus its
replicas) per process or machine.

``local_shards`` gates *writes* only: :meth:`TropicPlatform.model_view`
serves fleet-wide reads from any process by composing the locally hosted
shard leaders with per-shard read replicas of the others
(:class:`ReadProxy` over :mod:`repro.core.replica`).  Every shard is read
from the first source it has on one ladder — leader, then read replica,
then the disclosed ``partial`` bootstrap copy.

Documented in ``docs/architecture.md`` (write path, sharding, 2PC, read
path) and ``docs/operations.md`` (deployment shapes, failover drills).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.recorder import traced
from repro.common.clock import Clock, RealClock
from repro.common.config import TropicConfig
from repro.common.errors import (
    ConfigurationError,
    QuorumLostError,
    ReproError,
    SessionExpiredError,
    ShardNotLocalError,
    ShardUnavailable,
    TransactionFailed,
    TxnTimeout,
)
from repro.common.idgen import random_id
from repro.coordination.client import CoordinationClient
from repro.coordination.election import LeaderElection
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.controller import Controller
from repro.core.persistence import TropicStore
from repro.core.procedures import ProcedureRegistry
from repro.core.reconcile import Reconciler, ReloadReport, RepairReport
from repro.core.readfence import fence_replica_sources
from repro.core.replica import ReadReplica
from repro.core.sharding import ShardMap, ShardRouter, is_global_path
from repro.core.signals import SignalBoard
from repro.core.submission import submit_batch
from repro.core.twopc import TWOPC_PREFIX, TwoPCLog, locate_transaction
from repro.core.txn import Transaction, TransactionState
from repro.core.worker import Worker
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel
from repro.drivers.registry import DeviceRegistry
from repro.metrics.collectors import ResilienceCounters

#: Session timeout used for clients whose failure need not be detected
#: (the platform's own client and the workers').  Controller election
#: sessions use ``config.session_timeout`` instead.
_LONG_SESSION = 3600.0

QUEUE_PREFIX = "/tropic/queues"
ELECTION_PATH = "/tropic/election"
STORE_PREFIX = "/tropic/store"
#: Global (unsharded) namespace holding the persisted shard map.
SHARD_MAP_PREFIX = "/tropic/shards"

# The per-shard namespace rules.  They are the single source of truth for
# the layout (single-shard deployments keep the legacy unprefixed paths
# byte-for-byte); external readers — test harnesses, replica
# constructors in benchmarks and scripts — must use these instead of
# re-deriving the rule.


def shard_store_prefix(shard: int, num_shards: int) -> str:
    """Coordination-store prefix of ``shard``'s persistence namespace."""
    if num_shards == 1:
        return STORE_PREFIX
    return f"{STORE_PREFIX}/shard-{shard}"


def shard_queue_path(shard: int, num_shards: int, queue: str) -> str:
    """Path of ``shard``'s ``queue`` (``"inputQ"`` or ``"phyQ"``)."""
    if num_shards == 1:
        return f"{QUEUE_PREFIX}/{queue}"
    return f"{QUEUE_PREFIX}/shard-{shard}/{queue}"


def shard_election_path(shard: int, num_shards: int) -> str:
    """Leader-election path of ``shard``'s controller replicas."""
    if num_shards == 1:
        return ELECTION_PATH
    return f"{ELECTION_PATH}/shard-{shard}"


@dataclass
class ShardRuntime:
    """Everything one controller shard owns: namespaced persistent store,
    queues, election path, controller replicas and physical workers."""

    index: int
    store: TropicStore
    input_queue: DistributedQueue
    phy_queue: DistributedQueue
    election_path: str
    controllers: list[Controller] = field(default_factory=list)
    workers: list[Worker] = field(default_factory=list)


@dataclass(frozen=True)
class ShardWatermark:
    """Provenance of one shard's subtrees in a fleet view.

    ``source`` is ``"leader"`` for an in-process authoritative shard
    (``applied_txn`` is ``None``: the view is the live model, not a
    log position), ``"replica"`` for a tailed copy, whose
    ``applied_txn`` is the monotonic applied-log sequence number the
    copy reflects (see :class:`~repro.core.replica.ReadReplica`), or
    ``"partial"`` for this process's bootstrap-frozen copy.
    """

    shard: int
    source: str
    applied_txn: int | None = None


@dataclass
class FleetView:
    """A merged read view of the whole data-model tree plus, per shard,
    where that shard's subtrees came from and how fresh they are.

    ``degraded_shards`` discloses graceful read degradation: locally
    *hosted* shards whose leader was unreachable, served from their read
    replica (bounded-stale) or — when no replica state exists — from the
    partial bootstrap-frozen copy instead of failing the whole read.  The
    per-shard watermark shows which fallback was used and how fresh it is.
    """

    model: DataModel
    watermarks: dict[int, ShardWatermark]
    degraded_shards: list[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_shards)

    def replica_shards(self) -> list[int]:
        return sorted(s for s, w in self.watermarks.items() if w.source == "replica")


class ReadProxy:
    """Composes local authoritative shards with read replicas of the
    shards this process does not host, so fleet-wide reads work from any
    process (the leaders keep exclusive ownership of the write path).

    Replicas are created lazily — a process that never asks for a fleet
    view pays nothing — and each replica's catch-up is watch-driven, so a
    quiescent fleet costs zero coordination operations per read.
    """

    def __init__(self, platform: "TropicPlatform"):
        self._platform = platform
        self._replicas: dict[int, ReadReplica] = {}
        self._lock = traced(threading.Lock(), "ReadProxy._lock")

    def replica(self, shard: int) -> ReadReplica:
        """The (lazily created) read replica tailing ``shard``'s store."""
        with self._lock:
            replica = self._replicas.get(shard)
        if replica is not None:
            return replica
        # Construct outside the lock: KVStore's constructor issues an
        # ensure_path coordination round-trip, and holding _lock across
        # it would stall every reader behind one slow quorum.  Losing the
        # construction race only costs a duplicate (idempotent) probe;
        # setdefault keeps exactly one replica per shard.
        platform = self._platform
        sharded = platform.config.num_shards > 1
        store = TropicStore(
            KVStore(platform.client, platform._store_prefix(shard)),
            shard_id=shard if sharded else None,
            num_shards=platform.config.num_shards if sharded else None,
        )
        fresh = ReadReplica(
            store,
            platform.schema,
            platform.procedures,
            shard_id=shard,
            counters=platform.resilience,
        )
        with self._lock:
            return self._replicas.setdefault(shard, fresh)

    def replicas(self) -> dict[int, ReadReplica]:
        with self._lock:
            return dict(self._replicas)


class TransactionHandle:
    """Client-side handle to a submitted transaction."""

    def __init__(self, platform: "TropicPlatform", txid: str):
        self.platform = platform
        self.txid = txid

    def refresh(self) -> Transaction | None:
        return self.platform.load_transaction(self.txid)

    @property
    def state(self) -> TransactionState | None:
        txn = self.refresh()
        return None if txn is None else txn.state

    def is_done(self) -> bool:
        txn = self.refresh()
        return txn is not None and txn.is_terminal

    def wait(self, timeout: float | None = None) -> Transaction:
        """Block until the transaction reaches a terminal state."""
        return self.platform.wait_for(self.txid, timeout)

    def __repr__(self) -> str:
        return f"<TransactionHandle {self.txid}>"


class _ControllerRunner(threading.Thread):
    """Service thread hosting one controller replica."""

    def __init__(
        self, platform: "TropicPlatform", controller: Controller, election_path: str
    ):
        super().__init__(name=f"tropic-{controller.name}", daemon=True)
        self.platform = platform
        self.controller = controller
        self.shard = controller.shard_id
        self.stop_event = threading.Event()
        self.election_client = CoordinationClient(
            platform.ensemble, session_timeout=platform.config.session_timeout
        )
        self.election = LeaderElection(
            self.election_client, election_path, controller.name
        )
        self.is_leader = False
        self.became_leader_at: float | None = None

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        clock = self.platform.clock
        config = self.platform.config
        self.election.volunteer()
        last_heartbeat = clock.now()
        while not self.stop_event.is_set():
            try:
                now = clock.now()
                if now - last_heartbeat >= config.heartbeat_interval:
                    self.election_client.heartbeat()
                    last_heartbeat = now
                leading = self.election.is_leader()
                if leading and not self.is_leader:
                    self.controller.recover()
                    self.became_leader_at = clock.now()
                elif not leading and self.is_leader:
                    self.controller.demote()
                self.is_leader = leading
                did_work = self.controller.step() if leading else False
                if not did_work:
                    clock.sleep(config.queue_poll_interval)
            except SessionExpiredError:
                # An expired session never heals by waiting: re-establish
                # it (and re-enter the election) instead of looping on the
                # same dead session forever.
                self._recover_session()
                last_heartbeat = clock.now()
            except ReproError as exc:
                # Other coordination hiccups (lost quorum, leadership
                # races) are retried on the next loop iteration.
                self.platform.resilience.record_failure(exc)
                clock.sleep(config.queue_poll_interval)
            except Exception as exc:  # noqa: BLE001 - keep the replica alive
                self.platform.resilience.record_failure(exc)
                clock.sleep(config.queue_poll_interval)

    def _recover_session(self) -> None:
        """Recover from coordination-session expiry (either session).

        The platform's shared client is healed first (one reconnect fixes
        every store/queue built on it).  If this runner's *election*
        session expired, its ephemeral member znode is gone — the replica
        must step down (a leader whose session expired has lost its
        leadership the moment the znode vanished), reconnect under
        ``config.session_timeout`` and re-volunteer; it re-enters the
        election as a fresh follower.
        """
        platform = self.platform
        config = platform.config
        platform._heal_sessions()
        try:
            if not self.election_client.is_live():
                if self.is_leader:
                    self.controller.demote()
                    self.is_leader = False
                self.election_client.reconnect(config.session_timeout)
                self.election.rejoin()
                platform.resilience.session_expiries += 1
        except ReproError:
            pass  # ensemble still unhealthy; retried on the next iteration
        platform.clock.sleep(config.queue_poll_interval)

    def stop(self) -> None:
        self.stop_event.set()


class _WorkerRunner(threading.Thread):
    """Service thread hosting one physical worker."""

    def __init__(self, platform: "TropicPlatform", worker: Worker):
        super().__init__(name=f"tropic-{worker.name}", daemon=True)
        self.platform = platform
        self.worker = worker
        self.stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via integration tests
        clock = self.platform.clock
        config = self.platform.config
        while not self.stop_event.is_set():
            try:
                if not self.worker.step():
                    clock.sleep(config.queue_poll_interval)
            except SessionExpiredError:
                # Workers share the platform client; heal it and retry.
                self.platform._heal_sessions()
                clock.sleep(config.queue_poll_interval)
            except ReproError as exc:
                self.platform.resilience.record_failure(exc)
                clock.sleep(config.queue_poll_interval)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                self.platform.resilience.record_failure(exc)
                clock.sleep(config.queue_poll_interval)

    def stop(self) -> None:
        self.stop_event.set()


class TropicPlatform:
    """Transactional resource orchestration platform."""

    def __init__(
        self,
        schema: ModelSchema,
        procedures: ProcedureRegistry,
        config: TropicConfig | None = None,
        registry: DeviceRegistry | None = None,
        initial_model: DataModel | None = None,
        ensemble: CoordinationEnsemble | None = None,
        clock: Clock | None = None,
        threaded: bool = False,
        shard_assignments: dict[str, int] | None = None,
        local_shards: list[int] | None = None,
    ):
        self.schema = schema
        self.procedures = procedures
        self.config = config or TropicConfig()
        self.config.validate()
        self.registry = registry
        self.initial_model = initial_model
        self.clock = clock or RealClock()
        self.threaded = threaded
        self.shard_assignments = dict(shard_assignments or {})
        if local_shards is None:
            self._local_shards = list(range(self.config.num_shards))
        else:
            self._local_shards = sorted(set(int(s) for s in local_shards))
            for shard in self._local_shards:
                if not 0 <= shard < self.config.num_shards:
                    raise ConfigurationError(
                        f"local shard {shard} outside 0..{self.config.num_shards - 1}"
                    )
            if not self._local_shards:
                raise ConfigurationError("local_shards must name at least one shard")

        self.ensemble = ensemble or CoordinationEnsemble(
            num_servers=3,
            clock=self.clock,
            default_session_timeout=self.config.session_timeout,
            op_latency=self.config.coordination_latency,
        )
        self.client: CoordinationClient | None = None
        self.shard_router: ShardRouter | None = None
        self.twopc: TwoPCLog | None = None
        self.read_proxy: ReadProxy | None = None
        self.shards: dict[int, ShardRuntime] = {}
        #: inputQ of every shard (local or not): submit routing and the
        #: cross-shard 2PC protocol both need to reach foreign shards.
        self._all_input_queues: dict[int, DistributedQueue] = {}
        # Shard-0-local aliases kept for single-shard callers (the paper's
        # deployment shape); populated by start().
        self.store: TropicStore | None = None
        self.input_queue: DistributedQueue | None = None
        self.phy_queue: DistributedQueue | None = None
        self.controllers: list[Controller] = []
        self.workers: list[Worker] = []
        self.signals: SignalBoard | None = None
        self.completed_transactions: list[Transaction] = []
        self._completed_index: dict[str, Transaction] = {}
        self._txn_shards: dict[str, int] = {}
        self._controller_runners: list[_ControllerRunner] = []
        self._worker_runners: list[_WorkerRunner] = []
        self._started = False
        self._completion_lock = traced(threading.Lock(), "TropicPlatform._completion_lock")
        #: Fault-tolerance event counters shared with the queues, read
        #: replicas and service runners (see metrics.collectors).
        self.resilience = ResilienceCounters()
        self._heal_lock = traced(threading.Lock(), "TropicPlatform._heal_lock")
        #: Merged-fleet-view cache, one ``(key, view)`` slot.  An exact
        #: key hit is served as an O(1) fork of the cached tree; any other
        #: key rebuilds; see fleet_view.
        self._view_cache: tuple[tuple, DataModel] | None = None

    # ------------------------------------------------------------------
    # Shard namespaces
    # ------------------------------------------------------------------

    def _store_prefix(self, shard: int) -> str:
        return shard_store_prefix(shard, self.config.num_shards)

    def _load_or_persist_shard_map(self) -> ShardMap:
        """Resolve the authoritative shard map.

        The first process to start persists its map in the global
        coordination namespace; every later process (restarts, other
        shard hosts) adopts the persisted one, which keeps routing stable
        across restarts regardless of local configuration drift.
        """
        shard_kv = KVStore(self.client, SHARD_MAP_PREFIX)
        persisted = shard_kv.get("map")
        if persisted is None:
            shard_map = ShardMap(self.config.num_shards, self.shard_assignments)
            if self.config.num_shards > 1:
                shard_kv.put("map", shard_map.to_dict())
            return shard_map
        shard_map = ShardMap.from_dict(persisted)
        if shard_map.num_shards != self.config.num_shards:
            raise ConfigurationError(
                f"persisted shard map has {shard_map.num_shards} shards but "
                f"config.num_shards={self.config.num_shards}; resharding "
                f"requires an explicit migration, not a restart"
            )
        return shard_map

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "TropicPlatform":
        """Bring up the store, queues, controllers and workers."""
        if self._started:
            return self
        config = self.config
        self.client = CoordinationClient(self.ensemble, session_timeout=_LONG_SESSION)
        self.shard_router = ShardRouter(
            self._load_or_persist_shard_map(), config.cross_shard_policy
        )

        sharded = config.num_shards > 1
        if sharded:
            # Global (unsharded) namespaces: every shard's inputQ (for
            # routing and 2PC peer traffic) and the 2PC decision log.
            self._all_input_queues = {
                shard: DistributedQueue(
                    self.client, shard_queue_path(shard, config.num_shards, "inputQ")
                )
                for shard in range(config.num_shards)
            }
            self.twopc = TwoPCLog(KVStore(self.client, TWOPC_PREFIX))
        self.read_proxy = ReadProxy(self)
        num_controllers = config.num_controllers if self.threaded else 1
        for shard in self._local_shards:
            store = TropicStore(
                KVStore(self.client, self._store_prefix(shard)),
                shard_id=shard if sharded else None,
                num_shards=config.num_shards if sharded else None,
            )
            runtime = ShardRuntime(
                index=shard,
                store=store,
                input_queue=self._all_input_queues.get(shard)
                or DistributedQueue(
                    self.client, shard_queue_path(shard, config.num_shards, "inputQ")
                ),
                phy_queue=DistributedQueue(
                    self.client, shard_queue_path(shard, config.num_shards, "phyQ")
                ),
                election_path=shard_election_path(shard, config.num_shards),
            )

            # Bootstrap the shard's data-model checkpoint on first start.
            # Every shard checkpoints the full initial model: a shard is
            # authoritative for its own subtrees only, but keeping the full
            # tree lets subtree-local constraint checks and reads work
            # without cross-shard calls (foreign subtrees are never
            # mutated locally, so they are simply a bootstrap-frozen view).
            checkpoint, _ = store.load_checkpoint()
            if checkpoint is None:
                model = (
                    self.initial_model if self.initial_model is not None else DataModel()
                )
                store.save_checkpoint(model, 0)

            for index in range(num_controllers):
                prefix = f"controller-{shard}-{index}" if sharded else f"controller-{index}"
                runtime.controllers.append(
                    Controller(
                        name=f"{prefix}-{random_id('c')[-4:]}",
                        config=config,
                        store=store,
                        input_queue=runtime.input_queue,
                        phy_queue=runtime.phy_queue,
                        schema=self.schema,
                        procedures=self.procedures,
                        clock=self.clock,
                        on_complete=self._on_complete,
                        shard_id=shard,
                        router=self.shard_router if sharded else None,
                        peer_queues=self._all_input_queues if sharded else None,
                        twopc=self.twopc,
                    )
                )
            for index in range(config.num_workers):
                name = f"worker-{shard}-{index}" if sharded else f"worker-{index}"
                runtime.workers.append(
                    Worker(
                        name=name,
                        store=store,
                        phy_queue=runtime.phy_queue,
                        input_queue=runtime.input_queue,
                        registry=self.registry,
                        config=config,
                    )
                )
            self.shards[shard] = runtime

        first = self.shards[self._local_shards[0]]
        self.store = first.store
        self.input_queue = first.input_queue
        self.phy_queue = first.phy_queue
        self.signals = SignalBoard(first.store)
        self.controllers = [c for rt in self.shards.values() for c in rt.controllers]
        self.workers = [w for rt in self.shards.values() for w in rt.workers]

        if self.threaded:
            for runtime in self.shards.values():
                for controller in runtime.controllers:
                    runner = _ControllerRunner(self, controller, runtime.election_path)
                    self._controller_runners.append(runner)
                    runner.start()
            for worker in self.workers:
                runner = _WorkerRunner(self, worker)
                self._worker_runners.append(runner)
                runner.start()
        else:
            # Inline runtime: one controller per shard, recovered eagerly.
            for runtime in self.shards.values():
                runtime.controllers[0].recover()

        self._started = True
        return self

    def stop(self) -> None:
        """Stop service threads and close coordination sessions."""
        for runner in self._controller_runners:
            runner.stop()
        for runner in self._worker_runners:
            runner.stop()
        for runner in self._controller_runners:
            runner.join(timeout=2.0)
        for runner in self._worker_runners:
            runner.join(timeout=2.0)
        self._controller_runners = []
        self._worker_runners = []
        self._started = False

    def __enter__(self) -> "TropicPlatform":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    @property
    def local_shards(self) -> list[int]:
        return list(self._local_shards)

    def _runtime(self, shard: int) -> ShardRuntime:
        runtime = self.shards.get(shard)
        if runtime is None:
            raise ShardNotLocalError(
                f"shard {shard} is not hosted by this process "
                f"(local shards: {self._local_shards})",
                shard=shard,
            )
        return runtime

    def _locate(self, txid: str) -> tuple[int, Transaction] | None:
        """The shard holding the client's document for ``txid`` and that
        document: the shard it was routed to when this process submitted
        it, otherwise the local shard stores are searched, preferring a
        cross-shard transaction's coordinator over its participants."""
        shard = self._txn_shards.get(txid)
        if shard in self.shards:
            txn = self.shards[shard].store.load_transaction(txid)
            return None if txn is None else (shard, txn)
        stores = {shard: runtime.store for shard, runtime in self.shards.items()}
        return locate_transaction(stores, txid)

    def shard_of_txn(self, txid: str) -> int | None:
        """Shard holding the client's document for ``txid``."""
        shard = self._txn_shards.get(txid)
        if shard is not None:
            return shard
        found = self._locate(txid)
        return None if found is None else found[0]

    def load_transaction(self, txid: str) -> Transaction | None:
        """Load the client's document for ``txid`` (see :meth:`_locate`)."""
        found = self._locate(txid)
        return None if found is None else found[1]

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def submit(
        self,
        procedure: str,
        args: dict[str, Any] | None = None,
        wait: bool = True,
        timeout: float | None = 30.0,
        idempotency_token: str | None = None,
    ) -> Transaction | TransactionHandle:
        """Submit a transactional orchestration (Step 1 of Figure 2): a
        batch of one through :meth:`submit_many`.

        The transaction is routed to the shard owning its argument paths
        and enqueued on that shard's inputQ.  With ``wait=True`` (default)
        the call blocks until the transaction reaches a terminal state and
        returns the final :class:`~repro.core.txn.Transaction`; otherwise
        it returns a :class:`TransactionHandle` immediately.

        ``idempotency_token`` makes the submission safe to re-drive after
        an *ambiguous* failure (timeout, connection loss after the commit,
        a crash between commit and acknowledgement): a retried ``submit``
        with the same token resumes the original transaction instead of
        double-applying (see :func:`repro.core.submission.submit_batch`).
        Pair with :func:`repro.common.retry.call_with_retries`, which only
        re-drives ambiguous failures when a token is attached.
        """
        return self.submit_many(
            [(procedure, args)], wait, timeout, [idempotency_token]
        )[0]

    def submit_many(
        self,
        requests: list[tuple[str, dict[str, Any] | None]],
        wait: bool = True,
        timeout: float | None = 60.0,
        idempotency_tokens: list[str | None] | None = None,
    ) -> list[Transaction | TransactionHandle]:
        """Submit a batch of transactions with submit-side batching.

        Per shard, the INITIALIZED transaction documents of the whole batch
        are group-committed in one store write and the request messages are
        enqueued in one queue write — two coordination round-trips per
        shard per batch instead of two per transaction.

        ``idempotency_tokens`` (optional, one entry per request, ``None``
        entries allowed) gives individual requests exactly-once re-drive
        semantics: already-seen tokens resume their original transaction,
        fresh tokens ride the batch group commit together with their
        documents.

        The batch shares one wait deadline (``timeout`` from call entry),
        and every waited transaction is additionally bounded by
        ``config.txn_timeout`` — the per-transaction stall deadline
        :meth:`wait_for` enforces — raising the typed (ambiguous, therefore
        retry-with-token-only) :class:`~repro.common.errors.TxnTimeout`.
        """
        self._require_started()
        if idempotency_tokens is None:
            idempotency_tokens = [None] * len(requests)
        elif len(idempotency_tokens) != len(requests):
            raise ConfigurationError(
                f"idempotency_tokens must match requests 1:1 "
                f"({len(idempotency_tokens)} tokens for {len(requests)} requests)"
            )
        for procedure, _ in requests:
            if not self.procedures.has(procedure):
                raise ConfigurationError(f"unknown stored procedure {procedure!r}")
        submitted = submit_batch(
            self.shard_router,
            self._endpoint,
            requests,
            idempotency_tokens,
            self.clock.now(),
        )
        handles: list[TransactionHandle] = []
        for entry in submitted:
            if entry.resumed:
                self.resilience.token_dedup_hits += 1
            self._txn_shards[entry.txid] = entry.shard
            handles.append(TransactionHandle(self, entry.txid))
        if not wait:
            return list(handles)
        if not self.threaded:
            self.run_until_idle()
        deadline = None if timeout is None else self.clock.now() + timeout
        results: list[Transaction | TransactionHandle] = []
        for handle in handles:
            remaining = (
                None if deadline is None else max(deadline - self.clock.now(), 0.0)
            )
            results.append(handle.wait(remaining))
        return results

    def _endpoint(self, shard: int) -> tuple[TropicStore, DistributedQueue]:
        runtime = self._runtime(shard)
        return runtime.store, runtime.input_queue

    def wait_for(self, txid: str, timeout: float | None = 30.0) -> Transaction:
        """Block until ``txid`` reaches a terminal state (polling the store).

        The wait is bounded by the smaller of ``timeout`` and
        ``config.txn_timeout`` (when set), so every wait surface honours
        the configured per-transaction stall deadline uniformly.  On
        expiry raises :class:`~repro.common.errors.TxnTimeout` — typed,
        classified *ambiguous* (the transaction may still commit after the
        caller gave up), and a subclass of the builtin ``TimeoutError``
        for callers that predate the typed error.
        """
        self._require_started()
        effective = timeout
        if self.config.txn_timeout > 0:
            effective = (
                self.config.txn_timeout
                if timeout is None
                else min(timeout, self.config.txn_timeout)
            )
        deadline = None if effective is None else self.clock.now() + effective
        while True:
            txn = self._completed_lookup(txid) or self.load_transaction(txid)
            if txn is not None and txn.is_terminal:
                return txn
            if not self.threaded:
                # Inline runtime: drive execution ourselves.
                progressed = self.run_until_idle()
                txn = self._completed_lookup(txid) or self.load_transaction(txid)
                if txn is not None and txn.is_terminal:
                    return txn
                if not progressed:
                    raise TransactionFailed(
                        f"transaction {txid} cannot make progress (deadlocked or lost)",
                        txid=txid,
                    )
                continue
            if deadline is not None and self.clock.now() >= deadline:
                raise TxnTimeout(
                    f"transaction {txid} did not finish within {effective}s",
                    txid=txid,
                )
            self.clock.sleep(self.config.queue_poll_interval)

    # ------------------------------------------------------------------
    # Inline runtime driver
    # ------------------------------------------------------------------

    def run_until_idle(self, max_rounds: int = 100_000) -> int:
        """Step every local shard's controller and workers until all queues
        are drained.

        Only meaningful for the inline runtime; returns the number of
        productive rounds.
        """
        self._require_started()
        if self.threaded:
            return 0
        rounds = 0
        for _ in range(max_rounds):
            progressed = False
            for runtime in self.shards.values():
                if runtime.controllers[0].step():
                    progressed = True
                for worker in runtime.workers:
                    if worker.step():
                        progressed = True
            if not progressed and all(
                rt.input_queue.is_empty() and rt.phy_queue.is_empty()
                for rt in self.shards.values()
            ):
                break
            if progressed:
                rounds += 1
        return rounds

    # ------------------------------------------------------------------
    # Reconciliation and signals (§4)
    # ------------------------------------------------------------------

    def reconciler(self, shard: int | None = None) -> Reconciler:
        self._require_started()
        if self.registry is None:
            raise ConfigurationError("reconciliation requires a device registry")
        return Reconciler(self.leader(shard), self.registry)

    def _shard_for_repair(self, path: str) -> int | None:
        if self.config.num_shards == 1:
            return None
        if is_global_path(path):
            raise ConfigurationError(
                f"path {path!r} is above the sharding granularity; run repair/"
                f"reload per owned subtree (e.g. per host) in a sharded deployment"
            )
        return self.shard_router.shard_of(path)

    def repair(self, path: str = "/") -> RepairReport:
        """Drive the physical layer back to the logical state under ``path``.

        Sharded deployments fan a global repair (``"/"`` or a top-level
        subtree) out over every registered device owned by a locally
        hosted shard, each repaired against its owner's model — a shard's
        copy of *foreign* subtrees is bootstrap-frozen and must never be
        used as repair authority.
        """
        if self.config.num_shards > 1 and is_global_path(path):
            return self._repair_global(path)
        return self.reconciler(self._shard_for_repair(path)).repair(path)

    def _repair_global(self, path: str) -> RepairReport:
        self._require_started()
        if self.registry is None:
            raise ConfigurationError("reconciliation requires a device registry")
        scope = path.rstrip("/")
        merged = RepairReport()
        for device_path in self.registry.device_paths():
            device_str = str(device_path)
            if scope and not device_str.startswith(scope + "/"):
                continue
            owner = self.shard_router.shard_of(device_str)
            if owner not in self.shards:
                continue  # foreign shard: its own host process repairs it
            report = self.reconciler(owner).repair(device_str)
            merged.inspected += report.inspected
            merged.actions_executed.extend(report.actions_executed)
            merged.action_errors.extend(report.action_errors)
            merged.unrepairable.extend(report.unrepairable)
        return merged

    def reload(self, path: str) -> ReloadReport:
        return self.reconciler(self._shard_for_repair(path)).reload(path)

    def _controller_for_txn(self, txid: str) -> Controller:
        shard = self.shard_of_txn(txid)
        return self.leader(shard)

    def send_term(self, txid: str) -> None:
        self._controller_for_txn(txid).send_term(txid)

    def send_kill(self, txid: str) -> None:
        self._controller_for_txn(txid).send_kill(txid)

    # ------------------------------------------------------------------
    # High availability controls (§6.4)
    # ------------------------------------------------------------------

    def leader(self, shard: int | None = None) -> Controller:
        """The controller currently acting as leader of ``shard`` (default:
        the first locally hosted shard)."""
        self._require_started()
        if shard is None:
            shard = self._local_shards[0]
        runtime = self._runtime(shard)
        if not self.threaded:
            return runtime.controllers[0]
        for runner in self._controller_runners:
            if runner.shard == shard and runner.is_alive() and runner.is_leader:
                return runner.controller
        # No acknowledged leader yet (e.g. mid-failover); prefer a replica
        # that has already restored state, then any live replica.
        for runner in self._controller_runners:
            if runner.shard == shard and runner.is_alive() and runner.controller.recovered:
                return runner.controller
        for runner in self._controller_runners:
            if runner.shard == shard and runner.is_alive():
                return runner.controller
        raise ConfigurationError(f"no live controller replica for shard {shard}")

    def leader_runner(self, shard: int | None = None) -> "_ControllerRunner | None":
        for runner in self._controller_runners:
            if shard is not None and runner.shard != shard:
                continue
            if runner.is_alive() and runner.is_leader:
                return runner
        return None

    def kill_leader(self, shard: int | None = None) -> str | None:
        """Crash the lead controller of ``shard`` (thread stop + session
        expiry); default: the first locally hosted shard.

        Returns the name of the killed controller.  Followers detect the
        failure through session expiry and elect a new leader which resumes
        the shard's in-flight transactions from its persistent store.
        """
        self._require_started()
        if not self.threaded:
            raise ConfigurationError("kill_leader requires the threaded runtime")
        if shard is None:
            shard = self._local_shards[0]
        runner = self.leader_runner(shard)
        if runner is None:
            return None
        runner.stop()
        runner.join(timeout=2.0)
        self.ensemble.expire_session(runner.election_client.session_id)
        return runner.controller.name

    def live_controller_names(self, shard: int | None = None) -> list[str]:
        return [
            r.controller.name
            for r in self._controller_runners
            if r.is_alive() and (shard is None or r.shard == shard)
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _on_complete(self, txn: Transaction) -> None:
        with self._completion_lock:
            self.completed_transactions.append(txn)
            self._completed_index[txn.txid] = txn

    def _completed_lookup(self, txid: str) -> Transaction | None:
        """Terminal transaction from the in-process observer index, sparing
        a store read + document decode per wait (the store remains the
        source of truth for cross-process callers)."""
        with self._completion_lock:
            return self._completed_index.get(txid)

    def completed(self) -> list[Transaction]:
        with self._completion_lock:
            return list(self.completed_transactions)

    def latencies(self) -> list[float]:
        """Submit-to-terminal latencies of completed transactions, in seconds."""
        return [
            latency
            for txn in self.completed()
            if (latency := txn.latency()) is not None
        ]

    def controller_stats(self) -> dict[str, int]:
        """Controller counters, summed over all locally hosted shards."""
        stats: dict[str, int] = {}
        for shard in self._local_shards:
            for key, value in self.leader(shard).snapshot_stats().items():
                stats[key] = stats.get(key, 0) + value
        return stats

    def controller_busy_seconds(self) -> float:
        return sum(controller.busy_seconds() for controller in self.controllers)

    def resilience_stats(self) -> dict[str, int]:
        """Fault-tolerance counters (retries, token dedups, session
        expiries, watch re-arms, degraded reads) for reports and the CLI."""
        return self.resilience.as_dict()

    def model_view(self) -> DataModel:
        """A read view of the logical data model (see :meth:`fleet_view`).

        Single shard: the leader's live model (zero copies).  Sharded: a
        merged snapshot assembling every shard's *owned* second-level
        subtrees into one tree, where each shard's subtrees come from the
        in-process leader when the shard is locally hosted and from a read
        replica tailing the owner's committed log otherwise, so fleet
        reads work from any process (``local_shards`` gates only writes).

        Use :meth:`fleet_view` for the same view plus per-shard watermarks
        (which shards came from replicas, and at which applied-log
        position).

        Sharded views are assembled from O(1) copy-on-write forks of the
        shard models with shared-subtree grafts, and the merged tree is
        cached keyed on every source's version/watermark — an unchanged
        fleet serves each call with one O(1) fork, so this is safe to call
        in read inner loops.
        """
        return self.fleet_view().model

    def _view_cache_key(
        self,
        local_models: dict[int, DataModel],
        replicas: dict[int, ReadReplica],
    ) -> tuple:
        """The fleet-view cache key.

        Every shard 0..N-1 contributes an explicit ``(shard, kind, ...)``
        element — leader (model identity + version), replica
        (``applied_txn``, ``early_seq``, checkpoint presence) or partial —
        so source *transitions* (degraded shard healing, replica
        bootstrap appearing, fence early-applications) always miss the
        cache even when the surviving stamps coincide."""
        parts: list[tuple] = []
        for shard in range(self.config.num_shards):
            if shard in local_models:
                model = local_models[shard]
                parts.append((shard, "leader", model, model.version))
            elif shard in replicas:
                replica = replicas[shard]
                parts.append(
                    (
                        shard,
                        "replica",
                        replica.applied_txn,
                        replica.early_seq,
                        replica.has_checkpoint,
                    )
                )
            else:
                parts.append((shard, "partial"))
        return tuple(parts)

    def fleet_view(self) -> FleetView:
        """The merged fleet read view plus per-shard provenance.

        Returns a :class:`FleetView` whose ``watermarks`` name, for every
        shard, whether its subtrees came from the in-process leader
        (authoritative, live) or from a :class:`~repro.core.replica.
        ReadReplica` (bounded-stale), and — for replicas — the monotonic
        ``applied_txn`` watermark the copy reflects.

        Every shard takes the first source it has on one ladder: its
        in-process leader; else its read replica (a non-hosted shard, or
        a hosted shard whose leader is unreachable — disclosed in
        ``degraded_shards``); else this process's bootstrap-frozen copy,
        disclosed as ``partial``.  With no leader and no bootstrapped
        replica for any shard the read raises :class:`ShardUnavailable`.

        Replica-sourced views are **atomic across shards** with respect
        to cross-shard 2PC commits: before merging, the decision-log-aware
        read fence (:mod:`repro.core.readfence`) aligns the replica
        watermarks past any commit decision spanning them, so the view
        never contains exactly one participant's slice of a cross-shard
        transaction.
        """
        self._require_started()
        missing = [
            shard
            for shard in range(self.config.num_shards)
            if shard not in self.shards
        ]
        # Non-hosted shards stay disclosed as partial unless a replica
        # serves them below: bootstrap-frozen subtrees must be visible to
        # staleness audits, not silently absent.
        watermarks: dict[int, ShardWatermark] = {
            shard: ShardWatermark(shard, "partial") for shard in missing
        }
        local_leaders: dict[int, Controller] = {}
        local_models: dict[int, DataModel] = {}
        degraded: list[int] = []
        for shard in self._local_shards:
            try:
                leader = self.leader(shard)
            except (ConfigurationError, SessionExpiredError, QuorumLostError):
                # Hosted shard with no reachable leader: degrade this one
                # shard to its read replica, or to the partial
                # bootstrap-frozen copy, instead of failing the whole read.
                degraded.append(shard)
                watermarks[shard] = ShardWatermark(shard, "partial")
                continue
            if self.config.num_shards == 1:
                # The paper's deployment: the leader's live model, no copy.
                return FleetView(leader.model, {0: ShardWatermark(0, "leader")})
            local_leaders[shard] = leader
            local_models[shard] = leader.model
            watermarks[shard] = ShardWatermark(shard, "leader")
        if degraded:
            self._heal_sessions()
            self.resilience.degraded_reads += 1
        replicas: dict[int, ReadReplica] = {}
        for shard in sorted(set(missing) | set(degraded)):
            replica = self.read_proxy.replica(shard)
            try:
                replica.refresh()
            except ReproError:
                # Coordination unreachable: serve the replica's last
                # materialised state below, if it ever bootstrapped.
                pass
            if not replica.has_checkpoint:
                # The shard's store was never bootstrapped by any owner
                # process: the replica's empty model is a placeholder,
                # not "this shard owns nothing".  Keep this process's
                # bootstrap-frozen copy of the shard's units (partial,
                # disclosed in the watermark) rather than deleting them
                # from the view.
                continue
            replicas[shard] = replica
        # Decision-log-aware read fence: align the replica sources past
        # any cross-shard 2PC commit spanning them, so the merge below
        # cannot contain half of one.  Free when quiescent (no open
        # barriers -> no coordination reads).
        fence_degraded = False
        if replicas:
            fenced = fence_replica_sources(
                replicas, set(local_leaders), self.twopc
            )
            for shard in fenced.degraded:
                # Not advanceable: disclosed partial staleness for this
                # view beats a silent torn read.
                replicas.pop(shard, None)
            if fenced.degraded:
                # The degrade depends on decision-log reachability, which
                # the source stamps do not capture: such a view must not be
                # cached (nor served from the cache).
                fence_degraded = True
                if not degraded:  # count each view once
                    self.resilience.degraded_reads += 1
            for shard, replica in replicas.items():
                watermarks[shard] = ShardWatermark(
                    shard, "replica", replica.applied_txn
                )
        # The merged tree is cached keyed on every shard's source *kind
        # and* change stamp: model objects compare by identity, so a
        # leader's version counter (bumped by each mutation entry point)
        # and a replica's watermark pair (applied_txn, early_seq — early
        # fence applications change the model without moving applied_txn)
        # pin the exact states the cached merge was built from, while the
        # explicit kind keeps a view computed under degraded/partial
        # sourcing from ever being served for a healed shard (or vice
        # versa).  An unchanged fleet serves each view with one O(1) fork
        # of the cached tree; any change rebuilds the merge (itself only
        # O(units) pointer grafts over copy-on-write forks, never a deep
        # copy).
        cache_key = self._view_cache_key(local_models, replicas)
        cached = self._view_cache
        if not fence_degraded and cached is not None and cached[0] == cache_key:
            return FleetView(
                model=cached[1].clone(),
                watermarks=watermarks,
                degraded_shards=sorted(degraded),
            )
        # Fork under each leader's op mutex: the fork swaps the live
        # model's ownership epoch, which must not race an in-flight step's
        # ownership checks (the fork still shows dispatched transactions'
        # simulated effects, like the leader's own reads always have).
        sources: dict[int, DataModel] = {
            shard: leader.fork_model() for shard, leader in local_leaders.items()
        }
        snapshot_failed = False
        for shard, replica in list(replicas.items()):
            # A locked snapshot, not the live model: another thread's
            # concurrent refresh mutates the replica model in place, and
            # merging from it could capture a half-applied transaction.
            # The snapshot is an O(1) copy-on-write fork under the lock,
            # consistent with the watermark that stamps it.
            try:
                sources[shard], applied_txn = replica.snapshot()
            except ReproError:
                # The snapshot's own catch-up hit dead coordination; this
                # shard falls back to partial for this view only.
                del replicas[shard]
                watermarks[shard] = ShardWatermark(shard, "partial")
                snapshot_failed = True
                continue
            watermarks[shard] = ShardWatermark(shard, "replica", applied_txn)
        if not sources:
            raise ShardUnavailable(
                "no shard source reachable for a fleet view (no live leader "
                "and no bootstrapped read replica)",
                shards=sorted(set(missing) | set(degraded)),
            )
        # Base the merge on the first *authoritative* local source; when
        # every local shard is degraded, any replica source can serve as
        # the base (replicas also hold the full bootstrap tree).
        authoritative = [s for s in self._local_shards if s in sources]
        first_shard = authoritative[0] if authoritative else min(sources)
        view = sources[first_shard].clone()
        # Refresh (or drop) units in the base fork that another shard
        # owns.  Grafts share the owner fork's subtrees: no unit is
        # deep-copied.
        for top_name in list(view.root.children):
            for child_name in list(view.root.children[top_name].children):
                path = f"/{top_name}/{child_name}"
                owner = self.shard_router.shard_of(path)
                if owner == first_shard:
                    continue
                owner_model = sources.get(owner)
                if owner_model is None:
                    continue  # partial: foreign copy stays bootstrap-frozen
                if owner_model.exists(path):
                    view.replace_subtree(path, owner_model.get(path))
                else:
                    view.delete(path, recursive=True)
        # Add units the owner created after bootstrap (absent from the
        # base).
        for shard, model in sources.items():
            if shard == first_shard:
                continue
            for top_name, top in model.root.children.items():
                if top_name not in view.root.children:
                    continue
                for child_name in top.children:
                    path = f"/{top_name}/{child_name}"
                    if self.shard_router.shard_of(path) == shard and not view.exists(path):
                        view.replace_subtree(path, model.get(path))
        if not snapshot_failed and not fence_degraded:
            # A view missing a replica that failed to snapshot must not be
            # cached under a key that claims the replica's state; a fenced
            # degrade is view-local and equally uncacheable.
            self._view_cache = (cache_key, view)
        return FleetView(
            model=view.clone(),
            watermarks=watermarks,
            degraded_shards=sorted(degraded),
        )

    def resource_count(self) -> int:
        return self.model_view().count()

    # ------------------------------------------------------------------

    def _heal_sessions(self) -> None:
        """Re-establish the platform's shared coordination session after an
        expiry.  Every store, queue and lazily built read replica rides the
        one shared client, so a single reconnect heals them all; the
        double-checked lock keeps concurrent healers (controller + worker
        runners noticing the expiry together) from stacking orphan
        sessions.  Watches registered under the dead session are gone —
        their owners (read replicas) re-arm on their next operation; queue
        consumers hold no watch and re-list the queue every step.
        """
        client = self.client
        if client is None or client.is_live():
            return
        # repro: allow(blocking-under-lock) -- double-checked heal: every healer must block behind the one in-flight reconnect, or each would bump the session epoch and invalidate the others' work
        with self._heal_lock:
            if not client.is_live():
                client.reconnect()
                self.resilience.session_expiries += 1

    def _require_started(self) -> None:
        if not self._started:
            raise ConfigurationError("platform is not started; call start() first")

    def __repr__(self) -> str:
        mode = "threaded" if self.threaded else "inline"
        return (
            f"<TropicPlatform {mode} shards={self.config.num_shards} "
            f"controllers={len(self.controllers)} workers={len(self.workers)}>"
        )
