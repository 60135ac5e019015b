"""A deterministic N-shard controller cluster for tests.

Integration tests used to hand-roll ensemble + store + queue + controller
wiring per test module.  :class:`ShardedCluster` builds the same topology
the platform does — per-shard namespaced stores, inputQ/phyQ and
controllers over one in-process coordination ensemble — but exposes the
pieces individually, with deterministic inline stepping, crash/replace
controls and optional fault injection (:mod:`repro.testing.faults`).

A "crash" is modelled the way a process death looks to the rest of the
system: the controller instance (all soft state, the store facade's cached
applied-log sequence number included) is abandoned and a brand-new replica
with a brand-new store facade takes over the shard, recovering purely from
the coordination store.
"""

from __future__ import annotations

from typing import Any

from repro.common.config import TropicConfig
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.controller import Controller
from repro.core.persistence import TropicStore
from repro.core.platform import shard_queue_path, shard_store_prefix
from repro.core.reconcile import Reconciler
from repro.core.sharding import ShardMap, ShardRouter
from repro.core.submission import submit_batch
from repro.core.twopc import TWOPC_PREFIX, TwoPCLog, locate_transaction
from repro.core.txn import Transaction, TransactionState
from repro.core.worker import Worker
from repro.testing.faults import (
    CrashPoint,
    FaultInjector,
    FaultyKVStore,
    FaultyQueue,
    FaultyTropicStore,
)
from repro.tcloud.entities import build_schema
from repro.tcloud.inventory import build_inventory
from repro.tcloud.procedures import build_procedures


class ShardedCluster:
    """N controller shards over one coordination ensemble, stepped inline."""

    def __init__(
        self,
        num_shards: int = 1,
        num_vm_hosts: int = 4,
        num_storage_hosts: int = 2,
        host_mem_mb: int = 8192,
        config: TropicConfig | None = None,
        cross_shard_policy: str = "2pc",
        with_devices: bool = True,
        injector: FaultInjector | None = None,
        faulty_shards: tuple[int, ...] = (),
        ensemble: CoordinationEnsemble | None = None,
    ):
        self.num_shards = num_shards
        #: Injectable so chaos scenarios can substitute a
        #: :class:`~repro.testing.faults.FaultyEnsemble` with a scheduled
        #: ensemble-fault plan.
        self.ensemble = ensemble or CoordinationEnsemble(
            num_servers=3, default_session_timeout=3600.0
        )
        self.client = CoordinationClient(self.ensemble)
        self.config = (config or TropicConfig()).with_overrides(
            num_shards=num_shards, cross_shard_policy=cross_shard_policy
        )
        self.schema = build_schema()
        self.procedures = build_procedures()
        self.inventory = build_inventory(
            num_vm_hosts=num_vm_hosts,
            num_storage_hosts=num_storage_hosts,
            host_mem_mb=host_mem_mb,
            with_devices=with_devices,
        )
        # Same co-location scheme as build_tcloud: a storage host shares a
        # shard with every compute host whose images it serves.
        from repro.tcloud.service import tcloud_shard_assignments

        assignments = (
            tcloud_shard_assignments(self.inventory, num_shards) if num_shards > 1 else {}
        )
        self.router = ShardRouter(ShardMap(num_shards, assignments), cross_shard_policy)
        self.injector = injector or FaultInjector()
        self.faulty_shards = set(faulty_shards)
        #: Global 2PC decision log + checkpoint horizons (shared by all
        #: shards; prepare admission itself is wound-wait, fully local).
        self.twopc = TwoPCLog(KVStore(self.client, TWOPC_PREFIX))

        #: Reference (never-faulty) store per shard, used by workers and by
        #: test assertions.
        self.stores: dict[int, TropicStore] = {}
        self.input_queues: dict[int, DistributedQueue] = {}
        self.phy_queues: dict[int, DistributedQueue] = {}
        self.controllers: dict[int, Controller] = {}
        self.workers: dict[int, Worker] = {}
        #: Terminal transactions whose completion was delivered to the
        #: client observer — the "acknowledged" set a failover must keep.
        self.acked: list[Transaction] = []
        self.submitted: list[Transaction] = []
        self._generation = 0

        # Two passes: every shard's queues must exist before any controller
        # is wired (controllers snapshot the peer-queue map for 2PC).
        for shard in self.shard_ids:
            store = self._plain_store(shard)
            self.stores[shard] = store
            self.input_queues[shard] = DistributedQueue(
                self.client, shard_queue_path(shard, num_shards, "inputQ")
            )
            self.phy_queues[shard] = DistributedQueue(
                self.client, shard_queue_path(shard, num_shards, "phyQ")
            )
            store.save_checkpoint(self.inventory.model, 0)
        for shard in self.shard_ids:
            self.controllers[shard] = self.new_controller(shard)
            self.workers[shard] = Worker(
                f"worker-{shard}",
                self.stores[shard],
                self.phy_queues[shard],
                self.input_queues[shard],
                self.inventory.registry,
                config=self.config,
            )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def shard_ids(self) -> list[int]:
        return list(range(self.num_shards))

    def _plain_store(self, shard: int) -> TropicStore:
        kwargs: dict[str, Any] = {}
        if self.num_shards > 1:
            kwargs = {"shard_id": shard, "num_shards": self.num_shards}
        prefix = shard_store_prefix(shard, self.num_shards)
        return TropicStore(KVStore(self.client, prefix), **kwargs)

    def new_controller(self, shard: int, faulty: bool | None = None) -> Controller:
        """A fresh controller replica for ``shard`` (a newly elected leader
        with no memory of its predecessor).  ``faulty`` defaults to whether
        the shard is listed in ``faulty_shards``; successors created by
        :meth:`replace_controller` are always clean."""
        if faulty is None:
            faulty = shard in self.faulty_shards
        self._generation += 1
        stamp: dict[str, Any] = {}
        if self.num_shards > 1:
            stamp = {"shard_id": shard, "num_shards": self.num_shards}
        if faulty:
            store = FaultyTropicStore(
                FaultyKVStore(
                    self.client, shard_store_prefix(shard, self.num_shards), self.injector
                ),
                self.injector,
                **stamp,
            )
            input_queue: DistributedQueue = FaultyQueue(
                self.client, shard_queue_path(shard, self.num_shards, "inputQ"), self.injector
            )
        else:
            store = self._plain_store(shard)
            input_queue = self.input_queues[shard]
        return Controller(
            name=f"ctrl-{shard}-{self._generation}",
            config=self.config,
            store=store,
            input_queue=input_queue,
            phy_queue=self.phy_queues[shard],
            schema=self.schema,
            procedures=self.procedures,
            on_complete=self._on_complete,
            shard_id=shard,
            router=self.router if self.num_shards > 1 else None,
            peer_queues=self.input_queues if self.num_shards > 1 else None,
            twopc=self.twopc if self.num_shards > 1 else None,
            fault_hook=self.injector.hit if faulty else None,
        )

    def replace_controller(self, shard: int) -> Controller:
        """Fail the shard over to a fresh, clean replica."""
        self.controllers[shard] = self.new_controller(shard, faulty=False)
        return self.controllers[shard]

    def _on_complete(self, txn: Transaction) -> None:
        self.acked.append(txn)

    # ------------------------------------------------------------------
    # Submission (through the platform's submission protocol)
    # ------------------------------------------------------------------

    def endpoint(self, shard: int) -> tuple[TropicStore, DistributedQueue]:
        """The ``(store, inputQ)`` a submission to ``shard`` writes."""
        return self.stores[shard], self.input_queues[shard]

    def submit(self, procedure: str, args: dict[str, Any]) -> Transaction:
        (entry,) = submit_batch(self.router, self.endpoint, [(procedure, args)], [None], 0.0)
        self.submitted.append(entry.txn)
        return entry.txn

    def submit_cross_spawn(self, vm_name: str, vm_host_index: int = 0,
                           mem_mb: int = 512) -> Transaction:
        """Submit a spawnVM that provably spans two shards: the VM goes to
        ``vm_host_index``'s compute host while its disk image goes to a
        storage host owned by a *different* shard."""
        vm_host = self.inventory.vm_hosts[vm_host_index % len(self.inventory.vm_hosts)]
        home = self.router.shard_of(vm_host)
        foreign = [
            host for host in self.inventory.storage_hosts
            if self.router.shard_of(host) != home
        ]
        if not foreign:
            raise AssertionError("no storage host on a foreign shard; "
                                 "use more shards or hosts")
        return self.submit(
            "spawnVM",
            {
                "vm_name": vm_name,
                "image_template": "template-small",
                "storage_host": foreign[0],
                "vm_host": vm_host,
                "mem_mb": mem_mb,
            },
        )

    def submit_spawn(
        self,
        vm_name: str,
        host_index: int = 0,
        mem_mb: int = 512,
        template: str = "template-small",
        vm_host: str | None = None,
        storage_host: str | None = None,
    ) -> Transaction:
        """Submit a spawnVM pinned to a compute host and its paired storage
        host (single-shard by construction of the shard map)."""
        host_index %= len(self.inventory.vm_hosts)
        if vm_host is None:
            vm_host = self.inventory.vm_hosts[host_index]
        if storage_host is None:
            storage_host = self.inventory.storage_host_for(host_index)
        return self.submit(
            "spawnVM",
            {
                "vm_name": vm_name,
                "image_template": template,
                "storage_host": storage_host,
                "vm_host": vm_host,
                "mem_mb": mem_mb,
            },
        )

    def shard_of(self, path_or_txn: "str | Transaction") -> int:
        if isinstance(path_or_txn, Transaction):
            return self.router.resolve(path_or_txn.procedure, path_or_txn.args)
        return self.router.shard_of(path_or_txn)

    # ------------------------------------------------------------------
    # Inline driving
    # ------------------------------------------------------------------

    def queues_empty(self) -> bool:
        return all(
            self.input_queues[s].is_empty() and self.phy_queues[s].is_empty()
            for s in self.shard_ids
        )

    def step_all(self, failover: bool = False) -> bool:
        """One stepping round over every shard's controller and worker.

        With ``failover=True`` an injected :class:`CrashPoint` on a shard's
        controller is treated as that replica dying: it is replaced with a
        fresh clean replica, and stepping continues.
        """
        progressed = False
        for shard in self.shard_ids:
            try:
                if self.controllers[shard].step():
                    progressed = True
            except CrashPoint:
                if not failover:
                    raise
                self.replace_controller(shard)
                progressed = True
            if self.workers[shard].step():
                progressed = True
        return progressed

    def drain(self, max_rounds: int = 10_000, failover: bool = False) -> None:
        """Step all shards to quiescence (optionally failing over crashes)."""
        for _ in range(max_rounds):
            progressed = self.step_all(failover=failover)
            if not progressed and self.queues_empty():
                return
        raise AssertionError("cluster did not quiesce")

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------

    def model(self, shard: int = 0):
        return self.controllers[shard].model

    def load(self, txn: "Transaction | str") -> Transaction | None:
        """Load a transaction document, preferring the coordinator's copy
        for cross-shard transactions (participants hold prepare-record
        slices under the same txid in their own stores)."""
        txid = txn.txid if isinstance(txn, Transaction) else txn
        found = locate_transaction(self.stores, txid)
        return None if found is None else found[1]

    def state_of(self, txn: "Transaction | str") -> TransactionState | None:
        loaded = self.load(txn)
        return None if loaded is None else loaded.state

    def reconciler(self, shard: int = 0) -> Reconciler:
        return Reconciler(self.controllers[shard], self.inventory.registry)

    def owned_hosts(self, shard: int) -> list[str]:
        """Host paths (compute + storage) owned by ``shard`` — the scope a
        sharded reconciler may compare against the devices (a shard's model
        holds bootstrap-frozen copies of foreign subtrees by design)."""
        return [
            path
            for path in [*self.inventory.vm_hosts, *self.inventory.storage_hosts]
            if self.router.shard_of(path) == shard
        ]

    def detect_is_clean(self, shard: int = 0) -> bool:
        """Cross-layer agreement over the shard's owned subtrees."""
        if self.num_shards == 1:
            return self.reconciler(shard).detect().is_empty
        reconciler = self.reconciler(shard)
        return all(reconciler.detect(path).is_empty for path in self.owned_hosts(shard))

    def __repr__(self) -> str:
        return f"<ShardedCluster shards={self.num_shards} gen={self._generation}>"
