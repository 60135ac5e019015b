"""Cross-shard two-phase commit (PR 3 tentpole).

A transaction spanning two controller shards must be atomic, isolated and
recoverable at cross-shard scope: the coordinator simulates and locks, the
participants validate and durably prepare their log slices, and every
protocol message (prepare, vote, decision, wound) commits in the same
``multi`` as the state that sends it; a commit decision is also logged in
the global coordination namespace for the read fence.

The fault matrix here crashes the coordinator *and* the participant at
every 2PC protocol edge (pre-decision and the wound-wait edges) plus every
generic controller failure point (pre-commit, post-commit, pre-checkpoint),
fails the shard over, and asserts:

* the cross-shard transaction is atomic — effects exist on *both* owner
  shards or on neither, matching its terminal state;
* no acknowledged transaction is lost or double-applied;
* single-shard traffic is never disturbed;
* no locks leak and no lingering wound state survives quiescence.
"""

import json

import pytest

from repro.common.config import TropicConfig
from repro.core.txn import TransactionState
from repro.coordination.kvstore import KVStore
from repro.core.events import execute_message
from repro.testing import (
    ALL_FAILURE_POINTS,
    POST_COMMIT,
    PRE_COMMIT,
    CrashPoint,
    FaultInjector,
    ShardedCluster,
)

_CONFIG = TropicConfig(checkpoint_every=1)


def _cluster(injector=None, faulty_shards=()):
    return ShardedCluster(
        num_shards=2,
        cross_shard_policy="2pc",
        config=_CONFIG,
        with_devices=True,
        injector=injector,
        faulty_shards=faulty_shards,
    )


def _cross_effects(cluster, txn):
    """(vm_present, image_present) as seen by the respective owner shards."""
    vm_host = txn.args["vm_host"]
    storage_host = txn.args["storage_host"]
    vm_owner = cluster.router.shard_of(vm_host)
    storage_owner = cluster.router.shard_of(storage_host)
    vm_name = txn.args["vm_name"]
    return (
        cluster.model(vm_owner).exists(f"{vm_host}/{vm_name}"),
        cluster.model(storage_owner).exists(f"{storage_host}/{vm_name}-disk"),
    )


def assert_cross_shard_atomic(cluster, txn):
    """Committed => effects on both owner shards; otherwise on neither."""
    state = cluster.state_of(txn)
    vm_there, image_there = _cross_effects(cluster, txn)
    assert vm_there == image_there, (
        f"{txn.txid} half-applied: vm={vm_there} image={image_there}"
    )
    if state is TransactionState.COMMITTED:
        assert vm_there and image_there
    else:
        assert state in (TransactionState.ABORTED, TransactionState.FAILED)
        assert not vm_there and not image_there


def assert_clean(cluster):
    for shard in cluster.shard_ids:
        assert cluster.controllers[shard].lock_manager.active_transactions() == set()
        assert cluster.controllers[shard].outstanding == {}


def _free_capacity(cluster, shard, storage_host):
    """``freeCapacity`` of ``storage_host`` as shard ``shard``'s model sees it."""
    model = cluster.model(shard)
    query = cluster.schema.get("storageHost").get_query("freeCapacity")
    return query.func(model, model.get(storage_host))


class TestParticipantConstraintRecheck:
    """The participant is the authority on its own subtrees: a slice that
    applies cleanly to the coordinator's stale foreign copy but violates a
    constraint on the participant's authoritative model is undone there,
    its locks are released, and the participant votes no with the reason."""

    def test_a_violating_slice_is_undone_and_voted_down(self):
        cluster = _cluster()
        probe = cluster.submit_cross_spawn("probe")
        home, storage = probe.coordinator, probe.args["storage_host"]
        remote = cluster.shard_of(storage)
        cluster.drain()
        # Fill the storage host through its owner: the coordinator's copy
        # of it still shows the free space.
        free = _free_capacity(cluster, remote, storage)
        filler = cluster.submit(
            "createVolume",
            {"storage_host": storage, "volume_name": "filler", "size_gb": free - 1.0},
        )
        cluster.drain()
        assert cluster.state_of(filler) is TransactionState.COMMITTED
        assert _free_capacity(cluster, home, storage) > 8.0
        before = cluster.model(remote).to_dict()

        txn = cluster.submit_cross_spawn("vm1")
        cluster.controllers[home].step()  # simulate, lock, prepare
        cluster.controllers[remote].step()  # apply the slice, re-check, vote
        (vote,) = [
            item for _, item in cluster.input_queues[home].take_many(100)
            if item.get("kind") == "vote" and item.get("txid") == txn.txid
        ]
        participant = cluster.controllers[remote]
        assert vote["vote"] == "no"
        assert vote["reason"].startswith("constraint violation on participant")
        assert participant.model.to_dict() == before
        assert participant.lock_manager.locks_of(txn.txid) == {}
        assert txn.txid not in participant.outstanding

        cluster.drain()
        final = cluster.load(txn)
        assert final.state is TransactionState.ABORTED
        assert f"participant {remote} voted no: constraint violation" in final.error
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)


class TestTwoPhaseCommitHappyPath:
    def test_cross_shard_transaction_commits_atomically(self):
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("crossy")
        assert txn.is_cross_shard and txn.coordinator == min(txn.participants)
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert_cross_shard_atomic(cluster, txn)
        # Both shards hold a committed document under the same txid: the
        # coordinator's full record and the participant's prepare slice.
        for shard in txn.participants:
            doc = cluster.stores[shard].load_transaction(txn.txid)
            assert doc is not None and doc.state is TransactionState.COMMITTED
        assert cluster.twopc.decision(txn.txid) == "commit"
        assert_clean(cluster)

    def test_owner_shard_sees_the_foreign_write(self):
        """The pin visibility hazard is gone under 2pc: the storage host's
        *owner* observes the image a foreign-coordinated spawn created."""
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("visible")
        cluster.drain()
        storage_host = txn.args["storage_host"]
        owner = cluster.router.shard_of(storage_host)
        assert owner != txn.coordinator
        assert cluster.model(owner).exists(f"{storage_host}/visible-disk")

    def test_constraint_violation_on_participant_aborts_both_shards(self):
        """The participant validates against its authoritative model: an
        oversized spawn aborts with zero effects anywhere."""
        cluster = ShardedCluster(
            num_shards=2, cross_shard_policy="2pc", host_mem_mb=1024
        )
        txn = cluster.submit_cross_spawn("whale", mem_mb=4096)
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.ABORTED
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_mixed_workload_drains_clean(self):
        cluster = _cluster()
        local = [cluster.submit_spawn(f"l{i}", host_index=i % 4) for i in range(4)]
        cross = [cluster.submit_cross_spawn(f"x{i}", vm_host_index=i % 4)
                 for i in range(3)]
        cluster.drain()
        for txn in local:
            assert cluster.state_of(txn) is TransactionState.COMMITTED
        for txn in cross:
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_prepare_fan_out_commits_with_the_preparing_record(self):
        """The coordinator's PREPARING document and its prepare requests
        commit in one ``multi``: no participant ever sees a prepare whose
        record is not durable, and no PREPARING record waits for a prepare
        that was never sent."""
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("ordered")
        participant = next(s for s in txn.participants if s != txn.coordinator)
        doc_key = cluster.stores[txn.coordinator].kv.full_key(f"txns/{txn.txid}")
        prepare_prefix = f"{cluster.input_queues[participant].path}/item-"
        carriers = []
        real_multi = cluster.client.multi

        def multi(ops):
            kinds = {
                "doc": [json.loads(data)["state"] for kind, path, data in ops
                        if kind == "upsert" and path == doc_key],
                "prepare": [json.loads(data)["txid"] for kind, path, data in ops
                            if kind == "create_seq" and path == prepare_prefix
                            and json.loads(data)["kind"] == "prepare"],
            }
            if kinds["prepare"]:
                carriers.append(kinds)
            return real_multi(ops)

        cluster.client.multi = multi
        cluster.drain()

        assert carriers == [{"doc": ["preparing"], "prepare": [txn.txid]}]
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_single_shard_collapse_uses_fast_path(self):
        """A nominally cross-shard submission whose simulation touches one
        shard only downgrades to the ordinary dispatch (pin fast path)."""
        cluster = _cluster()
        # Same-shard vm+storage, but force the 2PC stamping as if routing
        # had seen foreign paths.
        txn = cluster.submit_spawn("collapsed", host_index=0)
        txn2 = cluster.stores[cluster.shard_of(txn)].load_transaction(txn.txid)
        assert not txn2.is_cross_shard  # routing already collapsed it
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED


class TestTwoPhaseCommitFaultMatrix:
    """Crash the coordinator shard (0) or the participant shard (1) at
    every named failure point and assert atomic, clean recovery."""

    @pytest.mark.parametrize("faulty_shard", [0, 1])
    @pytest.mark.parametrize("point", ALL_FAILURE_POINTS)
    def test_crash_recovers_atomically(self, point, faulty_shard):
        injector = FaultInjector().arm(point, 0)
        cluster = _cluster(injector=injector, faulty_shards=(faulty_shard,))
        local = [cluster.submit_spawn(f"l{i}", host_index=i % 4) for i in range(2)]
        cross = cluster.submit_cross_spawn("crossy")
        cluster.drain(failover=True)

        # Single-shard traffic commits regardless of the crash.
        for txn in local:
            assert cluster.state_of(txn) is TransactionState.COMMITTED

        # The cross-shard transaction is atomic in every outcome.
        assert_cross_shard_atomic(cluster, cross)

        # Acknowledged outcomes are never lost: whatever the client was
        # told still matches the stores after failover.
        for acked in cluster.acked:
            final = cluster.state_of(acked)
            assert final is acked.state, (
                f"{acked.txid} acknowledged {acked.state} but recovered {final}"
            )

        # Devices agree with the logical layer on every owned subtree.
        for shard in cluster.shard_ids:
            assert cluster.detect_is_clean(shard)
        assert_clean(cluster)

    @pytest.mark.parametrize("point,faulty_shard", [("2pc-pre-decision", 0)])
    def test_twopc_points_actually_fire(self, point, faulty_shard):
        """Each protocol edge a lone cross-shard spawn passes is reachable
        in its role (the wound-wait edges need contention; see
        tests/property/test_wound_wait.py)."""
        injector = FaultInjector().arm(point, 0)
        cluster = _cluster(injector=injector, faulty_shards=(faulty_shard,))
        cluster.submit_cross_spawn("crossy")
        cluster.drain(failover=True)
        assert [crash.point for crash in injector.fired] == [point]

    def test_a_coordinator_crash_after_its_prepare_commit_resumes(self):
        """A coordinator that dies right after the commit carrying its
        PREPARING record and prepares is restored PREPARING by the
        successor (its prepare is queued at the participant), so the
        transaction commits: no presumed abort, no decision record but the
        commit's."""
        injector = FaultInjector()
        cluster = _cluster(injector=injector, faulty_shards=(0,))
        cross = cluster.submit_cross_spawn("resumed")
        coordinator = cluster.controllers[0]
        coordinator.recover()
        injector.arm(POST_COMMIT, injector.hits(POST_COMMIT))
        with pytest.raises(CrashPoint):
            coordinator.step()
        assert cluster.stores[0].load_transaction(cross.txid).state is (
            TransactionState.PREPARING
        )
        cluster.replace_controller(0)
        cluster.drain()
        assert cluster.state_of(cross) is TransactionState.COMMITTED
        assert cluster.twopc.decision(cross.txid) == "commit"
        assert_cross_shard_atomic(cluster, cross)
        assert_clean(cluster)


class TestDispatch:
    """A STARTED state and its phyQ execute item commit in one ``multi``;
    the execute item carries the log, and a worker's claim makes a
    duplicate item inert."""

    def test_dispatched_transaction_executes_with_its_document_deleted(self):
        """The worker runs the log the execute message carries; it never
        reads the document the leader just wrote."""
        cluster = ShardedCluster(num_shards=1)
        txn = cluster.submit_spawn("nodoc")
        controller = cluster.controllers[0]
        while controller.step():
            pass
        assert cluster.state_of(txn) is TransactionState.STARTED
        cluster.stores[0].delete_transaction(txn.txid)
        assert cluster.workers[0].step()
        device = cluster.inventory.registry.device_at(txn.args["vm_host"])
        assert device.vm_state("nodoc") == "running"
        [(_, result)] = cluster.input_queues[0].take_many(10)
        assert (result["txid"], result["outcome"]) == (txn.txid, "committed")

    def test_claimed_transaction_finishes_under_a_successor(self):
        """A worker claimed and executed the item before the leader died:
        the successor re-dispatches nothing, and the result commits it.
        The claim outlives the commit until the next quiesce-point
        checkpoint collects it."""
        cluster = ShardedCluster(num_shards=1)
        txn = cluster.submit_spawn("claimed")
        controller = cluster.controllers[0]
        while controller.step():
            pass
        assert cluster.state_of(txn) is TransactionState.STARTED
        assert cluster.workers[0].step()  # claims, executes, sends result
        assert cluster.stores[0].load_claim(txn.txid) is not None
        successor = cluster.replace_controller(0)
        cluster.drain()
        assert cluster.workers[0].transactions_processed == 1
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        device = cluster.inventory.registry.device_at(txn.args["vm_host"])
        assert device.vm_state("claimed") == "running"
        # Nothing is in flight, so the quiesce-point checkpoint may run.
        assert cluster.stores[0].load_claim(txn.txid) is not None
        assert successor.checkpoint()
        assert cluster.stores[0].load_claim(txn.txid) is None
        assert cluster.reconciler().detect().is_empty

    def test_duplicate_dispatch_executes_once(self):
        """A duplicate execute message (two workers racing for one item
        look the same to the claim) is made inert by the claim
        create-if-absent."""
        cluster = ShardedCluster(num_shards=1)
        txn = cluster.submit_spawn("dup")
        controller = cluster.controllers[0]
        while controller.step():
            pass
        # Inject a duplicate execute message by hand, carrying the log as
        # a real (re-)dispatch does.
        log = cluster.stores[0].load_transaction(txn.txid).log.to_dict()
        cluster.phy_queues[0].put(execute_message(txn.txid, log, epoch=99))
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        worker = cluster.workers[0]
        assert worker.transactions_processed == 1
        assert worker.duplicate_dispatches_skipped == 1
        device = cluster.inventory.registry.device_at(txn.args["vm_host"])
        assert device.vm_state("dup") == "running"


class TestDecisionCommitsWithTheCoordinator:
    """The coordinator's COMMIT decision rides the same ``multi`` as its
    COMMITTED document and applied-log entry: a commit that fails after
    the result was handled loses all of them together, and the
    redelivered result commits the transaction exactly once."""

    def test_failed_commit_after_the_result_leaves_no_decision(self):
        # The applied log stays whole: no checkpoint truncates it.
        cluster = ShardedCluster(
            num_shards=2,
            cross_shard_policy="2pc",
            config=TropicConfig(checkpoint_every=100_000),
            with_devices=True,
        )
        txn = cluster.submit_cross_spawn("torn")
        shard = txn.coordinator
        store = cluster.stores[shard]
        for _ in range(50):
            if store.load_transaction(txn.txid).state is TransactionState.STARTED:
                break
            for other in cluster.shard_ids:
                cluster.controllers[other].step()
        assert store.load_transaction(txn.txid).state is TransactionState.STARTED
        assert cluster.workers[shard].step()  # posts the COMMITTED result

        client = cluster.client
        real_multi = client.multi

        def fail_once(ops):
            client.multi = real_multi
            raise ConnectionError("injected commit failure")

        client.multi = fail_once
        with pytest.raises(ConnectionError):
            cluster.controllers[shard].step()

        # Neither the decision nor the commit is durable.
        assert cluster.twopc.decision(txn.txid, shard) is None
        assert store.load_transaction(txn.txid).state is TransactionState.STARTED
        assert txn.txid not in store.applied_since(0)

        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        assert [t.txid for t in cluster.acked].count(txn.txid) == 1
        for participant in txn.participants:
            assert cluster.stores[participant].applied_since(0).count(txn.txid) == 1
        decisions = cluster.twopc.kv
        holders = [
            directory
            for directory in decisions.keys("decisions")
            if txn.txid in decisions.keys(f"decisions/{directory}")
        ]
        assert holders == [f"shard-{shard}"]
        assert cluster.twopc.decision(txn.txid, shard) == "commit"
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)


class TestDecisionRecordGC:
    """Decision-record retention (the former ROADMAP open item): records in
    ``/tropic/2pc/decisions`` are mark-and-swept once every participating
    shard has completed a quiesce-point checkpoint after the decision —
    piggybacked on the checkpoint like the worker-claim GC, so nothing
    rides the per-commit write path."""

    def _checkpoint_all(self, cluster):
        for shard in cluster.shard_ids:
            assert cluster.controllers[shard].checkpoint()

    def test_resolved_decision_is_swept_after_two_checkpoint_rounds(self):
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("gc-me")
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        # Mark (coordinator's checkpoint) + horizon publication round, then
        # a sweep round once every participant's horizon moved past it.
        self._checkpoint_all(cluster)
        self._checkpoint_all(cluster)
        assert cluster.twopc.decision(txn.txid) is None
        horizons = cluster.twopc.horizons()
        assert set(horizons) == set(cluster.shard_ids)

    def test_gcd_decision_is_never_needed_by_recovery(self):
        """After the decision is swept, both shards fail over and recover
        to the same committed state: resolved transactions (terminal
        documents everywhere) never consult the decision log."""
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("gc-recover")
        cluster.drain()
        self._checkpoint_all(cluster)
        self._checkpoint_all(cluster)
        assert cluster.twopc.decision(txn.txid) is None
        before = {s: cluster.model(s).to_dict() for s in cluster.shard_ids}
        for shard in cluster.shard_ids:
            cluster.replace_controller(shard)
        cluster.drain()
        for shard in cluster.shard_ids:
            assert cluster.model(shard).to_dict() == before[shard]
            doc = cluster.stores[shard].load_transaction(txn.txid)
            assert doc is not None and doc.state is TransactionState.COMMITTED
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_unresolved_participant_blocks_the_sweep(self):
        """A participant that has not checkpointed past the mark keeps the
        record alive — the retention invariant that makes the GC safe."""
        # No automatic checkpoints: only the explicit ones below publish
        # horizons, so the participant's silence is actually observable.
        cluster = ShardedCluster(
            num_shards=2,
            cross_shard_policy="2pc",
            config=TropicConfig(checkpoint_every=100_000),
        )
        txn = cluster.submit_cross_spawn("kept")
        cluster.drain()
        participant = next(s for s in txn.participants if s != txn.coordinator)
        coordinator = cluster.controllers[txn.coordinator]
        # Only the coordinator checkpoints: mark happens, sweep must not.
        assert coordinator.checkpoint()
        assert coordinator.checkpoint()
        assert cluster.twopc.decision(txn.txid) == "commit"
        # Once the participant checkpoints twice (past the mark), the
        # coordinator's next checkpoint sweeps.
        assert cluster.controllers[participant].checkpoint()
        assert coordinator.checkpoint()
        assert cluster.twopc.decision(txn.txid) is None


class TestPrepareDeadline:
    """Prepare-phase deadline (the former ROADMAP open item): a coordinator
    stuck in PREPARING past ``config.prepare_timeout`` — e.g. a participant
    shard down with no replica to fail over to — presumed-aborts and frees
    its prepare locks."""

    _DEADLINE_CONFIG = TropicConfig(checkpoint_every=1, prepare_timeout=0.02)

    def _stuck_coordinator(self, injector=None, faulty_shards=()):
        cluster = ShardedCluster(
            num_shards=2,
            cross_shard_policy="2pc",
            config=self._DEADLINE_CONFIG,
            injector=injector,
            faulty_shards=faulty_shards,
        )
        txn = cluster.submit_cross_spawn("stuck")
        coordinator = cluster.controllers[txn.coordinator]
        # Step ONLY the coordinator: the prepare fans out, but the silent
        # participant shard never votes.
        while coordinator.step():
            pass
        doc = cluster.stores[txn.coordinator].load_transaction(txn.txid)
        assert doc.state is TransactionState.PREPARING
        assert txn.txid in coordinator.lock_manager.active_transactions()
        return cluster, txn, coordinator

    def test_stuck_coordinator_presumed_aborts_and_frees_its_locks(self):
        import time

        cluster, txn, coordinator = self._stuck_coordinator()
        time.sleep(0.03)  # past prepare_timeout
        assert coordinator.step()
        assert cluster.state_of(txn) is TransactionState.ABORTED
        assert cluster.twopc.decision(txn.txid) is None  # aborts log no record
        assert txn.txid not in coordinator.lock_manager.active_transactions()
        assert coordinator.stats["prepare_timeouts"] == 1
        # The participant comes back: its queued (stale) prepare is
        # followed by the abort decision message, and the fleet converges
        # clean.
        cluster.drain()
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_coordinator_crash_after_the_timeout_abort_commit_recovers(self):
        """The coordinator dies right after the commit of its timeout abort
        (ABORTED document and abort decision message durable); the
        successor and the returning participant converge on the abort."""
        import time

        injector = FaultInjector()
        cluster, txn, coordinator = self._stuck_coordinator(
            injector=injector, faulty_shards=(0,)
        )
        assert txn.coordinator == 0
        injector.arm(POST_COMMIT, injector.hits(POST_COMMIT))
        time.sleep(0.03)
        cluster.drain(failover=True)
        assert [crash.point for crash in injector.fired] == [POST_COMMIT]
        assert cluster.twopc.decision(txn.txid) is None
        assert cluster.state_of(txn) is TransactionState.ABORTED
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)


class TestRecoveryReadsNoUpgradeState:
    def test_recover_never_reads_the_ticket_or_lists_decisions(self, monkeypatch):
        """A sharded store with no cross-shard work recovers without
        touching the 2PC namespace at all."""
        cluster = _cluster()
        for i in range(2):
            cluster.submit_spawn(f"local-{i}", host_index=i)
        cluster.drain()
        reads = []
        real_get, real_keys = KVStore.get, KVStore.keys

        def get(self, key, default=None):
            reads.append(self.full_key(key))
            return real_get(self, key, default)

        def keys(self, key=""):
            reads.append(self.full_key(key))
            return real_keys(self, key)

        monkeypatch.setattr(KVStore, "get", get)
        monkeypatch.setattr(KVStore, "keys", keys)
        for shard in cluster.shard_ids:
            cluster.controllers[shard] = cluster.new_controller(shard)
            cluster.controllers[shard].recover()
        assert reads, "recovery read nothing: the spy is not wired"
        assert "/tropic/2pc/ticket" not in reads
        assert not [path for path in reads if path.startswith("/tropic/2pc/decisions")]


class TestOneCommitCarriesItsMessages:
    """Every message a step sends — phyQ execute items, prepares, votes,
    decisions — and the inputQ items it consumed ride the step's one
    ``multi``: a crash on either side of that commit leaves no message
    lost and none to re-send."""

    @staticmethod
    def _queued(queue) -> list[tuple[str, str]]:
        return [(item["kind"], item["txid"]) for _, item in queue.take_many(100)]

    @staticmethod
    def _local_index(cluster, shard: int, avoid: str) -> int:
        return next(
            index for index, host in enumerate(cluster.inventory.vm_hosts)
            if cluster.shard_of(host) == shard and host != avoid
        )

    def test_a_crash_after_the_commit_loses_no_message(self):
        """One step starts a local spawn and prepares a cross-shard one,
        then the leader dies at ``post-commit``.  The successor finds the
        execute item in phyQ and the prepare in the participant's inputQ;
        each runs exactly once, and nothing is re-dispatched."""
        cluster = _cluster()
        cross = cluster.submit_cross_spawn("cross")
        home = cross.coordinator
        (peer,) = [s for s in cross.participants if s != home]
        local = cluster.submit_spawn(
            "local", host_index=self._local_index(cluster, home, cross.args["vm_host"])
        )
        controller = cluster.controllers[home]
        controller.recover()
        # Die at the first crash edge after the step's commit.
        commits: list[str] = []
        real_commit = controller.store.commit_batches

        def commit(batches):
            commits.append("commit")
            return real_commit(batches)

        def die_after_the_commit(point):
            if commits:
                raise CrashPoint(point, 0)

        controller.store.commit_batches = commit
        controller.fault_hook = die_after_the_commit
        with pytest.raises(CrashPoint) as crash:
            controller.step()

        store = cluster.stores[home]
        assert store.load_transaction(local.txid).state is TransactionState.STARTED
        assert store.load_transaction(cross.txid).state is TransactionState.PREPARING
        assert self._queued(cluster.phy_queues[home]) == [("execute", local.txid)]
        assert self._queued(cluster.input_queues[peer]) == [("prepare", cross.txid)]
        assert cluster.input_queues[home].is_empty()  # both requests acked
        assert crash.value.point == POST_COMMIT

        phy_queue = cluster.phy_queues[home]
        dispatched: list[str] = []
        real_put = phy_queue.put

        def put(item):
            dispatched.append(item["txid"])
            return real_put(item)

        phy_queue.put = put
        cluster.replace_controller(home)
        cluster.drain()

        for txn in (local, cross):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            assert [t.txid for t in cluster.acked].count(txn.txid) == 1
        assert dispatched == [cross.txid]  # after its votes; local never again
        worker = cluster.workers[home]
        assert (worker.transactions_processed, worker.duplicate_dispatches_skipped) == (2, 0)
        assert cluster.controllers[peer].stats["cross_shard_prepared"] == 1
        assert cluster.stores[peer].applied_since(0).count(cross.txid) == 1
        assert_cross_shard_atomic(cluster, cross)
        assert_clean(cluster)

    def test_a_commit_whose_multi_raises_sends_and_consumes_nothing(self):
        """A participant whose prepare conflicts with a local STARTED
        holder votes no and writes no document: its step's only writes
        are the vote and the ack.  When that step's ``multi`` raises, no
        vote reaches the coordinator and the prepare stays queued.  A
        coordinator step that starts a transaction likewise leaves no
        execute item and keeps its request.  After the drain each
        transaction commits exactly once."""
        cluster = _cluster()
        cross = cluster.submit_cross_spawn("cross")
        home = cross.coordinator
        (peer,) = [s for s in cross.participants if s != home]
        storage = cross.args["storage_host"]
        holder = cluster.submit(
            "createVolume", {"storage_host": storage, "volume_name": "v", "size_gb": 1}
        )
        assert cluster.shard_of(holder) == peer
        cluster.controllers[peer].step()  # the holder STARTED on the storage host
        assert cluster.state_of(holder) is TransactionState.STARTED
        cluster.controllers[home].step()  # cross PREPARING, its prepare queued
        assert self._queued(cluster.input_queues[peer]) == [("prepare", cross.txid)]

        client = cluster.client
        real_multi = client.multi

        def failing_multi(ops):
            raise ConnectionError("injected commit failure")

        client.multi = failing_multi
        writes = cluster.ensemble.write_round_trips
        with pytest.raises(ConnectionError):
            cluster.controllers[peer].step()
        client.multi = real_multi
        assert cluster.ensemble.write_round_trips == writes
        assert self._queued(cluster.input_queues[peer]) == [("prepare", cross.txid)]
        assert self._queued(cluster.input_queues[home]) == []

        local = cluster.submit_spawn(
            "local", host_index=self._local_index(cluster, home, cross.args["vm_host"])
        )
        client.multi = failing_multi
        with pytest.raises(ConnectionError):
            cluster.controllers[home].step()
        client.multi = real_multi
        assert cluster.ensemble.write_round_trips == writes + 1  # the submission only
        assert cluster.phy_queues[home].is_empty()
        assert self._queued(cluster.input_queues[home]) == [("request", local.txid)]
        assert cluster.state_of(local) is TransactionState.INITIALIZED

        cluster.drain()
        for txn in (holder, cross, local):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            assert [t.txid for t in cluster.acked].count(txn.txid) == 1
        assert_cross_shard_atomic(cluster, cross)
        assert_clean(cluster)


#: The moments the deleted post-commit crash edges named, each now one
#: commit with two sides (``pre-commit``: nothing of the step is durable;
#: ``post-commit``: the state, its messages and its acks all are).  Each
#: entry is (the edge that named it, the shard role that crashes, and the
#: in-memory predicate picking that step's commit).
_MOMENTS = {
    # STARTED state committed, its execute item not yet in phyQ.
    "post-flush-pre-dispatch": (
        "home", lambda c, local, cross: _state(c, local) is TransactionState.STARTED
    ),
    # A result committed, its inputQ item not yet acked.
    "post-commit-pre-ack": ("home", lambda c, local, cross: c.stats["committed"] > 0),
    # PREPARING committed, no prepare sent.
    "2pc-pre-prepare": (
        "home", lambda c, local, cross: _state(c, cross) is TransactionState.PREPARING
    ),
    # A prepared slice committed, its vote not sent.
    "2pc-post-prepare": (
        "peer", lambda c, local, cross: _state(c, cross) is TransactionState.PREPARED
    ),
    # The commit decision committed, its fan-out not sent.
    "2pc-post-decision": (
        "home", lambda c, local, cross: c.stats["cross_shard_committed"] > 0
    ),
}


def _state(controller, txn):
    held = controller.outstanding.get(txn.txid)
    return None if held is None else held.state


class TestEveryDeletedEdgeMoment:
    """Crash on either side of the commit of each step a deleted crash edge
    used to split: the successor finds every message that commit carried,
    sends none again, and every transaction commits exactly once."""

    @pytest.mark.parametrize("point", [PRE_COMMIT, POST_COMMIT])
    @pytest.mark.parametrize("moment", list(_MOMENTS))
    def test_a_crash_either_side_of_the_commit_recovers(self, moment, point):
        role, picks = _MOMENTS[moment]
        cluster = _cluster()
        cross = cluster.submit_cross_spawn("cross")
        home = cross.coordinator
        (peer,) = [s for s in cross.participants if s != home]
        local_host = next(
            host for host in cluster.inventory.vm_hosts
            if cluster.shard_of(host) == home and host != cross.args["vm_host"]
        )
        local = cluster.submit_spawn(
            "local", host_index=cluster.inventory.vm_hosts.index(local_host)
        )
        victim = cluster.controllers[home if role == "home" else peer]
        fired: list[str] = []

        def hook(name):
            if name == point and not fired and picks(victim, local, cross):
                fired.append(name)
                raise CrashPoint(name, 0)

        victim.fault_hook = hook
        cluster.drain(failover=True)

        assert fired == [point], f"{moment} never reached its commit"
        for txn in (local, cross):
            assert cluster.state_of(txn) is TransactionState.COMMITTED
            assert [t.txid for t in cluster.acked].count(txn.txid) <= 1
        assert sum(w.transactions_processed for w in cluster.workers.values()) == 2
        assert sum(w.duplicate_dispatches_skipped for w in cluster.workers.values()) == 0
        assert cluster.stores[peer].applied_since(0).count(cross.txid) <= 1
        assert_cross_shard_atomic(cluster, cross)
        for shard in cluster.shard_ids:
            assert cluster.detect_is_clean(shard)
        assert_clean(cluster)
