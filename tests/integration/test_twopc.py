"""Cross-shard two-phase commit (PR 3 tentpole).

A transaction spanning two controller shards must be atomic, isolated and
recoverable at cross-shard scope: the coordinator simulates and locks, the
participants validate and durably prepare their log slices, and the commit
decision is logged in the global coordination namespace before any fan-out.

The fault matrix here crashes the coordinator *and* the participant at
every 2PC protocol edge (pre/post-prepare, pre/post-decision) plus every
generic controller failure point, fails the shard over, and asserts:

* the cross-shard transaction is atomic — effects exist on *both* owner
  shards or on neither, matching its terminal state;
* no acknowledged transaction is lost or double-applied;
* single-shard traffic is never disturbed;
* no locks leak and no lingering wound state survives quiescence.
"""

import pytest

from repro.common.config import TropicConfig
from repro.core.txn import TransactionState
from repro.testing import (
    ALL_FAILURE_POINTS,
    PRE_DISPATCH,
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

    def test_prepare_fan_out_follows_the_coordinator_commit(self):
        """The coordinator's PREPARING state is durable before any prepare
        request reaches a participant, and the fan-out runs with no batch
        scope open on the coordinator's store."""
        cluster = _cluster()
        txn = cluster.submit_cross_spawn("ordered")
        coordinator = cluster.controllers[txn.coordinator]
        participant = next(s for s in txn.participants if s != txn.coordinator)
        events: list[str] = []

        real_commit = coordinator.store.commit_batches

        def commit(batches):
            events.append("commit")
            return real_commit(batches)

        peer = cluster.input_queues[participant]
        real_put = peer.put

        def put(message):
            if message["kind"] == "prepare":
                doc = cluster.stores[txn.coordinator].load_transaction(txn.txid)
                events.append(f"prepare:{doc.state.value}")
                assert not coordinator.store.kv.in_batch()
            return real_put(message)

        coordinator.store.commit_batches = commit
        peer.put = put
        cluster.drain()

        first_prepare = events.index("prepare:preparing")
        assert events[first_prepare - 1] == "commit"
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

    @pytest.mark.parametrize("point,faulty_shard", [
        ("2pc-pre-prepare", 0),
        ("2pc-pre-decision", 0),
        ("2pc-post-decision", 0),
        ("2pc-post-prepare", 1),
    ])
    def test_twopc_points_actually_fire(self, point, faulty_shard):
        """Each protocol edge is reachable in its role (coordinator edges
        on the coordinator shard, the post-prepare edge on a participant)."""
        injector = FaultInjector().arm(point, 0)
        cluster = _cluster(injector=injector, faulty_shards=(faulty_shard,))
        cluster.submit_cross_spawn("crossy")
        cluster.drain(failover=True)
        assert [crash.point for crash in injector.fired] == [point]

    def test_presumed_abort_on_coordinator_prepare_crash(self):
        """A coordinator that dies before the prepare fan-out presumed-
        aborts on failover: the abort decision is logged, participants
        never stay prepared, and the client sees a clean abort."""
        injector = FaultInjector().arm("2pc-pre-prepare", 0)
        cluster = _cluster(injector=injector, faulty_shards=(0,))
        cross = cluster.submit_cross_spawn("doomed")
        cluster.drain(failover=True)
        assert cluster.state_of(cross) is TransactionState.ABORTED
        assert cluster.twopc.decision(cross.txid) == "abort"
        assert_cross_shard_atomic(cluster, cross)
        assert_clean(cluster)


class TestDispatchLossWindow:
    """The bugfix satellite: a leader crash between the group-commit flush
    and the phyQ ``put_many`` used to strand STARTED transactions."""

    def test_lost_dispatch_is_redispatched_exactly_once(self):
        injector = FaultInjector().arm(PRE_DISPATCH, 0)
        cluster = ShardedCluster(num_shards=1, injector=injector,
                                 faulty_shards=(0,))
        txn = cluster.submit_spawn("lost")
        cluster.drain(failover=True)
        assert [crash.point for crash in injector.fired] == [PRE_DISPATCH]
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        successor = cluster.controllers[0]
        assert successor.stats["redispatched"] == 1
        # Executed exactly once: the device has one running VM.
        device = cluster.inventory.registry.device_at(txn.args["vm_host"])
        assert device.vm_state("lost") == "running"
        # Claim records are GC'd wholesale at the next quiesce-point
        # checkpoint (nothing is in flight here, so it may run).
        assert cluster.stores[0].load_claim(txn.txid) is not None
        assert successor.checkpoint()
        assert cluster.stores[0].load_claim(txn.txid) is None
        assert cluster.reconciler().detect().is_empty

    def test_redispatched_message_carries_the_document_log(self):
        injector = FaultInjector().arm(PRE_DISPATCH, 0)
        cluster = ShardedCluster(num_shards=1, injector=injector,
                                 faulty_shards=(0,))
        txn = cluster.submit_spawn("relog")
        controller = cluster.controllers[0]
        with pytest.raises(CrashPoint):
            while controller.step():
                pass
        assert cluster.phy_queues[0].is_empty()
        cluster.replace_controller(0).recover()
        [(_, message)] = cluster.phy_queues[0].take_many(10)
        document = cluster.stores[0].load_transaction(txn.txid)
        assert document.state is TransactionState.STARTED and len(document.log) > 0
        assert message["log"] == document.log.to_dict()

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

    def test_claimed_transaction_is_not_redispatched(self):
        """If a worker already claimed (and possibly executed) the item,
        recovery must NOT re-dispatch — the result will arrive."""
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
        assert successor.stats["redispatched"] == 0
        assert cluster.state_of(txn) is TransactionState.COMMITTED
        device = cluster.inventory.registry.device_at(txn.args["vm_host"])
        assert device.vm_state("claimed") == "running"

    def test_duplicate_dispatch_executes_once(self):
        """A duplicate execute message (e.g. conservative re-dispatch) is
        made inert by the claim create-if-absent."""
        from repro.core.events import execute_message

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
        assert cluster.twopc.decision(txn.txid) == "abort"
        assert txn.txid not in coordinator.lock_manager.active_transactions()
        assert coordinator.stats["prepare_timeouts"] == 1
        # The participant comes back: its queued (stale) prepare resolves
        # against the abort decision and the fleet converges clean.
        cluster.drain()
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)

    def test_coordinator_crash_during_timeout_abort_recovers(self):
        """Fault-matrix point for the deadline: the coordinator dies at the
        2pc-post-decision edge of the timeout abort (decision durable, fan-
        out lost); the successor and the returning participant still
        converge on the abort."""
        import time

        injector = FaultInjector().arm("2pc-post-decision", 0)
        cluster, txn, coordinator = self._stuck_coordinator(
            injector=injector, faulty_shards=(0,)
        )
        assert txn.coordinator == 0
        time.sleep(0.03)
        cluster.drain(failover=True)
        assert [crash.point for crash in injector.fired] == ["2pc-post-decision"]
        assert cluster.twopc.decision(txn.txid) == "abort"
        assert cluster.state_of(txn) is TransactionState.ABORTED
        assert_cross_shard_atomic(cluster, txn)
        assert_clean(cluster)


class TestRecoveryReadsNoUpgradeState:
    def test_recover_never_reads_the_ticket_or_lists_decisions(self, monkeypatch):
        """A sharded store with no cross-shard work recovers without
        touching the 2PC namespace at all."""
        from repro.coordination.kvstore import KVStore

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
