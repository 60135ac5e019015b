"""Tests for the PR 1 write-path performance subsystem.

Covers the group-commit batch (KVStore.WriteBatch + ensemble multi), the
transaction-document format, incremental checkpoints (including the
recovery-equality guarantee after leader failover), the txid-indexed
TodoQueue, the AGGRESSIVE policy's conflict-skip behaviour, queue batch
operations, the structure-aware deep copy, and path interning.
"""

import json
import threading

import pytest

from repro.common.config import TropicConfig
from repro.common.jsonutil import deep_copy, dumps
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.controller import Controller
from repro.core.events import result_message
from repro.core.persistence import TropicStore
from repro.core.scheduler import AGGRESSIVE, TodoQueue
from repro.core.signals import TERM
from repro.core.twopc import DECISION_ABORT
from repro.core.txn import Transaction, TransactionState
from repro.datamodel.path import ResourcePath
from repro.datamodel.tree import DataModel
from repro.tcloud.entities import build_schema
from repro.tcloud.procedures import build_procedures
from repro.testing import ShardedCluster

from tests.unit.test_core_controller import make_controller, submit_spawn


@pytest.fixture
def ensemble():
    return CoordinationEnsemble(num_servers=3, default_session_timeout=600.0)


@pytest.fixture
def kv(ensemble):
    return KVStore(CoordinationClient(ensemble))


@pytest.fixture
def store(kv):
    return TropicStore(kv)


class TestUpsertAndMulti:
    def test_upsert_is_one_round_trip(self, ensemble, kv):
        before = ensemble.write_round_trips
        kv.put("a/b/c/d", {"x": 1})
        assert ensemble.write_round_trips == before + 1
        assert kv.get("a/b/c/d") == {"x": 1}

    def test_upsert_overwrites(self, kv):
        kv.put("k", 1)
        kv.put("k", 2)
        assert kv.get("k") == 2

    def test_multi_applies_all_ops_in_one_round_trip(self, ensemble, kv):
        before = ensemble.write_round_trips
        with kv.batch():
            kv.put("m/a", 1)
            kv.put("m/b", 2)
            kv.delete("m/a")
        assert ensemble.write_round_trips == before + 1
        assert ensemble.multi_count == 1
        assert kv.get("m/a") is None
        assert kv.get("m/b") == 2


class TestWriteBatch:
    def test_batch_coalesces_same_key(self, ensemble, kv):
        before = ensemble.write_round_trips
        with kv.batch():
            kv.put("doc", {"v": 1})
            kv.put("doc", {"v": 2})
            kv.put("doc", {"v": 3})
        assert ensemble.write_round_trips == before + 1
        assert ensemble.multi_sub_ops == 1  # last-writer-wins coalescing
        assert kv.get("doc") == {"v": 3}

    def test_batch_read_through(self, kv):
        kv.put("seen", "old")
        with kv.batch():
            kv.put("seen", "new")
            kv.put("fresh", 7)
            kv.delete("seen-later")
            assert kv.get("seen") == "new"
            assert kv.get("fresh") == 7
            assert kv.exists("fresh")
        assert kv.get("seen") == "new"

    def test_batch_keys_read_through(self, kv):
        kv.put("dir/a", 1)
        with kv.batch():
            kv.put("dir/b", 2)
            kv.delete("dir/a")
            assert kv.keys("dir") == ["b"]
        assert kv.keys("dir") == ["b"]

    def test_batch_keys_deep_delete_keeps_child(self, kv):
        kv.put("dir/a/x", 1)
        kv.put("dir/a/y", 2)
        with kv.batch():
            kv.delete("dir/a/x")
            # Deleting a grandchild must not hide the child from listings.
            assert kv.keys("dir") == ["a"]
        assert kv.keys("dir") == ["a"]
        assert kv.get("dir/a/y") == 2

    def test_nested_batches_join_outermost(self, ensemble, kv):
        before = ensemble.write_round_trips
        with kv.batch():
            kv.put("n/a", 1)
            with kv.batch():
                kv.put("n/b", 2)
            # Inner exit must not commit yet.
            assert ensemble.write_round_trips == before
        assert ensemble.write_round_trips == before + 1

    def test_flush_mid_batch_commits_pending(self, ensemble, kv):
        with kv.batch():
            kv.put("f/a", 1)
            kv.flush()
            after_flush = ensemble.write_round_trips
            kv.put("f/b", 2)
            assert ensemble.write_round_trips == after_flush
        assert kv.get("f/a") == 1
        assert kv.get("f/b") == 2


class TestClientBatchScope:
    """The batch scope belongs to the coordination client, per thread:
    every store over that client joins the scope a thread has open, and
    the batch is keyed by absolute path, so stores under different
    prefixes commit in one ``multi`` and read each other's pending ops."""

    def test_stores_over_one_client_commit_in_one_multi(self, ensemble):
        client = CoordinationClient(ensemble)
        shard, decisions = KVStore(client, "/shard-0"), KVStore(client, "/2pc")
        before = ensemble.write_round_trips
        with shard.batch():
            shard.put("txns/t1", {"state": "committed"})
            decisions.put("decisions/t1", "commit")
            assert decisions.in_batch()
            assert client.get_data("/2pc/decisions/t1") is None
            assert client.get_data("/shard-0/txns/t1") is None
        assert ensemble.write_round_trips == before + 1
        assert ensemble.multi_count == 1
        assert shard.get("txns/t1") == {"state": "committed"}
        assert decisions.get("decisions/t1") == "commit"

    def test_a_store_reads_another_stores_pending_ops(self, ensemble):
        client = CoordinationClient(ensemble)
        outer, inner = KVStore(client, "/x"), KVStore(client, "/x/y")
        outer.put("y/gone", 1)
        with inner.batch():
            outer.put("y/k", 2)
            outer.delete("y/gone")
            assert inner.get("k") == 2
            assert inner.exists("k")
            assert inner.get("gone") is None
            assert not inner.exists("gone")
            assert inner.keys() == ["k"]
        assert inner.keys() == ["k"]

    def test_detach_through_any_store_takes_the_shared_batch(self, ensemble):
        client = CoordinationClient(ensemble)
        a, b = KVStore(client, "/a"), KVStore(client, "/b")
        a.begin_batch()
        a.put("k", 1)
        b.put("k", 2)
        batch = b.detach_batch()
        assert not a.in_batch()
        assert batch.pending("/a/k") is not None
        assert batch.pending("/b/k") is not None
        before = ensemble.write_round_trips
        assert a.commit_batch(batch) == 2
        assert ensemble.write_round_trips == before + 1
        assert (a.get("k"), b.get("k")) == (1, 2)

    def test_a_store_over_another_client_writes_at_once(self, ensemble):
        scoped = KVStore(CoordinationClient(ensemble), "/a")
        other = KVStore(CoordinationClient(ensemble), "/b")
        with scoped.batch():
            scoped.put("k", 1)
            other.put("k", 2)
            assert not other.in_batch()
            assert other.client.get_data("/b/k") is not None
            assert scoped.client.get_data("/a/k") is None
        assert ensemble.multi_count == 1

    def test_the_scope_is_per_thread(self, ensemble):
        client = CoordinationClient(ensemble)
        a, b = KVStore(client, "/a"), KVStore(client, "/b")
        seen = {}

        def other_thread():
            seen["in_batch"] = b.in_batch()
            b.put("from-thread", 1)

        with a.batch():
            a.put("k", 1)
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            # The other thread's write went direct, not into this scope.
            assert seen == {"in_batch": False}
            assert client.get_data("/b/from-thread") is not None
            assert client.get_data("/a/k") is None
        assert a.get("k") == 1
        assert ensemble.multi_count == 1


class TestDetachedBatchCommit:
    """The controller step's commit shape: ``begin_batch`` … ``detach_batch``
    closes the scope without committing, then ``commit_batch`` /
    ``TropicStore.commit_batches`` commits the detached batch as one
    ``multi`` of its own, leaving any open scope alone."""

    def test_detach_without_open_scope_returns_none(self, ensemble, kv):
        before = ensemble.write_round_trips
        assert kv.detach_batch() is None
        assert kv.commit_batch(None) == 0
        assert ensemble.write_round_trips == before

    def test_detach_closes_nested_scopes_without_committing(self, ensemble, kv):
        before = ensemble.write_round_trips
        kv.begin_batch()
        kv.begin_batch()
        kv.put("d/a", 1)
        batch = kv.detach_batch()
        assert len(batch) == 1
        assert not kv.in_batch()
        assert ensemble.write_round_trips == before
        assert kv.get("d/a") is None  # buffered only, and no overlay survives
        kv.put("d/b", 2)  # the scope is gone: this write is direct
        assert ensemble.write_round_trips == before + 1

    def test_commit_batch_is_one_multi(self, ensemble, kv):
        kv.begin_batch()
        kv.put("c/a", 1)
        kv.put("c/b", 2)
        kv.delete("c/a")
        batch = kv.detach_batch()
        before = ensemble.write_round_trips
        assert kv.commit_batch(batch) == 2
        assert ensemble.write_round_trips == before + 1
        assert ensemble.multi_count == 1
        assert kv.get("c/a") is None
        assert kv.get("c/b") == 2

    def test_empty_detached_batch_costs_no_round_trip(self, ensemble, kv):
        kv.begin_batch()
        batch = kv.detach_batch()
        assert batch.is_empty()
        before = ensemble.write_round_trips
        assert kv.commit_batch(batch) == 0
        assert ensemble.write_round_trips == before
        assert ensemble.multi_count == 0

    def test_commit_batch_preserves_an_open_scope(self, ensemble, kv):
        kv.begin_batch()
        kv.put("p/detached", 1)
        detached = kv.detach_batch()
        with kv.batch():
            kv.put("p/scoped", 2)
            kv.commit_batch(detached)
            assert kv.in_batch()
            # The detached batch is durable; the open scope's write is not.
            assert kv.client.get_data(kv.full_key("p/detached")) is not None
            assert kv.client.get_data(kv.full_key("p/scoped")) is None
            assert kv.get("p/scoped") == 2
        assert kv.get("p/scoped") == 2
        assert ensemble.multi_count == 2

    def test_store_commit_batches_commits_each_batch(self, ensemble, kv, store):
        batches = []
        for key in ("s/a", "s/b"):
            kv.begin_batch()
            kv.put(key, key)
            kv.put(f"{key}-2", key)
            batches.append(kv.detach_batch())
        assert store.commit_batches(batches) == 4
        assert ensemble.multi_count == 2
        assert kv.get("s/a-2") == "s/a" and kv.get("s/b-2") == "s/b"

    def test_retried_save_after_failed_commit_batches_lands(self, ensemble, store):
        """A failed detached commit loses its documents; saving again after
        the quorum returns persists the document."""
        txn = Transaction("spawnVM", {"vm_name": "vm1"})
        txn.mark(TransactionState.ACCEPTED, 1.0)
        store.kv.begin_batch()
        store.save_transaction(txn)
        batch = store.kv.detach_batch()
        for server in (0, 1):
            ensemble.crash_server(server)  # quorum lost
        with pytest.raises(Exception):
            store.commit_batches([batch])
        for server in (0, 1):
            ensemble.restart_server(server)
        assert store.load_transaction(txn.txid) is None
        store.save_transaction(txn)
        assert store.load_transaction(txn.txid).state is TransactionState.ACCEPTED


class TestTransactionDocuments:
    def _txn(self, **kwargs):
        txn = Transaction("spawnVM", {"vm_name": "vm1", "mem_mb": 512}, **kwargs)
        txn.log.append("/vmRoot/h0/vm1", "createVM", ["vm1", 512], "removeVM", ["vm1"])
        txn.rwset.record_write("/vmRoot/h0/vm1")
        txn.rwset.record_read("/vmRoot/h0")
        return txn

    def _stored(self, store, txn):
        """Save ``txn`` through two state transitions; the stored text."""
        txn.mark(TransactionState.ACCEPTED, 1.0)
        store.save_transaction(txn)
        txn.mark(TransactionState.DEFERRED, 2.0)
        txn.defer_count += 1
        store.save_transaction(txn)
        return store.kv.client.get_data(f"{store.kv.prefix}/txns/{txn.txid}")

    def test_single_shard_document_format(self, store):
        txn = self._txn(txid="txn-fmt")
        raw = self._stored(store, txn)
        assert raw == dumps(txn.to_dict())
        assert raw == (
            '{"args":{"mem_mb":512,"vm_name":"vm1"},"client":"",'
            '"defer_count":1,"error":null,"log":[{"action":"createVM",'
            '"args":["vm1",512],"path":"/vmRoot/h0/vm1","seq":1,'
            '"undo_action":"removeVM","undo_args":["vm1"]}],'
            '"procedure":"spawnVM","result":null,"rwset":{"constraint_reads":[],'
            '"reads":["/vmRoot/h0"],"writes":["/vmRoot/h0/vm1"]},'
            '"state":"deferred","timestamps":{"accepted":1.0,"deferred":2.0},'
            '"txid":"txn-fmt"}'
        )

    @pytest.mark.parametrize(
        "fields, optional",
        [
            (
                {"coordinator": 0, "participants": [0, 1], "votes": {"0": "yes"}},
                {"coordinator", "participants", "votes"},
            ),
            ({"idempotency_token": "tok-1"}, {"idempotency_token"}),
        ],
        ids=["cross_shard", "tokened"],
    )
    def test_optional_fields_only_when_set(self, store, fields, optional):
        txn = self._txn(**fields)
        raw = self._stored(store, txn)
        assert raw == dumps(txn.to_dict())
        local = set(json.loads(self._stored(store, self._txn())))
        assert set(json.loads(raw)) == local | optional

    def test_roundtrip_after_saves(self, store):
        txn = self._txn()
        txn.mark(TransactionState.ACCEPTED, 1.0)
        store.save_transaction(txn)
        txn.mark(TransactionState.STARTED, 2.0)
        store.save_transaction(txn)
        loaded = store.load_transaction(txn.txid)
        assert loaded.state is TransactionState.STARTED
        assert len(loaded.log) == 1
        assert loaded.rwset.writes == {"/vmRoot/h0/vm1"}
        assert loaded.timestamps == txn.timestamps

    def test_retried_save_after_failed_group_commit_lands(self, ensemble, store):
        """A transient commit failure persists nothing; saving again after
        the quorum returns persists the document."""
        txn = self._txn()
        txn.mark(TransactionState.ACCEPTED, 1.0)
        for server in (0, 1):
            ensemble.crash_server(server)  # quorum lost
        with pytest.raises(Exception):
            with store.kv.batch():
                store.save_transaction(txn)
        for server in (0, 1):
            ensemble.restart_server(server)
        assert store.load_transaction(txn.txid) is None  # nothing persisted
        store.save_transaction(txn)
        assert store.load_transaction(txn.txid).state is TransactionState.ACCEPTED


class TestIncrementalCheckpoints:
    def _model(self):
        model = DataModel()
        model.create("/vmRoot", "vmRoot")
        model.create("/storageRoot", "storageRoot")
        for i in range(4):
            model.create(f"/vmRoot/h{i}", "vmHost", {"mem_mb": 4096})
        model.create("/storageRoot/s0", "storageHost")
        return model

    def test_full_then_incremental_roundtrip(self, store):
        model = self._model()
        store.save_checkpoint(model, 0)
        restored, seq = store.load_checkpoint()
        assert seq == 0
        assert restored.to_dict() == model.to_dict()

    def test_incremental_writes_only_dirty_units(self, store):
        model = self._model()
        store.save_checkpoint(model, 0)  # clears dirty tracking
        model.create("/vmRoot/h1/vm9", "vm", {"state": "running"})
        written = store.save_checkpoint_incremental(model, 1)
        assert written == 1  # only vmRoot/h1
        restored, seq = store.load_checkpoint()
        assert seq == 1
        assert restored.to_dict() == model.to_dict()

    def test_incremental_handles_deleted_units(self, store):
        model = self._model()
        store.save_checkpoint(model, 0)
        model.delete("/vmRoot/h3")
        store.save_checkpoint_incremental(model, 2)
        restored, _ = store.load_checkpoint()
        assert not restored.exists("/vmRoot/h3")
        assert restored.to_dict() == model.to_dict()

    def test_all_dirty_model_falls_back_to_full_write(self, store):
        model = self._model()  # fresh models are all-dirty
        written = store.save_checkpoint_incremental(model, 0)
        assert written == 5  # 4 hosts + 1 storage host
        restored, _ = store.load_checkpoint()
        assert restored.to_dict() == model.to_dict()

    def test_attr_mutation_marks_unit_dirty(self, store):
        model = self._model()
        store.save_checkpoint(model, 0)
        model.set_attrs("/vmRoot/h2", mem_mb=8192)
        assert store.save_checkpoint_incremental(model, 3) == 1
        restored, _ = store.load_checkpoint()
        assert restored.get("/vmRoot/h2")["mem_mb"] == 8192

    def test_inconsistency_flag_survives_incremental_checkpoint(self, store):
        model = self._model()
        store.save_checkpoint(model, 0)
        model.mark_inconsistent("/vmRoot/h0")
        store.save_checkpoint_incremental(model, 4)
        restored, _ = store.load_checkpoint()
        assert restored.is_fenced("/vmRoot/h0")


class TestRecoveryEqualityAfterFailover:
    """Incremental checkpoints + the applied log must rebuild the *exact*
    model a failed leader held (the §2.3 guarantee, now via the new
    checkpoint layout)."""

    def test_recovered_model_identical_after_checkpointed_workload(self):
        controller, store, input_queue, _ = make_controller()
        controller.config = controller.config.with_overrides(checkpoint_every=2)
        for index in range(5):
            txn = submit_spawn(
                store, input_queue, f"vm{index}",
                vm_host=f"/vmRoot/vmHost{index % 4}",
                storage_host=f"/storageRoot/storageHost{index % 2}",
            )
            controller.run_until_idle()
            input_queue.put(result_message(txn.txid, "committed"))
            controller.run_until_idle()
        assert controller.stats["checkpoints"] >= 2  # incremental path used

        replacement = Controller(
            name="ctrl-replacement",
            config=TropicConfig(),
            store=store,
            input_queue=input_queue,
            phy_queue=controller.phy_queue,
            schema=build_schema(),
            procedures=build_procedures(),
        )
        replacement.recover()
        assert replacement.model.to_dict() == controller.model.to_dict()

    def test_recovery_replays_commits_after_last_incremental_checkpoint(self):
        controller, store, input_queue, _ = make_controller()
        controller.config = controller.config.with_overrides(checkpoint_every=2)
        txids = []
        for index in range(3):  # checkpoint after 2, third rides the applied log
            txn = submit_spawn(
                store, input_queue, f"vm{index}", vm_host=f"/vmRoot/vmHost{index}",
            )
            controller.run_until_idle()
            input_queue.put(result_message(txn.txid, "committed"))
            controller.run_until_idle()
            txids.append(txn.txid)
        model, seq = store.load_checkpoint()
        assert seq == 2
        assert store.applied_since(seq) == [txids[2]]

        replacement = Controller(
            name="ctrl-b",
            config=TropicConfig(),
            store=store,
            input_queue=input_queue,
            phy_queue=controller.phy_queue,
            schema=build_schema(),
            procedures=build_procedures(),
        )
        replacement.recover()
        for index in range(3):
            assert replacement.model.exists(f"/vmRoot/vmHost{index}/vm{index}")


class TestCheckpointQuiescePoint:
    def test_checkpoint_deferred_while_transactions_outstanding(self):
        controller, store, input_queue, _ = make_controller()
        controller.config = controller.config.with_overrides(checkpoint_every=1)
        first = submit_spawn(store, input_queue, "vm1", vm_host="/vmRoot/vmHost0")
        second = submit_spawn(store, input_queue, "vm2", vm_host="/vmRoot/vmHost1",
                              storage_host="/storageRoot/storageHost1")
        controller.run_until_idle()  # both STARTED
        input_queue.put(result_message(first.txid, "committed"))
        controller.run_until_idle()
        # vm2 is still outstanding: its simulated effects are in the model,
        # so the checkpoint must wait for the quiesce point.
        assert controller.stats["checkpoints"] == 0
        input_queue.put(result_message(second.txid, "committed"))
        controller.run_until_idle()
        assert controller.stats["checkpoints"] == 1
        model, seq = store.load_checkpoint()
        assert seq == 2
        assert model.exists("/vmRoot/vmHost0/vm1")
        assert model.exists("/vmRoot/vmHost1/vm2")


class TestCheckpointCommit:
    """The quiesce checkpoint is part of the step's commit body: the
    documents, the checkpoint units, the applied-log truncation, the claim
    GC and the epoch bump land in one ``multi``, and the 2PC horizon is
    published, and the decision records swept, only after it."""

    def _started(self, checkpoint_every=1, committed_first=False):
        """Shard 0 of a two-shard cluster with one STARTED spawn whose
        execute item was taken, after one committed spawn if
        ``committed_first``; returns (cluster, controller, txn)."""
        cluster = ShardedCluster(
            num_shards=2, config=TropicConfig(checkpoint_every=checkpoint_every)
        )
        if committed_first:
            cluster.submit_spawn("vm0", host_index=0)
            cluster.drain()
        txn = cluster.submit_spawn("vm1", host_index=0)
        assert cluster.shard_of(txn) == 0
        controller = cluster.controllers[0]
        controller.run_until_idle()
        for name, _ in cluster.phy_queues[0].take_many(5):
            cluster.phy_queues[0].ack(name)
        assert cluster.stores[0].load_transaction(txn.txid).state is TransactionState.STARTED
        return cluster, controller, txn

    def test_a_checkpointing_step_commits_one_multi(self):
        # vm0's commit took checkpoint 1 at seq 1; the step under test
        # takes checkpoint 2 at seq 2, which truncates up to seq 1.
        cluster, controller, txn = self._started(committed_first=True)
        store, kv = controller.store, controller.store.kv
        checkpoints = controller.stats["checkpoints"]
        commits, direct = kv.batch_commits, kv.direct_ops
        twopc_direct = controller.twopc.kv.direct_ops
        events = []

        def spy(label, call):
            def wrapper(*args):
                durable = kv.client.get_data(kv.full_key("checkpoint/meta"))
                events.append((label, kv.in_batch(), json.loads(durable)["applied_seq"]))
                return call(*args)
            return wrapper

        store.commit_batches = spy("commit", store.commit_batches)
        controller.twopc.publish_horizon = spy("horizon", controller.twopc.publish_horizon)
        controller.input_queue.put(result_message(txn.txid, "committed"))

        assert controller.step() is True

        assert controller.stats["checkpoints"] == checkpoints + 1
        assert (kv.batch_commits, kv.direct_ops) == (commits + 1, direct)
        # The horizon is buffered in the open batch and becomes durable in
        # the same multi as checkpoint 2, never on its own.
        assert events == [("horizon", True, 1), ("commit", False, 1)]
        assert controller.twopc.kv.direct_ops == twopc_direct
        assert controller.twopc.horizons()[0] == store.get_meta("checkpoint_epoch")
        # Seq 1 truncated in the same multi; seq 2 kept for one interval.
        assert [seq for seq, _ in store.applied_entries(0)] == [2]
        model, seq = store.load_checkpoint()
        assert seq == 2 and model.exists("/vmRoot/vmHost0/vm1")

    def test_a_failed_checkpointing_commit_publishes_no_horizon(self):
        cluster, controller, txn = self._started()
        client = controller.store.kv.client
        original_multi = client.multi
        horizons = controller.twopc.horizons()

        def failing_multi(ops):
            raise ConnectionError("injected commit failure")

        client.multi = failing_multi
        controller.input_queue.put(result_message(txn.txid, "committed"))
        with pytest.raises(ConnectionError):
            controller.step()
        client.multi = original_multi

        assert controller.twopc.horizons() == horizons
        assert controller.store.load_checkpoint()[1] == 0
        cluster.drain()
        assert controller.store.load_transaction(txn.txid).state is TransactionState.COMMITTED
        model, seq = controller.store.load_checkpoint()
        assert seq == 1 and model.exists("/vmRoot/vmHost0/vm1")

    def test_checkpoint_of_an_unrecovered_replica_writes_nothing(self):
        cluster, controller, _ = self._started(checkpoint_every=100_000)
        fresh = cluster.new_controller(0)
        kv = fresh.store.kv
        commits, direct = kv.batch_commits, kv.direct_ops
        assert fresh.checkpoint() is False
        assert (kv.batch_commits, kv.direct_ops) == (commits, direct)


class TestFailedCommitRecovery:
    def test_step_failure_demotes_and_rerecovery_processes_exactly_once(self):
        """A failed group commit loses the buffered writes while in-memory
        transitions survive; the controller must abandon its soft state and
        re-recover from the store so nothing is double-scheduled."""
        controller, store, input_queue, phy_queue = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")

        client = store.kv.client
        original_multi = client.multi
        calls = {"n": 0}

        def failing_multi(ops):
            calls["n"] += 1
            raise ConnectionError("injected commit failure")

        client.multi = failing_multi
        with pytest.raises(ConnectionError):
            controller.step()
        client.multi = original_multi

        assert controller.recovered is False  # soft state abandoned
        assert controller.outstanding == {}
        # Nothing was persisted or dispatched, and the message is unacked.
        assert store.load_transaction(txn.txid).state is TransactionState.INITIALIZED
        assert phy_queue.is_empty()
        assert input_queue.size() == 1

        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        controller.run_until_idle()
        assert store.load_transaction(txn.txid).state is TransactionState.COMMITTED
        assert store.applied_since(0) == [txn.txid]  # exactly one commit

    def test_failed_commit_of_an_applied_append_skips_no_sequence(self):
        """The step that commits a transaction appends to the applied log
        and caches the sequence number it issued.  When that step's commit
        fails, the next step must re-read the store's applied_seq: no
        sequence number may be skipped (a gap reads as a truncation to
        replicas) or reused."""
        controller, store, input_queue, phy_queue = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        assert store.load_transaction(first.txid).state is TransactionState.STARTED
        input_queue.put(result_message(first.txid, "committed"))

        client = store.kv.client
        original_multi = client.multi

        def failing_multi(ops):
            raise ConnectionError("injected commit failure")

        client.multi = failing_multi
        with pytest.raises(ConnectionError):
            controller.step()
        client.multi = original_multi
        assert store.applied_seq() == 0  # the append never landed

        controller.run_until_idle()
        second = submit_spawn(store, input_queue, "vm2", vm_host="/vmRoot/vmHost1")
        controller.run_until_idle()
        input_queue.put(result_message(second.txid, "committed"))
        controller.run_until_idle()
        assert store.applied_entries(0) == [(1, first.txid), (2, second.txid)]


class TestStepEffectOrdering:
    """One way out of the controller: the step, failover recovery and KILL
    each commit one batch, and every effect that reveals its state runs
    after that commit, with no batch scope open, in the order
    dispatch-loss edge → notifications → phyQ dispatch → 2PC fan-out →
    ack edge → inputQ acks; the pre-commit edge comes just before the
    commit."""

    def _mixed_step(self):
        """A controller about to run one step that commits ``first`` (a
        result message) and accepts and dispatches ``second``, with a spy
        recording the commit, each crash edge passed (by point name) and
        each effect as ``(label, in_batch)``."""
        controller, store, input_queue, phy_queue = make_controller()
        first = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        ((name, dispatched),) = phy_queue.take_many(5)
        assert dispatched["txid"] == first.txid
        phy_queue.ack(name)
        input_queue.put(result_message(first.txid, "committed"))
        second = submit_spawn(store, input_queue, "vm2", vm_host="/vmRoot/vmHost1",
                              storage_host="/storageRoot/storageHost1")

        events: list[tuple[str, bool]] = []
        kv = store.kv

        def spy(label, call):
            def wrapper(*args):
                events.append((label, kv.in_batch()))
                return call(*args)
            return wrapper

        store.commit_batches = spy("commit", store.commit_batches)
        phy_queue.put_many = spy("dispatch", phy_queue.put_many)
        input_queue.ack_many = spy("ack", input_queue.ack_many)
        controller.fault_hook = lambda point: events.append((point, kv.in_batch()))
        controller.on_complete = spy("notify", lambda txn: None)
        return controller, store, first, second, events

    def test_effects_follow_the_one_commit_in_order(self):
        controller, _, _, _, events = self._mixed_step()
        assert controller.step() is True
        assert events == [
            ("pre-commit", False),
            ("commit", False),
            ("post-flush-pre-dispatch", False),
            ("notify", False),
            ("dispatch", False),
            ("post-commit-pre-ack", False),
            ("ack", False),
        ]

    @pytest.mark.parametrize("effect", ["post-flush-pre-dispatch", "notify", "dispatch", "ack"])
    def test_effect_observes_durable_state(self, effect):
        """At each effect the state it reveals is already in the store —
        read straight from the coordination service, not a batch overlay."""
        controller, store, first, second, _ = self._mixed_step()
        seen: dict[str, TransactionState] = {}

        def observe(*_):
            assert not store.kv.in_batch()
            for name, txn in (("first", first), ("second", second)):
                seen[name] = store.load_transaction(txn.txid).state

        owner, attr = {
            "post-flush-pre-dispatch": (controller, "fault_hook"),
            "notify": (controller, "on_complete"),
            "dispatch": (controller.phy_queue, "put_many"),
            "ack": (controller.input_queue, "ack_many"),
        }[effect]
        call = getattr(owner, attr)

        def wrapper(*args):
            if attr != "fault_hook" or args == (effect,):  # the hook sees every edge
                observe()
            return call(*args)

        setattr(owner, attr, wrapper)
        controller.step()
        assert seen == {
            "first": TransactionState.COMMITTED,
            "second": TransactionState.STARTED,
        }

    def test_a_step_that_only_handles_a_result_reports_progress(self):
        """Committing a result schedules nothing new, but its notification
        and ack are progress for run-until-idle drivers."""
        controller, store, input_queue, _ = make_controller()
        txn = submit_spawn(store, input_queue, "vm1")
        controller.run_until_idle()
        input_queue.put(result_message(txn.txid, "committed"))
        assert controller.step() is True
        assert store.load_transaction(txn.txid).state is TransactionState.COMMITTED
        assert controller.step() is False

    def test_idle_step_commits_nothing(self):
        controller, store, _, _ = make_controller()
        controller.recover()
        ensemble = store.kv.client.ensemble
        before = ensemble.write_round_trips
        commits = []
        real_commit = store.commit_batches
        store.commit_batches = lambda batches: commits.append(batches) or real_commit(batches)
        assert controller.step() is False
        assert commits == []
        assert ensemble.write_round_trips == before

    @staticmethod
    def _spy_exits(cluster, controller, events):
        """Record ``controller``'s commits (with the committed batch) and
        every message it sends, as ``(label, in_batch)`` events."""
        kv = controller.store.kv
        committed = []

        def spy(label, call):
            def wrapper(*args):
                events.append((label(*args), kv.in_batch()))
                return call(*args)
            return wrapper

        def commit_label(batches):
            committed.extend(batches)
            return "commit"

        controller.store.commit_batches = spy(commit_label, controller.store.commit_batches)
        controller.phy_queue.put_many = spy(lambda items: "dispatch", controller.phy_queue.put_many)
        controller.on_complete = spy(lambda txn: f"notify:{txn.state.value}", lambda txn: None)
        controller.input_queue.ack_many = spy(lambda names: "ack", controller.input_queue.ack_many)
        for shard, queue in cluster.input_queues.items():
            if shard != controller.shard_id:
                queue.put = spy(lambda message: f"send:{message['kind']}", queue.put)
        return committed

    def _recovering_shard(self):
        """Shard 0 of a two-shard cluster left by its leader holding a
        PREPARING coordinator ``x``, a PREPARED participant slice of ``y``
        (coordinated by shard 1, no decision yet) and a STARTED ``z``
        whose execute message was lost; returns a fresh replica for shard
        0, not yet recovered, with its exits spied."""
        cluster = ShardedCluster(num_shards=2, config=TropicConfig(checkpoint_every=100_000))
        # Routed to shard 1 by its argument; the simulation also writes a
        # shard-0 host, so shard 1 coordinates it.
        cluster.procedures.register(
            "importTwice",
            lambda ctx, vm_host, hidden: [
                ctx.do(path, "importImage", "img") for path in (vm_host, f"/vmRoot/{hidden}")
            ],
        )
        y = cluster.submit("importTwice", {"vm_host": "/vmRoot/vmHost2", "hidden": "vmHost1"})
        assert cluster.shard_of(y) == 1
        cluster.controllers[1].step()  # y PREPARING; its prepare waits in shard 0's inputQ
        z = cluster.submit(
            "createVolume",
            {"storage_host": "/storageRoot/storageHost0", "volume_name": "z", "size_gb": 1},
        )
        x = cluster.submit_cross_spawn("x", vm_host_index=0)
        assert x.coordinator == 0
        cluster.controllers[0].step()
        for name, _ in cluster.phy_queues[0].take_many(10):
            cluster.phy_queues[0].ack(name)  # z's dispatch is lost
        store = cluster.stores[0]
        assert [store.load_transaction(t.txid).state for t in (x, y, z)] == [
            TransactionState.PREPARING,
            TransactionState.PREPARED,
            TransactionState.STARTED,
        ]
        fresh = cluster.replace_controller(0)
        events: list[tuple[str, bool]] = []
        committed = self._spy_exits(cluster, fresh, events)
        return cluster, fresh, (x, y, z), events, committed

    def test_recovery_commits_once_then_sends(self):
        """Recovery's writes — the presumed abort of ``x`` and the
        dispatch-epoch bump — land in one commit, and the notification,
        the re-dispatch of ``z``, ``x``'s decision and ``y``'s re-vote
        all follow it."""
        cluster, fresh, (x, y, z), events, committed = self._recovering_shard()
        kv = fresh.store.kv
        direct = kv.direct_ops
        recovered_at_commit = []
        spied_commit = fresh.store.commit_batches

        def commit(batches):
            recovered_at_commit.append(fresh.recovered)
            return spied_commit(batches)

        fresh.store.commit_batches = commit
        fresh.recover()

        assert len(committed) == 1 and kv.direct_ops == direct  # one commit, no direct write
        assert recovered_at_commit == [False]  # set only once the commit returned
        assert fresh.recovered
        assert events == [
            ("commit", False),
            ("notify:aborted", False),
            ("dispatch", False),
            ("send:decision", False),
            ("send:vote", False),
        ]
        (batch,) = committed
        for key in (f"txns/{x.txid}", "meta/dispatch_epoch"):
            assert batch.pending(kv.full_key(key)) is not None, key
        # x's presumed-abort decision rides the same multi.
        assert batch.pending(fresh.twopc.kv.full_key(f"decisions/shard-0/{x.txid}")) is not None
        assert cluster.stores[0].load_transaction(x.txid).state is TransactionState.ABORTED
        assert [item["txid"] for _, item in cluster.phy_queues[0].take_many(10)] == [z.txid]
        sent = [item for _, item in cluster.input_queues[1].take_many(10)]
        assert {"kind": "decision", "txid": x.txid} in [
            {"kind": m["kind"], "txid": m["txid"]} for m in sent
        ]
        assert {"kind": "vote", "txid": y.txid} in [
            {"kind": m["kind"], "txid": m["txid"]} for m in sent
        ]

    def test_failed_recovery_commit_sends_nothing(self):
        """A recovery whose commit fails sends no message and leaves the
        replica unrecovered; the retried recovery sends each one."""
        cluster, fresh, _, events, _ = self._recovering_shard()
        client = fresh.store.kv.client
        real_multi = client.multi

        def failing_multi(ops):
            raise ConnectionError("injected commit failure")

        client.multi = failing_multi
        with pytest.raises(ConnectionError):
            fresh.recover()
        client.multi = real_multi
        assert events == [("commit", False)]
        assert fresh.recovered is False

        fresh.recover()
        assert fresh.recovered
        assert [label for label, _ in events[1:]] == [
            "commit", "notify:aborted", "dispatch", "send:decision", "send:vote",
        ]

    def test_fan_out_precedes_the_acks(self):
        """A coordinator step: its PREPARING record commits, the prepare
        fan-out follows, and the inputQ ack comes last."""
        cluster = ShardedCluster(num_shards=2)
        txn = cluster.submit_cross_spawn("prepared")
        controller = cluster.controllers[txn.coordinator]
        controller.recover()
        events: list[tuple[str, bool]] = []
        self._spy_exits(cluster, controller, events)
        assert controller.step() is True
        assert events == [("commit", False), ("send:prepare", False), ("ack", False)]

    def test_term_commits_one_batch(self):
        controller, store, _, _ = make_controller()
        controller.recover()
        ensemble = store.kv.client.ensemble
        multis, direct = ensemble.multi_count, store.kv.direct_ops
        controller.send_term("t1")
        assert ensemble.multi_count == multis + 1
        assert store.kv.direct_ops == direct
        assert store.get_signal("t1") == TERM

    def test_kill_commits_once_then_fans_out(self):
        """KILL of a STARTED cross-shard coordinator: the KILL signal, the
        ABORTED document, the fence and the ABORT decision land in one
        ``multi``; the client notification and the decision fan-out follow
        it."""
        cluster = ShardedCluster(num_shards=2, config=TropicConfig(checkpoint_every=100_000))
        txn = cluster.submit_cross_spawn("killed")
        store = cluster.stores[txn.coordinator]
        for _ in range(50):
            if store.load_transaction(txn.txid).state is TransactionState.STARTED:
                break
            for shard in cluster.shard_ids:
                cluster.controllers[shard].step()
        assert store.load_transaction(txn.txid).state is TransactionState.STARTED
        controller = cluster.controllers[txn.coordinator]
        events: list[tuple[str, bool]] = []
        committed = self._spy_exits(cluster, controller, events)
        decided_at_commit = []
        spied_commit = controller.store.commit_batches

        def commit(batches):
            decided_at_commit.append(cluster.twopc.decision(txn.txid, txn.coordinator))
            return spied_commit(batches)

        controller.store.commit_batches = commit
        ensemble = cluster.ensemble
        twopc_kv = controller.twopc.kv
        multis, direct = ensemble.multi_count, store.kv.direct_ops
        twopc_direct = twopc_kv.direct_ops

        controller.send_kill(txn.txid)

        assert len(committed) == 1 and store.kv.direct_ops == direct  # one commit, no direct write
        assert twopc_kv.direct_ops == twopc_direct  # the decision went into the batch
        assert ensemble.multi_count == multis + 1
        assert events == [
            ("commit", False),
            ("notify:aborted", False),
            ("send:decision", False),
        ]
        (batch,) = committed
        for key in (f"signals/{txn.txid}", f"txns/{txn.txid}", "inconsistent"):
            assert batch.pending(store.kv.full_key(key)) is not None, key
        # The ABORT decision is absent until the KILL's commit, durable after.
        assert decided_at_commit == [None]
        assert cluster.twopc.decision(txn.txid, txn.coordinator) == DECISION_ABORT
        assert store.load_transaction(txn.txid).state is TransactionState.ABORTED

    def test_store_write_from_an_effect_is_direct(self):
        """An observer that writes to the store from a notification writes
        through: no batch scope is open for it to be buffered into."""
        controller, store, first, _, _ = self._mixed_step()
        kv = store.kv

        def observer(txn):
            kv.put(f"observed/{txn.txid}", txn.state.value)

        controller.on_complete = observer
        controller.step()
        raw = kv.client.get_data(kv.full_key(f"observed/{first.txid}"))
        assert raw is not None
        assert kv.get(f"observed/{first.txid}") == TransactionState.COMMITTED.value
        assert not kv.in_batch()


class TestTodoQueueIndex:
    def _txn(self, name):
        return Transaction(name)

    def test_remove_is_indexed(self):
        queue = TodoQueue()
        txns = [self._txn(f"p{i}") for i in range(50)]
        for txn in txns:
            queue.push_back(txn)
        assert queue.remove(txns[25].txid) is txns[25]
        assert queue.remove(txns[25].txid) is None
        assert len(queue) == 49

    def test_repush_after_remove(self):
        queue = TodoQueue()
        a = self._txn("a")
        queue.push_back(a)
        queue.remove(a.txid)
        queue.push_front(a)
        assert queue.peek() is a
        assert len(queue) == 1
        assert queue.transactions() == [a]

    def test_repush_displaces_stale_entry(self):
        queue = TodoQueue()
        a, b = self._txn("a"), self._txn("b")
        queue.push_back(a)
        queue.push_back(b)
        queue.push_back(a)  # moves a behind b, never duplicates it
        assert [t.txid for t in queue.transactions()] == [b.txid, a.txid]
        assert len(queue) == 2

    def test_compaction_keeps_order(self):
        queue = TodoQueue()
        txns = [self._txn(f"p{i}") for i in range(64)]
        for txn in txns:
            queue.push_back(txn)
        for txn in txns[:48]:
            queue.remove(txn.txid)
        assert [t.txid for t in queue.transactions()] == [t.txid for t in txns[48:]]
        assert queue.peek() is txns[48]

    def test_iteration_skips_dead_cells(self):
        queue = TodoQueue(AGGRESSIVE)
        a, b, c = self._txn("a"), self._txn("b"), self._txn("c")
        for txn in (a, b, c):
            queue.push_back(txn)
        queue.remove(b.txid)
        assert list(queue) == [a, c]


class TestAggressiveConflictSkip:
    """The AGGRESSIVE policy schedules past *any number* of conflicting
    transactions in a single pass, while FIFO stops at the first."""

    def test_aggressive_schedules_past_multiple_blocked_transactions(self):
        controller, store, input_queue, phy_queue = make_controller(policy="aggressive")
        blocked_head = submit_spawn(store, input_queue, "vm1")
        blocked_second = submit_spawn(store, input_queue, "vm2")  # conflicts with vm1
        runnable = submit_spawn(store, input_queue, "vm3", vm_host="/vmRoot/vmHost1",
                                storage_host="/storageRoot/storageHost1")
        # Conflicts with vm1 through the shared storage host: also skipped.
        blocked_third = submit_spawn(store, input_queue, "vm4", vm_host="/vmRoot/vmHost2",
                                     storage_host="/storageRoot/storageHost0")
        controller.run_until_idle()
        assert store.load_transaction(blocked_head.txid).state is TransactionState.STARTED
        assert store.load_transaction(blocked_second.txid).state is TransactionState.DEFERRED
        assert store.load_transaction(runnable.txid).state is TransactionState.STARTED
        assert store.load_transaction(blocked_third.txid).state is TransactionState.DEFERRED
        assert phy_queue.size() == 2

    def test_fifo_blocks_behind_conflicting_head(self):
        controller, store, input_queue, phy_queue = make_controller(policy="fifo")
        submit_spawn(store, input_queue, "vm1")
        submit_spawn(store, input_queue, "vm2")  # conflicts with vm1
        other = submit_spawn(store, input_queue, "vm3", vm_host="/vmRoot/vmHost2",
                             storage_host="/storageRoot/storageHost1")
        controller.run_until_idle()
        # FIFO never even considers vm3 behind the deferred head: it stays
        # ACCEPTED in the queue while AGGRESSIVE (above) would start it.
        assert store.load_transaction(other.txid).state is TransactionState.ACCEPTED
        assert [t.txid for t in controller.todo.transactions()][-1] == other.txid
        assert phy_queue.size() == 1

    def test_deferred_transactions_keep_queue_order(self):
        controller, store, input_queue, _ = make_controller(policy="aggressive")
        submit_spawn(store, input_queue, "vm1")
        second = submit_spawn(store, input_queue, "vm2")
        third = submit_spawn(store, input_queue, "vm3")  # same host: also conflicts
        controller.run_until_idle()
        deferred = [txn.txid for txn in controller.todo.transactions()]
        assert deferred == [second.txid, third.txid]


class TestQueueBatchOperations:
    @pytest.fixture
    def queue(self, ensemble):
        return DistributedQueue(CoordinationClient(ensemble), "/queues/q")

    def test_put_many_preserves_order(self, ensemble, queue):
        before = ensemble.write_round_trips
        names = queue.put_many([{"n": i} for i in range(5)])
        assert len(names) == 5
        assert ensemble.write_round_trips == before + 1
        taken = queue.take_many(10)
        assert [item["n"] for _, item in taken] == list(range(5))
        assert [name for name, _ in taken] == names

    def test_take_many_then_ack_many(self, queue):
        queue.put_many([{"n": i} for i in range(4)])
        taken = queue.take_many(3)
        assert [item["n"] for _, item in taken] == [0, 1, 2]
        assert queue.size() == 4  # take does not remove
        queue.ack_many([name for name, _ in taken])
        assert queue.size() == 1
        assert [item["n"] for _, item in queue.take_many(10)] == [3]

    def test_empty_batches(self, queue):
        assert queue.put_many([]) == []
        assert queue.take_many(5) == []
        assert queue.ack_many([]) == 0


class TestDeepCopy:
    def test_nested_structures_are_independent(self):
        original = {"a": [1, {"b": [2, 3]}], "c": {"d": None, "e": True}}
        copy = deep_copy(original)
        assert copy == original
        copy["a"][1]["b"].append(4)
        copy["c"]["d"] = "changed"
        assert original["a"][1]["b"] == [2, 3]
        assert original["c"]["d"] is None

    def test_tuples_become_lists_like_json_roundtrip(self):
        assert deep_copy({"t": (1, 2)}) == json.loads(json.dumps({"t": [1, 2]}))

    def test_scalars_pass_through(self):
        for value in ("s", 5, 2.5, True, None):
            assert deep_copy(value) == value

    def test_matches_legacy_roundtrip_on_mixed_document(self):
        doc = {"k": [{"x": 1.5, "y": None}, [True, False], "z"], "n": 0}
        assert deep_copy(doc) == json.loads(json.dumps(doc))

    def test_non_string_keys_coerced_like_json(self):
        doc = {"outer": {1: "a", True: "b"}}
        assert deep_copy(doc) == json.loads(json.dumps(doc))


class TestPathInterning:
    def test_parse_returns_shared_instance(self):
        a = ResourcePath.parse("/x/y/z")
        b = ResourcePath.parse("/x/y/z")
        assert a is b

    def test_navigation_interns_too(self):
        a = ResourcePath.parse("/x/y/z")
        assert a.parent is ResourcePath.parse("/x/y")
        assert a.parent.child("z") is a

    def test_equality_and_hash_preserved(self):
        a = ResourcePath.parse("/x/y")
        b = ResourcePath(("x", "y"))  # direct construction bypasses the cache
        assert a == b and hash(a) == hash(b)
        assert a == "/x/y"

    def test_invalid_paths_still_rejected(self):
        from repro.common.errors import DataModelError

        with pytest.raises(DataModelError):
            ResourcePath.parse("/bad path/with spaces").parts


class TestSignalWatch:
    """One watched listing of ``signals/`` per board: free while no signal
    moves, re-listed after a post, a clear or a session change."""

    @pytest.fixture
    def board(self, store):
        from repro.core.signals import SignalBoard

        return SignalBoard(store)

    def test_board_costs_nothing_while_no_signal_moves(self, ensemble, board):
        assert board.present() == frozenset()
        before = ensemble.op_count
        for i in range(100):
            assert board.signal_of(f"t{i}") is None
        assert ensemble.op_count == before

    def test_board_relists_after_post_and_clear(self, ensemble, store, board):
        from repro.core.signals import SignalBoard

        board.present()
        other = SignalBoard(store)  # another observer posts and clears
        other.term("t1")
        before = ensemble.op_count
        assert board.signal_of("t1") == TERM
        assert ensemble.op_count == before + 2  # one re-list, one value read
        assert board.signal_of("t1") == TERM
        assert ensemble.op_count == before + 3  # listed: only the value read
        other.clear("t1")
        before = ensemble.op_count
        assert board.signal_of("t1") is None
        assert ensemble.op_count == before + 1  # one re-list
        assert board.signal_of("t1") is None
        assert ensemble.op_count == before + 1

    def test_board_relists_after_session_change(self, ensemble, store, board):
        board.term("t0")
        assert board.present() == {"t0"}
        store.kv.client.reconnect()
        before = ensemble.op_count
        assert board.present() == {"t0"}
        assert ensemble.op_count == before + 1
        board.present()
        assert ensemble.op_count == before + 1

    def test_watch_firing_during_listing_is_not_lost(self, store, board):
        """A post landing after the listing armed its watch but before the
        board recorded the listing must not be missed."""
        from repro.core.signals import SignalBoard

        listing = store.watch_signals

        def racing_listing(watcher):
            names = listing(watcher)
            SignalBoard(store).kill("t9")
            return names

        store.watch_signals = racing_listing
        assert board.present() == frozenset()  # the stale listing
        store.watch_signals = listing
        assert board.present() == {"t9"}
