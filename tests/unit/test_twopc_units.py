"""Unit tests for the cross-shard 2PC building blocks (PR 3): routing
policy, message formats, transaction fields, the decision log,
log/rwset splitting and the read view's per-shard sources.  Wound-wait
handles prepare admission, so there is no fleet-wide prepare ticket."""

import warnings

import pytest

from repro.common.config import TropicConfig
from repro.common.errors import ConfigurationError
from repro.coordination.client import CoordinationClient
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue
from repro.core.controller import Controller
from repro.core.persistence import TropicStore
from repro.core.sharding import ShardMap, ShardRouter
from repro.core.twopc import TwoPCLog, shards_touched, split_log, split_rwset
from repro.core.txn import (
    ExecutionLog,
    ReadWriteSet,
    Transaction,
    TransactionState,
)
from repro.tcloud.entities import build_schema
from repro.tcloud.procedures import build_procedures
from repro.tcloud.service import build_tcloud


def _kv():
    ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
    return KVStore(CoordinationClient(ensemble), "/tropic/2pc")


def _map():
    return ShardMap(2, {"/vmRoot/vmHost0": 0, "/storageRoot/storageHost0": 1})


class TestRouterPolicy:
    def test_2pc_is_a_known_policy(self):
        router = ShardRouter(_map(), "2pc")
        assert router.policy == "2pc"
        TropicConfig(num_shards=2, cross_shard_policy="2pc").validate()

    def test_2pc_plan_returns_cross_shard_decision(self):
        router = ShardRouter(_map(), "2pc")
        decision = router.plan(
            "spawnVM",
            {"vm_host": "/vmRoot/vmHost0", "storage_host": "/storageRoot/storageHost0"},
        )
        assert decision.cross_shard
        assert decision.shard == min(decision.shards)
        assert decision.shards == frozenset({0, 1})

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_pin_is_refused(self, num_shards):
        with pytest.raises(ConfigurationError, match="pin"):
            ShardRouter(ShardMap(num_shards), "pin")

    def test_2pc_and_reject_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ShardRouter(_map(), "2pc")
            ShardRouter(_map(), "reject")


class TestTransactionFields:
    def test_cross_shard_fields_roundtrip(self):
        txn = Transaction(procedure="spawnVM", args={"x": 1})
        txn.coordinator = 0
        txn.participants = [0, 1]
        txn.votes = {"0": "yes", "1": "yes"}
        txn.mark(TransactionState.ACCEPTED, 0.5)
        txn.mark(TransactionState.PREPARING, 1.0)
        restored = Transaction.from_dict(txn.to_dict())
        assert restored.coordinator == 0
        assert restored.participants == [0, 1]
        assert restored.votes == {"0": "yes", "1": "yes"}
        assert restored.state is TransactionState.PREPARING
        assert restored.is_cross_shard

    def test_participant_slice_is_relative_to_the_holding_shard(self):
        txn = Transaction(procedure="spawnVM", coordinator=1, participants=[0, 1])
        assert txn.is_participant_slice(0)
        assert not txn.is_participant_slice(1)
        assert not Transaction(procedure="spawnVM").is_participant_slice(0)

    def test_single_shard_transaction_is_not_cross_shard(self):
        txn = Transaction(procedure="spawnVM")
        assert not txn.is_cross_shard
        restored = Transaction.from_dict(txn.to_dict())
        assert restored.participants == [] and restored.coordinator is None

    def test_prepare_states_are_active_not_terminal(self):
        for state in (TransactionState.PREPARING, TransactionState.PREPARED):
            assert not state.is_terminal


class TestTwoPCLog:
    def test_decision_roundtrip(self):
        log = TwoPCLog(_kv())
        assert log.decision("t1") is None
        record = log.decide("t1", "commit", coordinator=0, participants=[0, 1])
        assert record["participants"] == [0, 1]
        assert log.decision("t1") == "commit"
        assert log.decision_record("t1")["coordinator"] == 0
        log.clear_decision("t1")
        assert log.decision("t1") is None

    def test_ticket_primitives_are_gone(self):
        # The fleet-wide prepare ticket serialised every cross-shard
        # prepare; wound-wait replaced it.  Guard against reintroduction.
        log = TwoPCLog(_kv())
        for name in ("acquire_ticket", "release_ticket", "ticket_holder"):
            assert not hasattr(log, name)


class TestDecisionGC:
    def test_horizons_roundtrip(self):
        log = TwoPCLog(_kv())
        assert log.horizons() == {}
        log.publish_horizon(0, 3)
        log.publish_horizon(1, 1)
        assert log.horizons() == {0: 3, 1: 1}

    def test_mark_then_sweep_requires_every_participant_to_advance(self):
        log = TwoPCLog(_kv())
        log.decide("t1", "commit", coordinator=0, participants=[0, 1])
        log.publish_horizon(0, 1)
        log.publish_horizon(1, 1)
        # First pass marks (records current horizons), deletes nothing.
        assert log.gc_decisions(0) == 0
        assert log.decision_record("t1")["gc_horizons"] == {"0": 1, "1": 1}
        # Only the coordinator advanced: still not collectable.
        log.publish_horizon(0, 2)
        assert log.gc_decisions(0) == 0
        assert log.decision("t1") == "commit"
        # Every participant checkpointed past the mark: swept.
        log.publish_horizon(1, 2)
        assert log.gc_decisions(0) == 1
        assert log.decision("t1") is None

    def test_gc_only_touches_own_coordinated_decisions(self):
        log = TwoPCLog(_kv())
        log.decide("mine", "abort", coordinator=0, participants=[0, 1])
        log.decide("theirs", "commit", coordinator=1, participants=[0, 1])
        log.publish_horizon(0, 5)
        log.publish_horizon(1, 5)
        log.gc_decisions(0)
        log.publish_horizon(0, 6)
        log.publish_horizon(1, 6)
        assert log.gc_decisions(0) == 1
        assert log.decision("mine") is None
        assert log.decision("theirs") == "commit"

    def test_participant_without_published_horizon_blocks_gc(self):
        log = TwoPCLog(_kv())
        log.decide("t1", "commit", coordinator=0, participants=[0, 2])
        log.publish_horizon(0, 1)
        log.gc_decisions(0)  # mark: shard 2 stamped at -1 (never published)
        log.publish_horizon(0, 2)
        assert log.gc_decisions(0) == 0  # shard 2 still silent
        log.publish_horizon(2, 1)
        assert log.gc_decisions(0) == 1
        assert log.decision("t1") is None


class TestShardedDecisionKeys:
    """PR 5: decision records are keyed by coordinator shard so each
    shard's GC sweep reads only its own records."""

    def test_decide_writes_under_the_coordinator_directory(self):
        kv = _kv()
        log = TwoPCLog(kv)
        log.decide("t1", "commit", coordinator=3, participants=[1, 3])
        assert kv.get("decisions/shard-3/t1")["decision"] == "commit"
        assert kv.get("decisions/t1") is None

    def test_lookup_with_known_coordinator_is_a_point_read(self):
        log = TwoPCLog(_kv())
        log.decide("t1", "abort", coordinator=2)
        assert log.decision("t1", coordinator=2) == "abort"
        assert log.decision("missing", coordinator=2) is None

    @pytest.mark.parametrize("decided", [True, False])
    def test_known_coordinator_lookup_costs_one_get(self, decided, monkeypatch):
        kv = _kv()
        log = TwoPCLog(kv)
        if decided:
            log.decide("t1", "commit", coordinator=1, participants=[0, 1])
        gets = []
        real_get = kv.get

        def counting_get(key, default=None):
            gets.append(key)
            return real_get(key, default)

        monkeypatch.setattr(kv, "get", counting_get)
        monkeypatch.setattr(kv, "keys", lambda *a, **k: pytest.fail("listed"))
        assert log.decision("t1", coordinator=1) == ("commit" if decided else None)
        assert gets == ["decisions/shard-1/t1"]

    def test_clear_decision_deletes_only_that_record(self):
        kv = _kv()
        log = TwoPCLog(kv)
        log.decide("t1", "commit", coordinator=0)
        log.decide("t2", "abort", coordinator=1)
        log.clear_decision("t1")
        assert kv.get("decisions/shard-0/t1") is None
        assert log.decision("t2", coordinator=1) == "abort"


class TestDecisionsJoinTheCommit:
    """The decision log shares the shard store's coordination client, so
    its writes join the batch a controller commit has open: a decision,
    a cleared record, a horizon and the decision GC are durable only with
    that commit's one ``multi``."""

    def _wired(self):
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        client = CoordinationClient(ensemble)
        return ensemble, KVStore(client, "/tropic/shard-0"), TwoPCLog(KVStore(client, "/tropic/2pc"))

    def test_decide_is_durable_only_at_the_commit(self):
        ensemble, shard, log = self._wired()
        path = log.kv.full_key("decisions/shard-0/t1")
        with shard.batch():
            shard.put("txns/t1", {"state": "committed"})
            log.decide("t1", "commit", coordinator=0, participants=[0, 1])
            assert shard.client.get_data(path) is None
            assert log.decision("t1", coordinator=0) == "commit"
        assert ensemble.multi_count == 1
        assert shard.client.get_data(path) is not None

    def test_clear_decision_is_deferred_to_the_commit(self):
        ensemble, shard, log = self._wired()
        log.decide("t1", "abort", coordinator=0)
        path = log.kv.full_key("decisions/shard-0/t1")
        with shard.batch():
            log.clear_decision("t1", coordinator=0)
            assert log.decision("t1", coordinator=0) is None
            assert shard.client.get_data(path) is not None
        assert ensemble.multi_count == 1
        assert shard.client.get_data(path) is None

    def test_horizon_and_gc_ride_one_multi(self):
        ensemble, shard, log = self._wired()
        log.decide("t1", "commit", coordinator=0, participants=[0, 1])
        log.publish_horizon(1, 1)
        with shard.batch():
            log.publish_horizon(0, 1)
            assert log.gc_decisions(0) == 0  # the mark sees the pending horizon
        assert ensemble.multi_count == 1
        assert log.decision_record("t1")["gc_horizons"] == {"0": 1, "1": 1}
        log.publish_horizon(1, 2)
        with shard.batch():
            log.publish_horizon(0, 2)
            assert log.gc_decisions(0) == 1
            assert log.decision_record("t1") is None
            assert shard.client.get_data(log.kv.full_key("decisions/shard-0/t1")) is not None
        assert ensemble.multi_count == 2
        assert log.decision("t1") is None
        assert log.horizons() == {0: 2, 1: 2}

    @pytest.mark.parametrize("same_client", [True, False])
    def test_controller_requires_the_store_client(self, same_client):
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        client = CoordinationClient(ensemble)
        log_client = client if same_client else CoordinationClient(ensemble)

        def build():
            return Controller(
                name="ctrl-0",
                config=TropicConfig(),
                store=TropicStore(KVStore(client, "/tropic/shard-0")),
                input_queue=DistributedQueue(client, "/queues/inputQ"),
                phy_queue=DistributedQueue(client, "/queues/phyQ"),
                schema=build_schema(),
                procedures=build_procedures(),
                twopc=TwoPCLog(KVStore(log_client, "/tropic/2pc")),
            )

        if same_client:
            assert build().twopc.kv.client is client
        else:
            with pytest.raises(ConfigurationError, match="one coordination client"):
                build()

    @pytest.mark.parametrize("queue", ["input_queue", "phy_queue", "peer_queues"])
    def test_controller_requires_its_queues_on_the_store_client(self, queue):
        """A message joins the batch of the commit that sends it only when
        its queue shares the store's client; a queue over another client
        would write at once, so the controller refuses it."""
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        client, other = CoordinationClient(ensemble), CoordinationClient(ensemble)
        wiring = {
            "input_queue": DistributedQueue(client, "/queues/inputQ"),
            "phy_queue": DistributedQueue(client, "/queues/phyQ"),
            "peer_queues": {1: DistributedQueue(client, "/queues/shard-1/inputQ")},
        }
        wiring[queue] = (
            {1: DistributedQueue(other, "/queues/shard-1/inputQ")}
            if queue == "peer_queues"
            else DistributedQueue(other, f"/queues/{queue}")
        )
        with pytest.raises(ConfigurationError, match="one coordination client"):
            Controller(
                name="ctrl-0",
                config=TropicConfig(),
                store=TropicStore(KVStore(client, "/tropic/shard-0")),
                schema=build_schema(),
                procedures=build_procedures(),
                **wiring,
            )


class TestRetiredShardSweep:
    """PR 5: administrative sweep for a permanently decommissioned
    coordinator shard (``cli 2pc-gc --retired-shard N``)."""

    def test_retire_sweeps_the_retired_coordinators_records(self):
        log = TwoPCLog(_kv())
        log.decide("a", "commit", coordinator=1, participants=[0, 1])
        log.decide("b", "abort", coordinator=1, participants=[1, 2])
        log.decide("other", "commit", coordinator=0, participants=[0, 1])
        result = log.retire_shard(1)
        assert result["records_removed"] == 2
        assert log.decision("a") is None
        assert log.decision("b") is None
        assert log.decision("other") == "commit"  # other coordinators keep theirs

    def test_retired_horizon_unblocks_other_coordinators_sweeps(self):
        """A record naming the retired shard as *participant* must still
        be collectable: the retirement sentinel compares past any mark."""
        log = TwoPCLog(_kv())
        log.decide("t1", "commit", coordinator=0, participants=[0, 1])
        log.publish_horizon(0, 1)
        log.publish_horizon(1, 1)
        log.gc_decisions(0)  # mark at {0: 1, 1: 1}
        log.publish_horizon(0, 2)
        assert log.gc_decisions(0) == 0  # shard 1 silent: not collectable
        log.retire_shard(1)  # shard 1 decommissioned forever
        assert log.horizons()[1] == TwoPCLog.RETIRED_HORIZON
        assert log.gc_decisions(0) == 1
        assert log.decision("t1") is None

    def test_record_marked_after_retirement_is_still_swept(self):
        """A record whose first GC mark happens *after* the participant
        was retired stores the sentinel as its mark; the sweep must treat
        a retired participant as past any mark (a strict ``>`` against
        the sentinel itself would retain the record forever)."""
        log = TwoPCLog(_kv())
        log.decide("t1", "commit", coordinator=0, participants=[0, 1])
        log.retire_shard(1)  # retired before the coordinator ever marked
        log.publish_horizon(0, 1)
        log.gc_decisions(0)  # mark stamps shard 1 at the sentinel
        log.publish_horizon(0, 2)
        assert log.gc_decisions(0) == 1
        assert log.decision("t1") is None

    def test_retire_is_idempotent(self):
        log = TwoPCLog(_kv())
        log.decide("a", "commit", coordinator=2)
        assert log.retire_shard(2)["records_removed"] == 1
        assert log.retire_shard(2)["records_removed"] == 0


class TestSplitting:
    def _sample(self):
        log = ExecutionLog()
        log.append("/vmRoot/vmHost0", "createVM", ["vm1"], "removeVM", ["vm1"])
        log.append("/storageRoot/storageHost0", "cloneImage", ["t", "d"],
                   "removeImage", ["d"])
        log.append("/vmRoot/vmHost0/vm1", "startVM", [], "stopVM", [])
        rwset = ReadWriteSet(
            reads={"/storageRoot/storageHost0"},
            writes={"/vmRoot/vmHost0/vm1", "/storageRoot/storageHost0"},
            constraint_reads={"/vmRoot/vmHost0"},
        )
        return log, rwset

    def test_shards_touched_uses_simulated_paths(self):
        log, rwset = self._sample()
        assert shards_touched(_map(), log, rwset, coordinator=0) == {0, 1}

    def test_split_log_preserves_order_and_ownership(self):
        log, _ = self._sample()
        mine = split_log(_map(), log, shard=1, coordinator=0)
        assert [r["path"] for r in mine] == ["/storageRoot/storageHost0"]
        theirs = split_log(_map(), log, shard=0, coordinator=0)
        assert [r["seq"] for r in theirs] == [1, 3]

    def test_split_rwset_keeps_global_paths_everywhere(self):
        _, rwset = self._sample()
        rwset.record_constraint_read("/vmRoot")  # above sharding granularity
        for shard in (0, 1):
            part = split_rwset(_map(), rwset, shard, coordinator=0)
            assert "/vmRoot" in part["constraint_reads"]
        part1 = split_rwset(_map(), rwset, 1, coordinator=0)
        assert part1["writes"] == ["/storageRoot/storageHost0"]


class TestFleetViewSources:
    def _partial_cloud(self):
        config = TropicConfig(num_shards=2, logical_only=True)
        return build_tcloud(num_vm_hosts=8, num_storage_hosts=2, config=config,
                            logical_only=True, local_shards=[0])

    def test_default_serves_foreign_shards_from_replicas(self):
        """The PR 3 refusal is replaced by the constructive answer: the
        view composes local leaders with read replicas of the
        non-hosted shards, stamped with their watermarks.  Here no process
        ever hosts shard 1, so its namespace holds no checkpoint: the view
        must fall back to the bootstrap-frozen copy (disclosed as
        ``partial`` in the watermark) — never delete shard 1's units as if
        the shard owned nothing."""
        cloud = self._partial_cloud()
        with cloud.platform as platform:
            fleet = platform.fleet_view()
            assert fleet.watermarks[0].source == "leader"
            assert fleet.watermarks[1].source == "partial"
            # Every compute host is still visible, including shard 1's.
            for host in cloud.inventory.vm_hosts:
                assert fleet.model.exists(host)
            assert platform.model_view().exists("/vmRoot")

    def test_foreign_shard_becomes_replica_backed_once_bootstrapped(self):
        """The moment an owner process bootstraps shard 1's store, the same
        observer's next view switches that shard from the frozen fallback
        to a watermark-stamped replica."""
        ensemble = CoordinationEnsemble(num_servers=3, default_session_timeout=3600.0)
        config = TropicConfig(num_shards=2, logical_only=True)
        observer = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, config=config,
                                logical_only=True, local_shards=[0],
                                ensemble=ensemble)
        with observer.platform as platform:
            assert platform.fleet_view().watermarks[1].source == "partial"
            owner = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, config=config,
                                 logical_only=True, local_shards=[1],
                                 ensemble=ensemble)
            with owner.platform:
                fleet = platform.fleet_view()
                assert fleet.watermarks[1].source == "replica"
                assert fleet.replica_shards() == [1]

    def test_full_hosting_serves_every_shard_from_its_leader(self):
        config = TropicConfig(num_shards=2, logical_only=True)
        cloud = build_tcloud(num_vm_hosts=8, num_storage_hosts=2, config=config,
                             logical_only=True)
        with cloud.platform as platform:
            fleet = platform.fleet_view()
            assert {s: w.source for s, w in fleet.watermarks.items()} == {
                0: "leader", 1: "leader"
            }
            assert fleet.replica_shards() == []
            assert not fleet.degraded
            assert platform.model_view().exists("/vmRoot")

