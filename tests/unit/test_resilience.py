"""Cross-component resilience units (PR 6).

One file for the small fault-survival contracts the chaos soak composes:
tokened submission dedup on the platform API, the uniform txn_timeout,
worker claimed-work retention, replica
watch re-arm rollback, graceful read degradation, and the typed
retryable gateway responses.
"""

import pytest

from repro.common.errors import (
    ConfigurationError,
    QuorumLostError,
    SessionExpiredError,
    TxnTimeout,
)
from repro.coordination.kvstore import KVStore
from repro.core.persistence import TropicStore
from repro.core.platform import shard_store_prefix
from repro.core.replica import ReadReplica
from repro.core.txn import TransactionState
from repro.metrics.collectors import ResilienceCounters
from repro.testing import ShardedCluster

from tests.unit.test_core_platform import make_platform, spawn_args


class TestTokenedSubmit:
    def test_same_token_resolves_to_same_transaction(self):
        platform, _ = make_platform()
        with platform:
            first = platform.submit(
                "spawnVM", spawn_args("vm1"), idempotency_token="tok-1"
            )
            again = platform.submit(
                "spawnVM", spawn_args("vm1"), idempotency_token="tok-1"
            )
            assert first.txid == again.txid
            assert first.state is TransactionState.COMMITTED
            assert platform.resilience_stats()["token_dedup_hits"] == 1
            # Applied exactly once despite two submits.
            assert platform.model_view().exists("/vmRoot/vmHost0/vm1")
            store = platform.leader().store
            applied = [txid for _, txid in store.applied_entries(0)]
            assert applied.count(first.txid) == 1

    def test_distinct_tokens_create_distinct_transactions(self):
        platform, _ = make_platform()
        with platform:
            one = platform.submit("spawnVM", spawn_args("a"), idempotency_token="t1")
            two = platform.submit("spawnVM", spawn_args("b"), idempotency_token="t2")
            assert one.txid != two.txid

    def test_redrive_after_enqueue_lost_after_commit(self, monkeypatch):
        """The document and its token record committed, then the inputQ
        enqueue failed, so no controller will ever take the request.  A
        retry with the same token re-enqueues the original transaction."""
        platform, _ = make_platform()
        with platform:
            queue = platform.input_queue
            real_put = queue.put

            def lose_once(item):
                monkeypatch.setattr(queue, "put", real_put)
                raise QuorumLostError("enqueue lost after the commit")

            monkeypatch.setattr(queue, "put", lose_once)
            with pytest.raises(QuorumLostError):
                platform.submit("spawnVM", spawn_args("vm1"), idempotency_token="t")
            entry = platform.store.lookup_token("t")
            assert entry is not None and queue.is_empty()
            again = platform.submit("spawnVM", spawn_args("vm1"), idempotency_token="t")
            assert again.txid == entry["txid"]
            assert again.state is TransactionState.COMMITTED

    def test_submit_many_tokens_dedup_individually(self):
        platform, _ = make_platform()
        with platform:
            first = platform.submit_many(
                [("spawnVM", spawn_args("a")), ("spawnVM", spawn_args("b"))],
                idempotency_tokens=["t1", None],
            )
            second = platform.submit_many(
                [("spawnVM", spawn_args("a")), ("spawnVM", spawn_args("c"))],
                idempotency_tokens=["t1", None],
            )
            assert second[0].txid == first[0].txid  # deduped by token
            assert second[1].txid != first[1].txid  # untokened: new txn

    def test_submit_many_token_count_mismatch_rejected(self):
        platform, _ = make_platform()
        with platform:
            with pytest.raises(ConfigurationError):
                platform.submit_many(
                    [("spawnVM", spawn_args("a"))], idempotency_tokens=["t", "x"]
                )


class TestTxnTimeout:
    def test_wait_for_honours_config_txn_timeout(self):
        """config.txn_timeout caps every wait, typed as the ambiguous
        (retry-with-token-only) TxnTimeout."""
        platform, _ = make_platform(txn_timeout=0.05, queue_poll_interval=0.01)
        with platform:
            # Force the polling wait path (the inline runtime would
            # otherwise self-drive and report a lost transaction instead
            # of timing out).
            platform.threaded = True
            try:
                with pytest.raises(TxnTimeout) as excinfo:
                    platform.wait_for("txn-does-not-exist", timeout=10.0)
            finally:
                platform.threaded = False
            assert excinfo.value.txid == "txn-does-not-exist"
            # Typed error stays a TimeoutError for legacy callers.
            assert isinstance(excinfo.value, TimeoutError)


class TestWorkerRetention:
    def test_results_survive_a_failed_inputq_put(self):
        """A worker whose result put_many fails transiently retains the
        outbox and delivers on the next step — the claim is durable and
        redispatch skips claimed txids, so nobody else can finish it."""
        cluster = ShardedCluster(num_shards=1)
        txn = cluster.submit_spawn("vm1")
        cluster.controllers[0].step()  # accept + dispatch
        worker = cluster.workers[0]
        original_put_many = worker.input_queue.put_many

        def failing_put_many(items):
            raise ConnectionError("coordination blip")

        worker.input_queue.put_many = failing_put_many
        with pytest.raises(ConnectionError):
            worker.step()
        assert worker._outbox, "executed result must be retained"
        assert cluster.stores[0].load_claim(txn.txid) is not None
        # Heal and re-step: the retained result is delivered first.
        worker.input_queue.put_many = original_put_many
        assert worker.step() is True
        assert worker._outbox == []
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED

    def test_claimed_work_executes_after_interrupted_step(self):
        """A transient fault after the claim multi but before execution:
        the claimed transaction is retained and finished next step."""
        cluster = ShardedCluster(num_shards=1)
        txn = cluster.submit_spawn("vm1")
        cluster.controllers[0].step()
        worker = cluster.workers[0]
        original_execute = worker.executor.execute
        calls = {"n": 0}

        def failing_execute(t):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SessionExpiredError("session lost mid-execute-batch")
            return original_execute(t)

        worker.executor.execute = failing_execute
        with pytest.raises(SessionExpiredError):
            worker.step()
        assert txn.txid in worker._claimed
        assert worker.step() is True
        assert txn.txid not in worker._claimed
        cluster.drain()
        assert cluster.state_of(txn) is TransactionState.COMMITTED


class TestReplicaWatchRearm:
    def test_failed_arming_rolls_back_the_armed_flag(self):
        """If watch registration dies with the session, the armed flag
        must roll back — a stale-true flag would skip re-registration
        forever and the replica would never wake again."""
        cluster = ShardedCluster(num_shards=1)
        cluster.submit_spawn("vm1")
        cluster.drain()
        counters = ResilienceCounters()
        store = TropicStore(KVStore(cluster.client, shard_store_prefix(0, cluster.num_shards)))
        replica = ReadReplica(
            store, cluster.schema, cluster.procedures, shard_id=0, counters=counters
        )
        assert replica.model().exists("/vmRoot/vmHost0/vm1")
        # Break watch registration once (as a mid-arm session expiry would).
        kv = replica.store.kv
        original_watch_children = kv.watch_children

        def failing_watch_children(path, callback):
            raise SessionExpiredError("expired mid-arm")

        replica._applied_watch_armed = False
        kv.watch_children = failing_watch_children
        with pytest.raises(SessionExpiredError):
            replica.refresh(force=True)
        assert replica._applied_watch_armed is False  # rolled back
        kv.watch_children = original_watch_children
        replica.refresh(force=True)
        assert replica._applied_watch_armed is True
        # The re-registration after bootstrap was counted as a re-arm.
        assert counters.watch_rearms >= 1


def _unreachable_leader(shard=None):
    raise SessionExpiredError("leader session expired")


def _no_quorum(self, force=False):
    raise QuorumLostError("no quorum to bootstrap from")


class TestDegradedReads:
    def test_single_shard_fleet_view_degrades_on_leader_loss(self, monkeypatch):
        """Leader unreachable: the read falls back to the shard's read
        replica, disclosed in the watermark and ``degraded_shards``,
        instead of failing."""
        platform, _ = make_platform()
        with platform:
            platform.submit("spawnVM", spawn_args("vm1"))
            assert platform.fleet_view().watermarks[0].source == "leader"
            monkeypatch.setattr(platform, "leader", _unreachable_leader)
            degraded = platform.fleet_view()
            assert degraded.watermarks[0].source == "replica"
            assert degraded.degraded_shards == [0]
            # The degraded view still serves the committed data.
            assert degraded.model.exists("/vmRoot/vmHost0/vm1")
            assert platform.resilience_stats()["degraded_reads"] == 1
            monkeypatch.undo()
            assert platform.fleet_view().watermarks[0].source == "leader"

    def test_no_reachable_source_is_retryable_at_the_gateway(
        self, gateway_fixture, monkeypatch
    ):
        """The ladder's last rung through the front door: no leader and no
        replica able to bootstrap is a retryable ``Unavailable``, not the
        bootstrap model served as the fleet."""
        gateway = gateway_fixture
        monkeypatch.setattr(gateway.cloud.platform, "leader", _unreachable_leader)
        monkeypatch.setattr(ReadReplica, "refresh", _no_quorum)
        response = gateway.handle("acme-key", "DescribeInstances")
        assert response.ok is False
        assert response.code == "Unavailable"
        assert response.retryable is True


class TestGatewayRetryable:
    def _raise(self, error):
        def handler(tenant, **params):
            raise error

        return handler

    def test_timeout_surfaces_as_ambiguous_retryable(self, gateway_fixture):
        gateway = gateway_fixture
        gateway._handlers["RunInstances"] = self._raise(TxnTimeout("slow", txid="t1"))
        response = gateway.handle(
            "acme-key", "RunInstances", name="web", instance_type="t.small"
        )
        assert response.ok is False
        assert response.code == "Timeout"
        assert response.retryable is True
        assert response.retry_after_s > 0
        assert response.to_dict()["retryable"] is True

    def test_transient_platform_faults_surface_as_unavailable(self, gateway_fixture):
        gateway = gateway_fixture
        gateway._handlers["RunInstances"] = self._raise(
            SessionExpiredError("leader session lost")
        )
        response = gateway.handle(
            "acme-key", "RunInstances", name="web", instance_type="t.small"
        )
        assert response.ok is False
        assert response.code == "Unavailable"
        assert response.retryable is True

    def test_denials_stay_non_retryable(self, gateway_fixture):
        response = gateway_fixture.handle("acme-key", "MigrateInstance", name="web")
        assert response.ok is False
        assert response.retryable is False
        assert response.retry_after_s is None


@pytest.fixture
def gateway_fixture(inline_cloud):
    from repro.gateway import ApiGateway, TenantDirectory

    tenants = TenantDirectory()
    tenants.register("acme", "acme-key")
    return ApiGateway(inline_cloud, tenants)
