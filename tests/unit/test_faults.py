"""Unit tests for the schedulable ensemble faults (repro.testing.faults).

The chaos soak composes these; here each fault kind is pinned down in
isolation: deterministic write-count triggering, the error type surfaced to
the victim, degradation windows (latency, partition) opening and closing
on schedule, and ``cancel_pending`` restoring a healthy ensemble for
post-run verification.
"""

import pytest

from repro.common.errors import QuorumLostError, SessionExpiredError
from repro.coordination.client import CoordinationClient
from repro.testing import (
    CONNECTION_LOSS,
    EXPIRE_SESSION,
    LATENCY_SPIKE,
    PARTITION,
    FaultyEnsemble,
)


@pytest.fixture
def ensemble():
    return FaultyEnsemble(num_servers=3, default_session_timeout=3600.0)


@pytest.fixture
def client(ensemble):
    return CoordinationClient(ensemble)


class TestScheduling:
    def test_ops_count_reads_and_writes(self, ensemble, client):
        schedule = ensemble.fault_schedule
        base, writes = schedule.op_count, schedule.write_count
        client.create("/a", "x")
        client.get("/a")
        client.exists("/a")
        assert schedule.op_count == base + 3
        assert schedule.write_count == writes + 1

    def test_a_fault_fires_on_the_first_op_after_its_write(self, ensemble, client):
        """Reads before the N-th write do not move a fault; the first op
        of either kind after it takes the fault."""
        schedule = ensemble.fault_schedule
        schedule.connection_loss_at(schedule.write_count + 1)
        for _ in range(5):
            assert client.exists("/a") is None
        assert schedule.fired == []
        client.create("/a", "x")  # the first write: fine
        with pytest.raises(ConnectionError):
            client.get("/a")  # the first op after it, a read
        assert schedule.fired == [(schedule.write_count, CONNECTION_LOSS)]

    def test_expire_session_hits_the_issuing_session(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.expire_session_at(schedule.write_count + 1)
        client.create("/a", "x")  # write 1: fine
        with pytest.raises(SessionExpiredError):
            client.create("/b", "y")  # the first op after it: the victim
        assert not client.is_live()
        assert [kind for _, kind in schedule.fired] == [EXPIRE_SESSION]
        # The write provably did not take effect.
        client.reconnect()
        assert client.exists("/b") is None

    def test_connection_loss_is_transient(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.connection_loss_at(schedule.write_count)
        with pytest.raises(ConnectionError):
            client.create("/a", "x")
        assert [kind for _, kind in schedule.fired] == [CONNECTION_LOSS]
        # Session survives; a plain retry succeeds and nothing applied twice.
        assert client.is_live()
        client.create("/a", "x")
        assert client.get("/a")[0] == "x"

    def test_latency_spike_window(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.latency_spike_at(schedule.write_count, latency=0.5, duration=2)
        assert ensemble.op_latency == 0.0
        client.create("/a", "x")  # trigger: spike opens
        assert ensemble.op_latency == 0.5
        client.get("/a")
        client.get("/a")  # window of 2 ops elapsed: spike closes
        assert ensemble.op_latency == 0.0
        assert [kind for _, kind in schedule.fired] == [LATENCY_SPIKE]

    def test_partition_drops_quorum_then_heals(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.partition_at(schedule.write_count, duration=2)
        with pytest.raises(QuorumLostError):
            client.create("/a", "x")
        assert [kind for _, kind in schedule.fired] == [PARTITION]
        # Failed attempts still count ops, so retrying drives healing.
        with pytest.raises(QuorumLostError):
            client.create("/a", "x")
        client.create("/a", "x")  # majority restarted: back to normal
        assert client.get("/a")[0] == "x"

    def test_faults_fire_in_op_order_not_schedule_order(self, ensemble, client):
        schedule = ensemble.fault_schedule
        base = schedule.write_count
        schedule.connection_loss_at(base + 2)
        schedule.expire_session_at(base)
        with pytest.raises(SessionExpiredError):
            client.create("/a", "x")
        client.reconnect()
        client.create("/a", "x")
        with pytest.raises(ConnectionError):
            client.get("/a")
        assert [kind for _, kind in schedule.fired] == [
            EXPIRE_SESSION,
            CONNECTION_LOSS,
        ]


class TestCancelPending:
    def test_drops_unfired_events(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.expire_session_at(schedule.write_count)
        schedule.connection_loss_at(schedule.write_count + 1)
        assert schedule.pending() == 2
        schedule.cancel_pending()
        assert schedule.pending() == 0
        client.create("/a", "x")
        client.get("/a")
        assert schedule.fired == []

    def test_restores_active_degradation(self, ensemble, client):
        schedule = ensemble.fault_schedule
        schedule.latency_spike_at(schedule.write_count, latency=0.5, duration=100)
        schedule.partition_at(schedule.write_count + 1, duration=100)
        client.create("/a", "x")  # spike opens
        with pytest.raises(QuorumLostError):
            client.get("/a")  # partition opens
        schedule.cancel_pending()
        assert ensemble.op_latency == 0.0
        assert client.get("/a")[0] == "x"  # quorum is back
        # Fired history is preserved for post-run assertions.
        assert [kind for _, kind in schedule.fired] == [LATENCY_SPIKE, PARTITION]
