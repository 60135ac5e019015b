"""Unit tests for the coordination ensemble (znodes, quorum, sessions, watches)."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import (
    BadVersionError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    QuorumLostError,
    SessionExpiredError,
)
from repro.coordination.ensemble import CoordinationEnsemble


@pytest.fixture
def ensemble():
    return CoordinationEnsemble(num_servers=3, default_session_timeout=10.0)


@pytest.fixture
def session(ensemble):
    return ensemble.create_session()


class TestZnodeOperations:
    def test_create_and_get(self, ensemble, session):
        ensemble.create(session.session_id, "/a", "hello")
        data, stat = ensemble.get(session.session_id, "/a")
        assert data == "hello"
        assert stat.version == 0

    def test_create_requires_parent(self, ensemble, session):
        with pytest.raises(NoNodeError):
            ensemble.create(session.session_id, "/a/b", "x")

    def test_create_duplicate_rejected(self, ensemble, session):
        ensemble.create(session.session_id, "/a")
        with pytest.raises(NodeExistsError):
            ensemble.create(session.session_id, "/a")

    def test_sequential_create_monotonic(self, ensemble, session):
        ensemble.create(session.session_id, "/q")
        first = ensemble.create(session.session_id, "/q/item-", sequential=True)
        second = ensemble.create(session.session_id, "/q/item-", sequential=True)
        assert first < second

    def test_set_bumps_version(self, ensemble, session):
        ensemble.create(session.session_id, "/a", "1")
        stat = ensemble.set(session.session_id, "/a", "2")
        assert stat.version == 1

    def test_conditional_set_with_wrong_version(self, ensemble, session):
        ensemble.create(session.session_id, "/a", "1")
        with pytest.raises(BadVersionError):
            ensemble.set(session.session_id, "/a", "2", version=5)

    def test_delete(self, ensemble, session):
        ensemble.create(session.session_id, "/a")
        ensemble.delete(session.session_id, "/a")
        assert ensemble.exists(session.session_id, "/a") is None

    def test_delete_with_children_rejected(self, ensemble, session):
        ensemble.create(session.session_id, "/a")
        ensemble.create(session.session_id, "/a/b")
        with pytest.raises(NotEmptyError):
            ensemble.delete(session.session_id, "/a")

    def test_get_children_sorted(self, ensemble, session):
        ensemble.create(session.session_id, "/a")
        ensemble.create(session.session_id, "/a/z")
        ensemble.create(session.session_id, "/a/b")
        assert ensemble.get_children(session.session_id, "/a") == ["b", "z"]

    def test_ensure_path_creates_chain(self, ensemble, session):
        ensemble.ensure_path(session.session_id, "/x/y/z")
        assert ensemble.exists(session.session_id, "/x/y/z") is not None

    def test_all_replicas_apply_writes(self, ensemble, session):
        ensemble.create(session.session_id, "/a", "v")
        for server in ensemble.servers:
            assert server.lookup("/a").data == "v"


class TestQuorum:
    def test_write_succeeds_with_one_server_down(self, ensemble, session):
        ensemble.crash_server(2)
        ensemble.create(session.session_id, "/a", "v")
        assert ensemble.get(session.session_id, "/a")[0] == "v"

    def test_write_fails_without_quorum(self, ensemble, session):
        ensemble.crash_server(1)
        ensemble.crash_server(2)
        with pytest.raises(QuorumLostError):
            ensemble.create(session.session_id, "/a")

    def test_restarted_server_syncs_state(self, ensemble, session):
        ensemble.crash_server(2)
        ensemble.create(session.session_id, "/a", "v")
        ensemble.restart_server(2)
        assert ensemble.servers[2].lookup("/a").data == "v"

    def test_has_quorum(self, ensemble):
        assert ensemble.has_quorum()
        ensemble.crash_server(0)
        assert ensemble.has_quorum()
        ensemble.crash_server(1)
        assert not ensemble.has_quorum()


class TestSessionsAndEphemerals:
    def test_session_expiry_removes_ephemerals(self):
        clock = VirtualClock()
        ensemble = CoordinationEnsemble(num_servers=3, clock=clock, default_session_timeout=1.0)
        dying = ensemble.create_session()
        watcher_session = ensemble.create_session(timeout=100.0)
        ensemble.create(dying.session_id, "/eph", ephemeral=True)
        clock.advance(2.0)
        ensemble.heartbeat(watcher_session.session_id)  # triggers lazy expiry
        assert ensemble.exists(watcher_session.session_id, "/eph") is None
        with pytest.raises(SessionExpiredError):
            ensemble.heartbeat(dying.session_id)

    def test_force_expire_session(self, ensemble, session):
        other = ensemble.create_session()
        ensemble.create(session.session_id, "/eph", ephemeral=True)
        ensemble.expire_session(session.session_id)
        assert ensemble.exists(other.session_id, "/eph") is None

    def test_close_session_removes_ephemerals(self, ensemble, session):
        other = ensemble.create_session()
        ensemble.create(session.session_id, "/eph", ephemeral=True)
        ensemble.close_session(session.session_id)
        assert ensemble.exists(other.session_id, "/eph") is None

    def test_persistent_nodes_survive_session_close(self, ensemble, session):
        other = ensemble.create_session()
        ensemble.create(session.session_id, "/durable")
        ensemble.close_session(session.session_id)
        assert ensemble.exists(other.session_id, "/durable") is not None

    def test_session_is_live(self, ensemble, session):
        assert ensemble.session_is_live(session.session_id)
        ensemble.expire_session(session.session_id)
        assert not ensemble.session_is_live(session.session_id)


class TestWatches:
    def test_data_watch_fires_on_change(self, ensemble, session):
        events = []
        ensemble.create(session.session_id, "/a", "1")
        ensemble.get(session.session_id, "/a", watcher=events.append)
        ensemble.set(session.session_id, "/a", "2")
        assert [e.kind for e in events] == ["changed"]

    def test_data_watch_is_one_shot(self, ensemble, session):
        events = []
        ensemble.create(session.session_id, "/a", "1")
        ensemble.get(session.session_id, "/a", watcher=events.append)
        ensemble.set(session.session_id, "/a", "2")
        ensemble.set(session.session_id, "/a", "3")
        assert len(events) == 1

    def test_child_watch_fires_on_create_and_delete(self, ensemble, session):
        events = []
        ensemble.create(session.session_id, "/parent")
        ensemble.get_children(session.session_id, "/parent", watcher=events.append)
        ensemble.create(session.session_id, "/parent/child")
        ensemble.get_children(session.session_id, "/parent", watcher=events.append)
        ensemble.delete(session.session_id, "/parent/child")
        assert [e.kind for e in events] == ["child", "child"]

    def test_exists_watch_fires_on_creation(self, ensemble, session):
        events = []
        assert ensemble.exists(session.session_id, "/future", watcher=events.append) is None
        ensemble.create(session.session_id, "/future")
        assert [e.kind for e in events] == ["created"]

    def test_op_count_increases(self, ensemble, session):
        before = ensemble.op_count
        ensemble.create(session.session_id, "/a")
        ensemble.get(session.session_id, "/a")
        assert ensemble.op_count >= before + 2


class TestAccounting:
    def test_every_write_charges_its_payload_bytes(self, ensemble, session):
        sid = session.session_id
        before = ensemble.bytes_written
        ensemble.create(sid, "/a", "12345")
        ensemble.set(sid, "/a", "123")
        ensemble.upsert(sid, "/b", "12")
        ensemble.multi(sid, [("upsert", "/c", "1"), ("delete", "/b", None)])
        assert ensemble.bytes_written - before == 5 + 3 + 2 + 1
