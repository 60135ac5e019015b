"""Unit tests for the client, queue, election and KV-store recipes."""

import pytest

from repro.common.errors import SessionExpiredError
from repro.coordination.client import CoordinationClient
from repro.coordination.election import LeaderElection
from repro.coordination.ensemble import CoordinationEnsemble
from repro.coordination.kvstore import KVStore
from repro.coordination.queue import DistributedQueue


@pytest.fixture
def ensemble():
    return CoordinationEnsemble(num_servers=3, default_session_timeout=10.0)


@pytest.fixture
def client(ensemble):
    return CoordinationClient(ensemble)


class TestClient:
    def test_set_or_create_upserts(self, client):
        client.set_or_create("/doc", "v1")
        client.set_or_create("/doc", "v2")
        assert client.get("/doc")[0] == "v2"

    def test_get_data_default(self, client):
        assert client.get_data("/missing", default="d") == "d"

    def test_delete_if_exists(self, client):
        client.create("/a")
        assert client.delete_if_exists("/a") is True
        assert client.delete_if_exists("/a") is False

    def test_reconnect_after_expiry(self, ensemble, client):
        ensemble.expire_session(client.session_id)
        with pytest.raises(SessionExpiredError):
            client.create("/x")
        client.reconnect()
        client.create("/x")
        assert client.exists("/x") is not None

    def test_is_live(self, ensemble, client):
        assert client.is_live()
        ensemble.expire_session(client.session_id)
        assert not client.is_live()


class TestDistributedQueue:
    def test_fifo_order(self, client):
        queue = DistributedQueue(client, "/queues/test")
        queue.put({"n": 1})
        queue.put({"n": 2})
        queue.put({"n": 3})
        order = []
        while taken := queue.take_many(1):
            ((name, item),) = taken
            order.append(item["n"])
            assert queue.ack(name) is True
        assert order == [1, 2, 3]

    def test_take_many_on_empty_queue_returns_nothing(self, client):
        queue = DistributedQueue(client, "/queues/empty")
        assert queue.take_many(5) == []

    def test_take_ack_semantics(self, client):
        queue = DistributedQueue(client, "/queues/ack")
        queue.put({"n": 1})
        ((name, item),) = queue.take_many(5)
        assert item["n"] == 1
        # Item stays until acknowledged: a second take sees it again.
        assert queue.size() == 1
        assert queue.take_many(5) == [(name, item)]
        assert queue.ack(name) is True
        assert queue.size() == 0
        assert queue.ack(name) is False

    def test_ack_many_empties_a_taken_queue(self, client):
        queue = DistributedQueue(client, "/queues/drain")
        for n in range(5):
            queue.put({"n": n})
        taken = queue.take_many(10)
        assert [item["n"] for _, item in taken] == list(range(5))
        assert queue.ack_many([name for name, _ in taken]) == 5
        assert queue.is_empty()


class TestLeaderElection:
    def test_first_volunteer_becomes_leader(self, ensemble):
        a = LeaderElection(CoordinationClient(ensemble), "/election", "alpha")
        b = LeaderElection(CoordinationClient(ensemble), "/election", "beta")
        a.volunteer()
        b.volunteer()
        assert a.is_leader()
        assert not b.is_leader()
        assert a.current_leader() == "alpha"

    def test_leadership_transfers_on_session_expiry(self, ensemble):
        client_a = CoordinationClient(ensemble)
        client_b = CoordinationClient(ensemble)
        a = LeaderElection(client_a, "/election", "alpha")
        b = LeaderElection(client_b, "/election", "beta")
        a.volunteer()
        b.volunteer()
        ensemble.expire_session(client_a.session_id)
        assert b.is_leader()
        assert b.current_leader() == "beta"

    def test_resign_transfers_leadership(self, ensemble):
        a = LeaderElection(CoordinationClient(ensemble), "/election", "alpha")
        b = LeaderElection(CoordinationClient(ensemble), "/election", "beta")
        a.volunteer()
        b.volunteer()
        a.resign()
        assert b.is_leader()

    def test_on_change_callback_invoked(self, ensemble):
        changes = []
        client_a = CoordinationClient(ensemble)
        a = LeaderElection(client_a, "/election", "alpha")
        b = LeaderElection(
            CoordinationClient(ensemble), "/election", "beta", on_change=changes.append
        )
        a.volunteer()
        b.volunteer()
        ensemble.expire_session(client_a.session_id)
        assert True in changes

    def test_members_sorted_by_sequence(self, ensemble):
        a = LeaderElection(CoordinationClient(ensemble), "/election", "alpha")
        b = LeaderElection(CoordinationClient(ensemble), "/election", "beta")
        a.volunteer()
        b.volunteer()
        assert [name for _, name in a.members()] == ["alpha", "beta"]

    def test_no_leader_without_volunteers(self, ensemble):
        a = LeaderElection(CoordinationClient(ensemble), "/election", "alpha")
        assert a.current_leader() is None
        assert not a.is_leader()


class TestKVStore:
    def test_put_get_roundtrip(self, client):
        store = KVStore(client, "/kv")
        store.put("a/b", {"x": 1, "y": [1, 2]})
        assert store.get("a/b") == {"x": 1, "y": [1, 2]}

    def test_get_default(self, client):
        store = KVStore(client, "/kv")
        assert store.get("missing", default=42) == 42

    def test_exists_and_delete(self, client):
        store = KVStore(client, "/kv")
        store.put("doc", 1)
        assert store.exists("doc")
        store.delete("doc")
        assert not store.exists("doc")

    def test_recursive_delete(self, client):
        store = KVStore(client, "/kv")
        store.put("tree/a", 1)
        store.put("tree/b/c", 2)
        store.delete("tree", recursive=True)
        assert store.keys("tree") == []

    def test_keys_and_items(self, client):
        store = KVStore(client, "/kv")
        store.put("txns/t1", {"id": 1})
        store.put("txns/t2", {"id": 2})
        assert store.keys("txns") == ["t1", "t2"]
        assert dict(store.items("txns")) == {"t1": {"id": 1}, "t2": {"id": 2}}

    def test_keys_of_missing_prefix(self, client):
        store = KVStore(client, "/kv")
        assert store.keys("nothing/here") == []
