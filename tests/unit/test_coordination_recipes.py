"""Unit tests for the client, queue, election and KV-store recipes."""

import sys
import threading

import pytest

from repro.common.errors import QuorumLostError, SessionExpiredError
from repro.coordination.client import READ_MULTI_LIMIT, CoordinationClient
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


    def test_the_first_take_costs_two_reads_whatever_the_count(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/reads")
        queue.put_many([{"n": n} for n in range(40)])
        before = ensemble.read_round_trips
        taken = queue.take_many(64)
        assert [item["n"] for _, item in taken] == list(range(40))
        assert ensemble.read_round_trips - before == 2  # the arming listing, one read

    def test_a_later_take_costs_one_read(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/reads")
        queue.put_many([{"n": n} for n in range(40)])
        queue.ack_many([name for name, _ in queue.take_many(64)])
        queue.put_many([{"n": n} for n in range(40, 50)])
        before = ensemble.op_count
        assert [item["n"] for _, item in queue.take_many(64)] == list(range(40, 50))
        assert ensemble.op_count - before == 1

    def test_an_empty_take_costs_nothing(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/idle")
        assert queue.take_many(8) == []  # arms the watch
        before = ensemble.op_count
        for _ in range(100):
            assert queue.take_many(8) == []
            assert queue.is_empty() and queue.size() == 0
        assert ensemble.op_count == before

    def test_take_many_skips_an_item_acked_since_the_listing(self, client):
        queue = DistributedQueue(client, "/queues/raced")
        queue.put_many([{"n": 0}, {"n": 1}])
        first = sorted(client.get_children("/queues/raced"))[0]
        real = client.add_child_watch

        def listing_then_ack(path, watcher):
            children = real(path, watcher)
            client.delete(f"{path}/{first}")  # another consumer's ack
            return children

        client.add_child_watch = listing_then_ack
        assert [item["n"] for _, item in queue.take_many(5)] == [1]
        assert queue.size() == 1  # the acked name left the mirror


class TestChildMirror:
    """The persistent child watch behind every queue consumer and the
    signal board: its races and its lifetime."""

    def test_a_put_while_the_listing_is_in_flight_is_not_lost(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/race")
        producer = DistributedQueue(CoordinationClient(ensemble), "/queues/race")
        real = client.add_child_watch

        def listing_then_put(path, watcher):
            children = real(path, watcher)
            producer.put({"n": 1})  # its event arrives before the listing does
            return children

        client.add_child_watch = listing_then_put
        assert [item["n"] for _, item in queue.take_many(5)] == [1]

    def test_events_carry_the_child_path(self, ensemble, client):
        client.create("/q")
        events = []
        assert ensemble.add_child_watch(client.session_id, "/q", events.append) == []
        created = client.create("/q/item-", sequential=True)
        client.multi([("upsert", "/q/a/deep", "x"), ("delete", created, None)])
        assert [(e.kind, e.path) for e in events] == [
            ("created", created), ("created", "/q/a"), ("deleted", created),
        ]

    @pytest.mark.parametrize("end", ["close_session", "expire_session"])
    def test_an_ended_sessions_watcher_is_told_and_gets_no_more_events(
        self, ensemble, client, end
    ):
        client.create("/q")
        events = []
        watcher = CoordinationClient(ensemble)
        watcher.add_child_watch("/q", events.append)
        client.create("/q/a")
        getattr(ensemble, end)(watcher.session_id)
        client.create("/q/b")
        assert [(e.kind, e.path) for e in events] == [("created", "/q/a"), ("expired", "/q")]
        assert ensemble._child_streams["/q"] == {}

    def test_an_idle_consumer_notices_its_session_expired(self, ensemble, client):
        """An expiry while the queue is empty disarms the mirror, so the
        next idle poll fails instead of reading a stale empty set, and
        the consumer can heal; the healed mirror sees another client's put."""
        queue = DistributedQueue(client, "/queues/idle")
        assert queue.take_many(5) == []
        ensemble.expire_session(client.session_id)
        with pytest.raises(SessionExpiredError):
            queue.take_many(5)
        with pytest.raises(SessionExpiredError):
            queue.is_empty()
        client.reconnect()
        DistributedQueue(CoordinationClient(ensemble), "/queues/idle").put({"n": 1})
        assert [item["n"] for _, item in queue.take_many(5)] == [1]

    def test_a_session_change_relists_and_keeps_one_watcher(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/s")
        queue.put({"n": 0})
        assert queue.size() == 1
        ensemble.expire_session(client.session_id)
        client.reconnect()
        DistributedQueue(CoordinationClient(ensemble), "/queues/s").put({"n": 1})
        before = ensemble.read_round_trips
        assert queue.size() == 2  # re-listed under the new session
        assert ensemble.read_round_trips - before == 1
        assert len(ensemble._child_streams["/queues/s"]) == 1

    def test_threads_share_a_mirror_without_losing_a_name(self, ensemble, client):
        """Producers put while a consumer takes, acks and re-arms: every
        item is taken, and the drained mirror lists exactly the queue."""
        queue = DistributedQueue(client, "/queues/stress")
        producers = [
            DistributedQueue(CoordinationClient(ensemble), "/queues/stress") for _ in range(4)
        ]
        done = threading.Event()
        taken: list[str] = []

        def produce(producer):
            for n in range(150):
                producer.put({"n": n})

        def consume():
            rounds = 0
            while not done.is_set() or queue.size():
                rounds += 1
                if rounds % 5 == 0:
                    queue.mirror.disarm()  # as after a transient error
                for name, _ in queue.take_many(16):
                    queue.ack(name)
                    taken.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=(p,)) for p in producers]
            consumer = threading.Thread(target=consume)
            for thread in [*threads, consumer]:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            done.set()
            consumer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive() and not any(t.is_alive() for t in threads)
        assert len(taken) == len(set(taken)) == 600
        assert queue.mirror.names() == set(client.get_children("/queues/stress")) == set()

    def test_a_transient_error_relists(self, ensemble, client):
        queue = DistributedQueue(client, "/queues/t")
        queue.put({"n": 0})
        get_many = client.get_many

        def lose_connection(paths):
            raise ConnectionError("injected")

        client.get_many = lose_connection
        with pytest.raises(ConnectionError):
            queue.take_many(5)
        client.get_many = get_many
        before = ensemble.read_round_trips
        assert [item["n"] for _, item in queue.take_many(5)] == [0]
        assert ensemble.read_round_trips - before == 2
        assert len(ensemble._child_streams["/queues/t"]) == 1


class TestGetMany:
    """The read-only multi: one round-trip per chunk of paths."""

    def test_absent_paths_read_as_none(self, ensemble, client):
        client.create("/a", "x")
        client.create("/b", "")
        before = ensemble.read_round_trips
        assert client.get_many(["/a", "/missing", "/b", "/a/deeper"]) == ["x", None, "", None]
        assert ensemble.read_round_trips - before == 1

    def test_no_paths_cost_no_round_trip(self, ensemble, client):
        before = ensemble.read_round_trips
        assert client.get_many([]) == []
        assert ensemble.read_round_trips == before

    def test_a_long_read_goes_out_in_chunks(self, ensemble, client):
        paths = [f"/n{index}" for index in range(READ_MULTI_LIMIT + 1)]
        client.multi([("upsert", path, path) for path in paths])
        before = ensemble.read_round_trips
        assert client.get_many(paths) == paths
        assert ensemble.read_round_trips - before == 2

    def test_an_expired_session_fails_the_whole_call(self, ensemble, client):
        client.create("/a", "x")
        ensemble.expire_session(client.session_id)
        with pytest.raises(SessionExpiredError):
            client.get_many(["/a", "/missing"])

    def test_a_lost_quorum_fails_the_whole_call(self, ensemble, client):
        client.create("/a", "x")
        ensemble.crash_server(0)
        ensemble.crash_server(1)
        with pytest.raises(QuorumLostError):
            client.get_many(["/a"])

    def test_the_open_batch_shows_through_and_is_not_read(self, ensemble, client):
        store = KVStore(client, "/kv")
        store.put("kept", 1)
        store.put("dropped", 2)
        store.put("replaced", 3)
        with store.batch():
            store.put("replaced", 30)
            store.put("new", 4)
            store.delete("dropped")
            before = ensemble.read_round_trips
            assert store.get_many(["replaced", "new", "dropped"]) == [30, 4, None]
            assert ensemble.read_round_trips == before
            assert store.get_many(["kept", "dropped", "absent"]) == [1, None, None]
            assert ensemble.read_round_trips - before == 1


class TestQueueJoinsTheOpenBatch:
    """Puts and acks join the write batch the calling thread has open on
    the client, exactly as KV-store writes do, and commit in its one
    ``multi``; with no batch open each call writes at once."""

    def test_puts_and_acks_wait_for_the_batch_commit(self, ensemble, client):
        queue = DistributedQueue(client, "/q")
        queue.put({"n": 0})
        ((taken, _),) = queue.take_many(10)
        kv = KVStore(client, "/docs")
        multis = ensemble.multi_count
        with kv.batch():
            kv.put("doc", {"v": 1})
            assert queue.put({"n": 1}) is None  # named at commit
            assert queue.put_many([{"n": 2}, {"n": 3}]) == []
            assert queue.ack(taken) is True
            assert queue.size() == 1 and client.get_data("/docs/doc") is None
        assert ensemble.multi_count == multis + 1
        assert [item["n"] for _, item in queue.take_many(10)] == [1, 2, 3]
        assert kv.get("doc") == {"v": 1}

    def test_a_discarded_batch_sends_and_consumes_nothing(self, client):
        queue = DistributedQueue(client, "/q")
        queue.put({"n": 0})
        ((taken, _),) = queue.take_many(10)
        kv = KVStore(client, "/docs")
        kv.begin_batch()
        queue.put({"n": 1})
        queue.ack_many([taken])
        batch = kv.detach_batch()
        assert len(batch) == 2
        assert [item["n"] for _, item in queue.take_many(10)] == [0]

    def test_messages_commit_after_the_keyed_writes(self, ensemble, client):
        queue = DistributedQueue(client, "/q")
        kv = KVStore(client, "/docs")
        kv.begin_batch()
        queue.put({"n": 1})
        kv.put("doc", {"v": 1})
        batch = kv.detach_batch()
        ops = []
        real_multi = client.multi
        client.multi = lambda batch_ops: ops.extend(batch_ops) or real_multi(batch_ops)
        kv.commit_batch(batch)
        assert [kind for kind, _, _ in ops] == ["upsert", "create_seq"]

    def test_another_threads_put_writes_at_once(self, client):
        import threading

        queue = DistributedQueue(client, "/q")
        kv = KVStore(client, "/docs")
        with kv.batch():
            names = []
            worker = threading.Thread(target=lambda: names.append(queue.put({"n": 1})))
            worker.start()
            worker.join()
            assert names[0] is not None and queue.size() == 1

    def test_no_batch_means_one_round_trip_per_call(self, ensemble, client):
        queue = DistributedQueue(client, "/q")
        writes = ensemble.write_round_trips
        names = queue.put_many([{"n": 1}, {"n": 2}])
        assert len(names) == 2 and ensemble.write_round_trips == writes + 1
        assert queue.ack_many(names) == 2 and ensemble.write_round_trips == writes + 2
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

    def test_items_inside_a_batch_show_its_pending_writes(self, client):
        store = KVStore(client, "/kv")
        store.put("txns/t1", {"id": 1})
        store.put("txns/t2", {"id": 2})
        with store.batch():
            store.put("txns/t1", {"id": 10})
            store.put("txns/t3", {"id": 3})
            store.delete("txns/t2")
            assert dict(store.items("txns")) == {"t1": {"id": 10}, "t3": {"id": 3}}

    def test_items_read_in_chunks_and_decode_as_they_go(self, ensemble, client, monkeypatch):
        """A listing plus one round-trip per chunk, each chunk read when
        the caller reaches it; each value is decoded only when it is
        yielded, so a caller converting values as it goes never holds
        every document at once."""
        from repro.coordination import kvstore

        store = KVStore(client, "/kv")
        with store.batch():
            for index in range(2 * READ_MULTI_LIMIT + 1):
                store.put(f"docs/d{index:04d}", {"n": index})
        decoded, real_loads = [], kvstore.loads
        monkeypatch.setattr(
            kvstore, "loads", lambda text: decoded.append(text) or real_loads(text)
        )
        before = ensemble.read_round_trips
        pairs = store.items("docs")
        assert next(pairs) == ("d0000", {"n": 0})
        assert len(decoded) == 1
        assert ensemble.read_round_trips - before == 1 + 1
        assert len(list(pairs)) == 2 * READ_MULTI_LIMIT
        assert ensemble.read_round_trips - before == 1 + 3

    def test_keys_of_missing_prefix(self, client):
        store = KVStore(client, "/kv")
        assert store.keys("nothing/here") == []
