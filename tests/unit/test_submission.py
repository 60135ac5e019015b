"""Unit tests of :func:`repro.core.submission.submit_batch` (Fig. 2 step 1).

The platform's ``submit`` / ``submit_many`` and the test harnesses all
submit through this one function, so its contract is pinned here
directly: routing and the 2PC stamp, the document, its token record and
its request message in one group commit per shard, and a resumed token
that enqueues nothing.
"""

import pytest

from repro.common.errors import ShardNotLocalError
from repro.core.events import request_message
from repro.core.submission import Submitted, submit_batch
from repro.core.txn import TransactionState
from repro.testing import ShardedCluster


def _spawn(cluster: ShardedCluster, name: str, host_index: int = 0) -> tuple:
    """A single-shard spawnVM request (compute host + its paired storage)."""
    return (
        "spawnVM",
        {
            "vm_name": name,
            "image_template": "template-small",
            "storage_host": cluster.inventory.storage_host_for(host_index),
            "vm_host": cluster.inventory.vm_hosts[host_index],
            "mem_mb": 256,
        },
    )


def _cross_spawn(cluster: ShardedCluster, name: str) -> tuple:
    """A spawnVM whose disk lives on a storage host of another shard."""
    vm_host = cluster.inventory.vm_hosts[0]
    home = cluster.router.shard_of(vm_host)
    foreign = next(
        host for host in cluster.inventory.storage_hosts
        if cluster.router.shard_of(host) != home
    )
    return (
        "spawnVM",
        {
            "vm_name": name,
            "image_template": "template-small",
            "storage_host": foreign,
            "vm_host": vm_host,
            "mem_mb": 256,
        },
    )


def _queued(cluster: ShardedCluster, shard: int) -> list:
    return [item for _, item in cluster.input_queues[shard].take_many(100)]


def _submit(cluster, requests, tokens=None, now=0.0):
    if tokens is None:
        tokens = [None] * len(requests)
    return submit_batch(cluster.router, cluster.endpoint, requests, tokens, now)


class TestFreshRequests:
    def test_document_is_initialized_at_now_and_its_request_enqueued(self):
        cluster = ShardedCluster()
        (entry,) = _submit(cluster, [_spawn(cluster, "vm1")], now=12.5)
        assert not entry.resumed and entry.shard == 0
        doc = cluster.stores[0].load_transaction(entry.txid)
        assert doc is not None and doc.state is TransactionState.INITIALIZED
        assert doc.timestamps[TransactionState.INITIALIZED.value] == 12.5
        assert doc.procedure == "spawnVM" and doc.args["vm_name"] == "vm1"
        assert _queued(cluster, 0) == [request_message(entry.txid)]

    def test_results_follow_request_order(self):
        cluster = ShardedCluster()
        names = ["vm-a", "vm-b", "vm-c"]
        results = _submit(cluster, [_spawn(cluster, name) for name in names])
        assert [entry.txn.args["vm_name"] for entry in results] == names
        assert len({entry.txid for entry in results}) == len(names)
        assert _queued(cluster, 0) == [request_message(e.txid) for e in results]

    def test_documents_and_their_requests_commit_in_one_multi(self, monkeypatch):
        """No request message is durable without its document, and no
        document without its request: both ride one ``multi``, the
        messages after the documents they announce."""
        cluster = ShardedCluster()
        store, queue = cluster.endpoint(0)
        multis = []
        real_multi = cluster.client.multi

        def recording_multi(ops):
            multis.append([(kind, path) for kind, path, _ in ops])
            return real_multi(ops)

        monkeypatch.setattr(cluster.client, "multi", recording_multi)
        results = _submit(cluster, [_spawn(cluster, "vm1"), _spawn(cluster, "vm2")])
        (ops,) = multis
        docs = [store.kv.full_key(f"{store.TXN_PREFIX}/{e.txid}") for e in results]
        assert ops == [("upsert", doc) for doc in docs] + [
            ("create_seq", f"{queue.path}/item-")
        ] * 2

    def test_one_group_commit_per_shard(self):
        cluster = ShardedCluster()
        ensemble = cluster.ensemble
        before = ensemble.write_round_trips
        _submit(cluster, [_spawn(cluster, f"vm{i}") for i in range(5)])
        assert ensemble.write_round_trips - before == 1

    def test_requests_go_to_their_owning_shards(self):
        cluster = ShardedCluster(num_shards=2, num_vm_hosts=4)
        requests = [_spawn(cluster, f"vm{i}", host_index=i) for i in range(4)]
        owners = [cluster.router.plan(p, args).shard for p, args in requests]
        assert set(owners) == {0, 1}
        results = _submit(cluster, requests)
        assert [entry.shard for entry in results] == owners
        for entry in results:
            other = 1 - entry.shard
            assert cluster.stores[entry.shard].load_transaction(entry.txid) is not None
            assert cluster.stores[other].load_transaction(entry.txid) is None
        for shard in (0, 1):
            assert _queued(cluster, shard) == [
                request_message(e.txid) for e in results if e.shard == shard
            ]

    def test_cross_shard_request_is_stamped_with_coordinator_and_participants(self):
        cluster = ShardedCluster(num_shards=2, cross_shard_policy="2pc")
        procedure, args = _cross_spawn(cluster, "vm-x")
        decision = cluster.router.plan(procedure, args)
        (entry,) = _submit(cluster, [(procedure, args)])
        doc = cluster.stores[decision.shard].load_transaction(entry.txid)
        assert doc.coordinator == decision.shard == entry.shard
        assert doc.participants == [0, 1]
        assert doc.is_cross_shard

    def test_single_shard_request_carries_no_2pc_stamp(self):
        cluster = ShardedCluster(num_shards=2)
        (entry,) = _submit(cluster, [_spawn(cluster, "vm1")])
        doc = cluster.stores[entry.shard].load_transaction(entry.txid)
        assert doc.coordinator is None and doc.participants == []
        assert not doc.is_cross_shard

    def test_refused_endpoint_persists_nothing_of_the_batch(self):
        cluster = ShardedCluster(num_shards=2, num_vm_hosts=4)
        requests = [_spawn(cluster, f"vm{i}", host_index=i) for i in range(4)]
        local = cluster.router.plan(*requests[0]).shard

        def only_local(shard):
            if shard != local:
                raise ShardNotLocalError(f"shard {shard} is not hosted here")
            return cluster.endpoint(shard)

        with pytest.raises(ShardNotLocalError):
            submit_batch(cluster.router, only_local, requests, [None] * 4, 0.0)
        for shard in (0, 1):
            assert cluster.stores[shard].transaction_ids() == []
            assert cluster.input_queues[shard].is_empty()

    def test_empty_batch_touches_nothing(self):
        cluster = ShardedCluster()
        before = cluster.ensemble.op_count
        assert _submit(cluster, []) == []
        assert cluster.ensemble.op_count == before


class TestTokens:
    def test_fresh_token_is_recorded_with_its_document(self):
        cluster = ShardedCluster()
        (entry,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        record = cluster.stores[0].lookup_token("tok-1")
        assert record == {
            "token": "tok-1",
            "txid": entry.txid,
            "state": TransactionState.INITIALIZED.value,
        }
        assert entry.txn.idempotency_token == "tok-1"

    def test_untokened_requests_record_no_token(self):
        cluster = ShardedCluster()
        results = _submit(cluster, [_spawn(cluster, "vm1"), _spawn(cluster, "vm2")])
        store = cluster.stores[0]
        assert [e.txn.idempotency_token for e in results] == [None, None]
        assert store.kv.keys(store.TOKEN_PREFIX) == []

    def test_seen_token_resumes_a_pending_transaction_without_reenqueueing(self):
        """The first submission's request message committed with its
        document, so a retry with the token only names the transaction."""
        cluster = ShardedCluster()
        (first,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        (again,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        assert again == Submitted(first.txid, 0)
        assert again.resumed and again.txn is None
        assert cluster.stores[0].transaction_ids() == [first.txid]
        assert _queued(cluster, 0) == [request_message(first.txid)]
        cluster.drain()
        assert cluster.state_of(first.txid) is TransactionState.COMMITTED

    def test_seen_token_of_a_terminal_transaction_is_not_reenqueued(self):
        cluster = ShardedCluster()
        (first,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        cluster.drain()
        assert cluster.state_of(first.txid) is TransactionState.COMMITTED
        (again,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        assert again.txid == first.txid and again.resumed
        assert cluster.input_queues[0].is_empty()

    def test_mixed_batch_persists_only_the_fresh_requests(self):
        cluster = ShardedCluster()
        (seen,) = _submit(cluster, [_spawn(cluster, "vm1")], tokens=["tok-1"])
        results = _submit(
            cluster,
            [_spawn(cluster, "vm1"), _spawn(cluster, "vm2"), _spawn(cluster, "vm3")],
            tokens=["tok-1", "tok-2", None],
        )
        assert [entry.resumed for entry in results] == [True, False, False]
        assert results[0].txid == seen.txid
        assert sorted(cluster.stores[0].transaction_ids()) == sorted(
            [seen.txid, results[1].txid, results[2].txid]
        )
        store = cluster.stores[0]
        assert store.lookup_token("tok-1")["txid"] == seen.txid
        assert store.lookup_token("tok-2")["txid"] == results[1].txid
