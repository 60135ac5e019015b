"""Distributed FIFO queue recipe (inputQ / phyQ).

TROPIC decouples clients, controllers and workers with highly available
queues hosted in the coordination service (Figure 1).  The queue is the
standard sequential-znode recipe: ``put`` creates a sequential child under
the queue path.  A consumer keeps the queue's listing in a
:class:`~repro.coordination.client.ChildMirror` fed by a persistent child
watch, reads the oldest children with :meth:`DistributedQueue.take_many` —
one read-only ``multi`` of the items, whatever their number, and nothing
when the queue is empty — and deletes them with ``ack`` / ``ack_many``.

Puts and acks join the write batch the calling thread has open on the
coordination client, exactly as :class:`~repro.coordination.kvstore.KVStore`
writes do: inside a controller commit the messages a step sends and the
inputQ items it consumed ride the same ``multi`` as the state they
announce, so a message is durable exactly when that state is, and an item
is consumed exactly when the state change it caused is durable (§2.3).
Outside a batch (workers, tests) each call is its own round-trip.  Queue
topology per shard is documented in
``docs/architecture.md#coordination-namespaces``.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import NoNodeError
from repro.common.jsonutil import dumps, loads
from repro.coordination.client import ChildMirror, CoordinationClient


class DistributedQueue:
    """FIFO queue of JSON-serialisable items backed by the coordination store."""

    def __init__(self, client: CoordinationClient, path: str):
        self.client = client
        self.path = path.rstrip("/")
        self.client.ensure_path(self.path)
        self.mirror = ChildMirror(client, self.path)

    def _batch(self) -> Any:
        """The write batch the calling thread has open on the client, or
        ``None`` (see :meth:`repro.coordination.kvstore.KVStore.batch`)."""
        return getattr(self.client.batch_scope, "batch", None)

    # -- producers -------------------------------------------------------

    def put(self, item: Any) -> str | None:
        """Enqueue an item; returns the znode name assigned to it, or
        ``None`` when the put joins an open batch (the name is assigned
        when the batch commits)."""
        batch = self._batch()
        if batch is not None:
            batch.create_seq(f"{self.path}/item-", dumps(item))
            return None
        created = self.client.create(f"{self.path}/item-", dumps(item), sequential=True)
        return created.rsplit("/", 1)[-1]

    def put_many(self, items: list[Any]) -> list[str]:
        """Enqueue several items in order, in one coordination round-trip
        (group commit); returns the znode names assigned, in order (none
        when the puts join an open batch)."""
        if not items:
            return []
        if len(items) == 1 or self._batch() is not None:
            return [name for name in map(self.put, items) if name is not None]
        results = self.client.multi(
            [("create_seq", f"{self.path}/item-", dumps(item)) for item in items]
        )
        return [created.rsplit("/", 1)[-1] for created in results if created]

    # -- consumers -------------------------------------------------------

    def take_many(self, limit: int) -> list[tuple[str, Any]]:
        """Return up to ``limit`` ``(item_name, item)`` pairs, oldest first,
        *without* removing them; :meth:`ack` / :meth:`ack_many` remove them.
        The names come from the queue's :class:`ChildMirror`, so a take
        costs one read-only ``multi`` of the items whatever their number,
        and nothing when the queue is empty (the first take also lists).

        The TROPIC controller acknowledges an inputQ item in the same
        ``multi`` as the state change it caused, so a leader crash before
        that commit re-delivers the item to the next leader and a crash
        after it leaves nothing to re-deliver (§2.3).
        """
        mirror = self.mirror
        if limit <= 0 or not (present := mirror.names()):
            return []
        names = sorted(present)[:limit]
        try:
            data = self.client.get_many([f"{self.path}/{name}" for name in names])
        except Exception:
            mirror.disarm()  # an event may have gone unseen: re-list next time
            raise
        # An item acked since it was listed reads as None: a phantom name.
        present.difference_update(name for name, item in zip(names, data) if item is None)
        return [(name, loads(item)) for name, item in zip(names, data) if item is not None]

    def ack(self, name: str) -> bool:
        """Remove a previously taken item; returns False if already gone
        (an ack joining an open batch deletes it if it exists)."""
        batch = self._batch()
        if batch is not None:
            batch.delete_item(f"{self.path}/{name}")
            return True
        try:
            self.client.delete(f"{self.path}/{name}")
            return True
        except NoNodeError:
            return False

    def ack_many(self, names: list[str]) -> int:
        """Remove a batch of previously taken items in one round-trip."""
        if not names:
            return 0
        if len(names) == 1 or self._batch() is not None:
            return sum(map(self.ack, names))
        self.client.multi([("delete", f"{self.path}/{name}", None) for name in names])
        return len(names)

    # -- inspection --------------------------------------------------------

    def size(self) -> int:
        return len(self.mirror.names())

    def is_empty(self) -> bool:
        return self.size() == 0
