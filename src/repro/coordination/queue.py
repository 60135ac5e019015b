"""Distributed FIFO queue recipe (inputQ / phyQ).

TROPIC decouples clients, controllers and workers with highly available
queues hosted in the coordination service (Figure 1).  The queue is the
standard sequential-znode recipe: ``put`` creates a sequential child under
the queue path.  A consumer reads the oldest children with
:meth:`DistributedQueue.take_many` and deletes them with ``ack`` /
``ack_many`` only after the state change they caused is durable, so a
consumer that dies in between leaves its items for the next one
(at-least-once delivery, §2.3; consumers handle redeliveries
idempotently).  Queue topology per shard is documented in
``docs/architecture.md#coordination-namespaces``.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import NoNodeError
from repro.common.jsonutil import dumps, loads
from repro.coordination.client import CoordinationClient


class DistributedQueue:
    """FIFO queue of JSON-serialisable items backed by the coordination store."""

    def __init__(self, client: CoordinationClient, path: str):
        self.client = client
        self.path = path.rstrip("/")
        self.client.ensure_path(self.path)

    # -- producers -------------------------------------------------------

    def put(self, item: Any) -> str:
        """Enqueue an item; returns the znode name assigned to it."""
        created = self.client.create(f"{self.path}/item-", dumps(item), sequential=True)
        return created.rsplit("/", 1)[-1]

    def put_many(self, items: list[Any]) -> list[str]:
        """Enqueue several items in one coordination round-trip (group
        commit); returns the znode names assigned, in order."""
        if not items:
            return []
        if len(items) == 1:
            return [self.put(items[0])]
        results = self.client.multi(
            [("create_seq", f"{self.path}/item-", dumps(item)) for item in items]
        )
        return [created.rsplit("/", 1)[-1] for created in results if created]

    # -- consumers -------------------------------------------------------

    def take_many(self, limit: int) -> list[tuple[str, Any]]:
        """Return up to ``limit`` ``(item_name, item)`` pairs, oldest first,
        *without* removing them; :meth:`ack` / :meth:`ack_many` remove them.

        The TROPIC controller only acknowledges an inputQ item after the
        corresponding state change has been persisted, so a leader crash
        between the two re-delivers the item to the next leader, which
        handles it idempotently (§2.3).  The controller drains its inputQ
        in batches: all taken messages are processed and their state
        changes group-committed before any is acknowledged.
        """
        taken: list[tuple[str, Any]] = []
        if limit <= 0:
            return taken
        children = sorted(self.client.get_children(self.path))
        for name in children[:limit]:
            try:
                data, _ = self.client.get(f"{self.path}/{name}")
            except NoNodeError:
                continue
            taken.append((name, loads(data)))
        return taken

    def ack(self, name: str) -> bool:
        """Remove a previously taken item; returns False if already gone."""
        try:
            self.client.delete(f"{self.path}/{name}")
            return True
        except NoNodeError:
            return False

    def ack_many(self, names: list[str]) -> int:
        """Remove a batch of previously taken items in one round-trip."""
        if not names:
            return 0
        if len(names) == 1:
            return 1 if self.ack(names[0]) else 0
        self.client.multi([("delete", f"{self.path}/{name}", None) for name in names])
        return len(names)

    # -- inspection --------------------------------------------------------

    def size(self) -> int:
        return len(self.client.get_children(self.path))

    def is_empty(self) -> bool:
        return self.size() == 0
