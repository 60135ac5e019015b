"""Distributed FIFO queue recipe (inputQ / phyQ).

TROPIC decouples clients, controllers and workers with highly available
queues hosted in the coordination service (Figure 1).  The queue is the
standard sequential-znode recipe: ``put`` creates a sequential child under
the queue path; consumers take the lowest-sequence child and delete it.
Deletion is atomic, so two workers polling the same queue never both obtain
the same item.  Idle consumers park on a child watch (zero coordination
operations until a producer wakes them); the take/ack split carries the
at-least-once redelivery contract leader failover depends on.  Queue
topology per shard is documented in
``docs/architecture.md#coordination-namespaces``.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.common.clock import Clock, RealClock
from repro.common.errors import NoNodeError, SessionExpiredError
from repro.common.jsonutil import dumps, loads
from repro.coordination.client import CoordinationClient

#: Sentinel distinguishing "no item claimed" from a claimed ``None`` item.
_NOTHING = object()


class DistributedQueue:
    """FIFO queue of JSON-serialisable items backed by the coordination store.

    With ``reconnect_on_expiry=True`` the blocking consumer (:meth:`get`)
    survives coordination-session expiry: the child watch registered under
    the dead session is gone, so the consumer reconnects the client and
    re-enters the listing loop, which both re-reads any children it may
    have missed and re-arms a fresh watch.  The wakeup contract is
    therefore **at-least-once**: a consumer may be woken (or re-list) with
    nothing to claim after a recovery, but a ``put`` that happened while
    the session was dead is never missed.  ``counters`` (optional, any
    object with ``session_expiries``/``watch_rearms`` attributes, e.g.
    :class:`~repro.metrics.collectors.ResilienceCounters`) records the
    recoveries.
    """

    def __init__(
        self,
        client: CoordinationClient,
        path: str,
        clock: Clock | None = None,
        counters: Any | None = None,
        reconnect_on_expiry: bool = False,
    ):
        self.client = client
        self.path = path.rstrip("/")
        self.clock = clock or RealClock()
        self.counters = counters
        self.reconnect_on_expiry = reconnect_on_expiry
        self.client.ensure_path(self.path)

    def _recover_session(self) -> bool:
        """Re-establish an expired session (opt-in); returns whether the
        caller should retry the failed operation."""
        if not self.reconnect_on_expiry:
            return False
        if not self.client.is_live():
            self.client.reconnect()
            if self.counters is not None:
                self.counters.session_expiries += 1
        return True

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

    def poll(self) -> Any | None:
        """Dequeue the oldest item, or return ``None`` if the queue is empty."""
        while True:
            children = sorted(self.client.get_children(self.path))
            if not children:
                return None
            claimed = self._claim_one(children)
            if claimed is not _NOTHING:
                return claimed
            # All candidates vanished under us; retry the listing.

    def _claim_one(self, children: list[str]) -> Any:
        """Atomically claim the oldest of ``children``; returns the item or
        ``_NOTHING`` when every candidate was taken by another consumer."""
        for name in children:
            item_path = f"{self.path}/{name}"
            try:
                data, _ = self.client.get(item_path)
                self.client.delete(item_path)
            except NoNodeError:
                continue  # another consumer raced us; try the next item
            return loads(data)
        return _NOTHING

    def poll_many(self, limit: int) -> list[Any]:
        """Dequeue up to ``limit`` items, oldest first (one child listing
        instead of one per item).  Each item is still claimed by its own
        atomic delete, so concurrent consumers never share an item."""
        items: list[Any] = []
        if limit <= 0:
            return items
        children = sorted(self.client.get_children(self.path))
        for name in children[:limit]:
            item_path = f"{self.path}/{name}"
            try:
                data, _ = self.client.get(item_path)
                self.client.delete(item_path)
            except NoNodeError:
                continue  # another consumer raced us
            items.append(loads(data))
        return items

    def get(self, timeout: float | None = None, poll_interval: float = 0.002) -> Any | None:
        """Blocking dequeue with an optional timeout (None waits forever).

        Watch-driven: while the queue is empty the consumer parks on a
        child watch registered with the (single) listing round-trip, so an
        idle consumer issues **zero** further coordination operations until
        a producer's ``put`` fires the watch.  ``poll_interval`` no longer
        paces store polling — it only bounds how often the timeout deadline
        is re-checked while parked.
        """
        deadline = None if timeout is None else self.clock.now() + timeout
        while True:
            wakeup = threading.Event()
            try:
                children = sorted(
                    self.client.get_children(self.path, lambda event: wakeup.set())
                )
                if children:
                    claimed = self._claim_one(children)
                    if claimed is not _NOTHING:
                        return claimed
                    continue  # raced by other consumers; re-list immediately
            except SessionExpiredError:
                # The watch (if registered) died with the session; recover
                # and re-list rather than strand the consumer.  A deadline
                # set by the caller still applies across the recovery.
                if not self._recover_session():
                    raise
                if deadline is not None and self.clock.now() >= deadline:
                    return None
                if self.counters is not None:
                    self.counters.watch_rearms += 1
                continue
            # Idle: wait for the child watch (no store round-trips).  The
            # deadline is re-read on the platform clock every slice, so a
            # simulated clock advanced by another thread still times the
            # consumer out without any store traffic.
            while not wakeup.is_set():
                if deadline is not None and self.clock.now() >= deadline:
                    return None
                wakeup.wait(poll_interval)

    def take(self) -> tuple[str, Any] | None:
        """Return ``(item_name, item)`` for the oldest item *without* removing it.

        Combined with :meth:`ack`, this gives at-least-once consumption: the
        TROPIC controller only acknowledges an inputQ item after the
        corresponding state change has been persisted, so a leader crash
        between the two re-delivers the item to the next leader, which
        handles it idempotently (§2.3).
        """
        children = sorted(self.client.get_children(self.path))
        for name in children:
            try:
                data, _ = self.client.get(f"{self.path}/{name}")
            except NoNodeError:
                continue
            return name, loads(data)
        return None

    def take_many(self, limit: int) -> list[tuple[str, Any]]:
        """Return up to ``limit`` ``(item_name, item)`` pairs, oldest first,
        *without* removing them (batched form of :meth:`take`).

        The controller drains its inputQ through this: all taken messages
        are processed and their state changes group-committed before any is
        acknowledged, preserving the at-least-once/idempotent-handling
        contract of §2.3 across the whole batch.
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

    def peek(self) -> Any | None:
        """Return the oldest item without removing it."""
        children = sorted(self.client.get_children(self.path))
        for name in children:
            try:
                data, _ = self.client.get(f"{self.path}/{name}")
            except NoNodeError:
                continue
            return loads(data)
        return None

    def size(self) -> int:
        return len(self.client.get_children(self.path))

    def is_empty(self) -> bool:
        return self.size() == 0

    def drain(self) -> list[Any]:
        """Remove and return every queued item (used in recovery and tests)."""
        items = []
        while True:
            item = self.poll()
            if item is None:
                return items
            items.append(item)
