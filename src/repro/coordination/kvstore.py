"""JSON document store facade over the coordination service.

TROPIC "unconventionally" uses ZooKeeper as its highly available persistent
storage engine for transaction states and logs (§5).  :class:`KVStore`
provides the small document-oriented API the persistence layer needs:
``put``/``get``/``delete`` of JSON values keyed by slash-separated paths,
plus listing of child keys.

Two write-path optimisations live here:

* every ``put`` is a single coordination round-trip (``upsert``), instead
  of the seed's one-create-per-ancestor-plus-set sequence, and
* a :class:`WriteBatch` coalesces many puts/deletes into one ``multi``
  group commit — the controller wraps each main-loop iteration in a batch,
  so all state transitions persisted during that iteration cost one
  coordination write round-trip.  The batch scope belongs to the
  coordination client, so every store over that client (a shard's store
  and the global 2PC decision log alike) joins it, and so does every
  :class:`~repro.coordination.queue.DistributedQueue` put and ack.

Watches (:meth:`KVStore.watch` / :meth:`KVStore.watch_children`) are the
read-side counterpart: signal observers and the read replicas park on
one-shot watches instead of polling.  See
``docs/architecture.md#the-write-path`` and
``docs/architecture.md#the-read-path-replicas-and-the-readproxy``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.common.errors import NoNodeError
from repro.common.jsonutil import dumps, loads
from repro.coordination.client import CoordinationClient

#: Sentinel distinguishing "key deleted in batch" from "key not in batch".
_TOMBSTONE = object()


class WriteBatch:
    """A buffered set of put/delete operations, plus queue operations,
    committed as one ``multi``.

    Keys are absolute coordination paths, so stores under different
    prefixes share one batch.  Later operations on the same key overwrite
    earlier ones (last-writer wins), so a transaction that transitions
    through several states within one controller loop iteration is
    persisted exactly once.  Queue operations — sequential creates
    (messages) and item deletes (acks) — are kept apart, in the order they
    were made: no store reads them back, and they commit after the keyed
    operations.
    """

    def __init__(self) -> None:
        # path -> serialized JSON text, or _TOMBSTONE for deletions.
        self._ops: dict[str, Any] = {}
        # Ordered ("create_seq", path prefix, data) / ("delete", path, None).
        self._queue_ops: list[tuple[str, str, str | None]] = []
        self.coalesced = 0

    def put(self, key: str, data: str) -> None:
        if key in self._ops:
            self.coalesced += 1
        self._ops[key] = data

    def delete(self, key: str) -> None:
        if key in self._ops:
            self.coalesced += 1
        self._ops[key] = _TOMBSTONE

    def create_seq(self, prefix: str, data: str) -> None:
        """Buffer one queue message (a sequential create under ``prefix``)."""
        self._queue_ops.append(("create_seq", prefix, data))

    def delete_item(self, path: str) -> None:
        """Buffer one queue item's delete (an ack)."""
        self._queue_ops.append(("delete", path, None))

    def pending(self, key: str) -> Any:
        """The buffered value for ``key``: serialized text, ``_TOMBSTONE``,
        or ``None`` when the batch does not touch the key."""
        return self._ops.get(key)

    def pending_children(self, path: str) -> Iterator[tuple[str, Any]]:
        """Yield ``(remainder, value)`` for each path the batch holds
        under ``path/``, the remainder relative to ``path``."""
        lead = path + "/"
        for key, value in self._ops.items():
            if key.startswith(lead):
                yield key[len(lead):], value

    def __len__(self) -> int:
        return len(self._ops) + len(self._queue_ops)

    def is_empty(self) -> bool:
        return not (self._ops or self._queue_ops)


class KVStore:
    """A namespaced JSON key-value store on top of the coordination tree."""

    def __init__(self, client: CoordinationClient, prefix: str = "/tropic"):
        self.client = client
        self.prefix = prefix.rstrip("/")
        self.client.ensure_path(self.prefix)
        # The batch scope lives on the client, per thread: every store
        # over the client joins it, and writes from other threads are
        # never captured by (or lost with) it.
        self._scope = client.batch_scope
        # -- write-path instrumentation ---------------------------------
        self.puts = 0
        self.deletes = 0
        self.batch_commits = 0
        self.writes_coalesced = 0
        self.bytes_serialized = 0
        self.direct_ops = 0

    @property
    def _batch(self) -> WriteBatch | None:
        return getattr(self._scope, "batch", None)

    @_batch.setter
    def _batch(self, value: "WriteBatch | None") -> None:
        self._scope.batch = value

    @property
    def _batch_depth(self) -> int:
        return getattr(self._scope, "depth", 0)

    @_batch_depth.setter
    def _batch_depth(self, value: int) -> None:
        self._scope.depth = value

    def _full(self, key: str) -> str:
        key = key.strip("/")
        return f"{self.prefix}/{key}" if key else self.prefix

    def full_key(self, key: str) -> str:
        """Absolute coordination path of ``key`` (for callers composing
        raw client operations, e.g. the workers' claim-and-ack multi)."""
        return self._full(key)

    # -- document operations ----------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Upsert a JSON document, creating intermediate keys as needed."""
        self.put_serialized(key, dumps(value))

    def put_serialized(self, key: str, data: str) -> None:
        """Upsert a document already serialized to deterministic JSON
        (checkpoint units are encoded once to count their bytes; this
        entry point spares a second encoding)."""
        self.puts += 1
        self.bytes_serialized += len(data)
        if self._batch is not None:
            self._batch.put(self._full(key), data)
            return
        self.direct_ops += 1
        self.client.upsert(self._full(key), data)

    def get(self, key: str, default: Any = None) -> Any:
        path = self._full(key)
        if self._batch is not None:
            pending = self._batch.pending(path)
            if pending is _TOMBSTONE:
                return default
            if pending is not None:
                return loads(pending)
        data = self.client.get_data(path)
        if data is None or data == "":
            return default
        return loads(data)

    def watch(self, key: str, watcher: Any) -> bool:
        """Register a one-shot watch on ``key``; returns whether the key
        currently exists.  The watcher fires on the next create/change/
        delete of the key — the ZooKeeper idiom for observing rare events
        (e.g. a new checkpoint) without polling."""
        return self.client.exists(self._full(key), watcher) is not None

    def watch_children(self, key: str, watcher: Any) -> list[str] | None:
        """Register a one-shot child watch on ``key`` and return its current
        child keys; the watcher fires on the next create/delete under it.

        When ``key`` itself does not exist yet (e.g. a shard's applied-log
        prefix before the first commit), a data watch on the key is
        registered instead — it fires when the key is created — and ``None``
        is returned.  This is the tailing idiom the read replicas use to
        observe a shard's committed-transaction log without polling.

        Lost-wakeup safety: if the key is created *between* the failed
        listing and the ``exists`` probe, the probe sees it and the loop
        retries the listing — otherwise the registered data watch would
        never fire for child creations and the watcher would sleep through
        every subsequent write.
        """
        path = self._full(key)
        while True:
            try:
                return self.client.get_children(path, watcher)
            except NoNodeError:
                if self.client.exists(path, watcher) is None:
                    return None
                # Created concurrently; loop to register a real child watch
                # (the extra data watch just fires one spurious event).

    def exists(self, key: str) -> bool:
        path = self._full(key)
        if self._batch is not None:
            pending = self._batch.pending(path)
            if pending is _TOMBSTONE:
                return False
            if pending is not None:
                return True
        return self.client.exists(path) is not None

    def delete(self, key: str, recursive: bool = False) -> None:
        self.deletes += 1
        path = self._full(key)
        if self._batch is not None:
            # Batched deletes are always recursive at commit time; the
            # persistence layer only deletes leaf documents or whole
            # transaction subtrees, for which the semantics coincide.
            self._batch.delete(path)
            return
        self.direct_ops += 1
        if recursive:
            self._delete_recursive(path)
        else:
            self.client.delete_if_exists(path)

    def _delete_recursive(self, path: str) -> None:
        try:
            children = self.client.get_children(path)
        except NoNodeError:
            return
        for child in children:
            self._delete_recursive(f"{path}/{child}")
        self.client.delete_if_exists(path)

    # -- group commit -------------------------------------------------------

    @contextmanager
    def batch(self):
        """Scope within which puts/deletes are coalesced into one group
        commit.  Re-entrant: nested scopes join the outermost batch, which
        commits when the outermost scope exits.  The scope is the
        client's, so puts/deletes through any store over the same client
        join it too."""
        self.begin_batch()
        try:
            yield self
        finally:
            self.end_batch()

    def begin_batch(self) -> None:
        if self._batch is None:
            self._batch = WriteBatch()
        self._batch_depth += 1

    def end_batch(self) -> None:
        self._batch_depth -= 1
        if self._batch_depth <= 0:
            self._batch_depth = 0
            try:
                self.flush()
            finally:
                self._batch = None

    def flush(self) -> int:
        """Commit the pending batch (if any) as one ``multi`` round-trip,
        keeping the batch scope open.  Returns the number of ops flushed.

        On failure the buffered ops are LOST (not retried): callers own
        in-memory state derived from them and must treat a raised flush as
        a leadership-soft-state loss — the controller demotes and
        re-recovers from the store (see ``Controller.step``)."""
        batch = self._batch
        if batch is None or batch.is_empty():
            return 0
        self._batch = WriteBatch()
        return self.commit_batch(batch)

    def in_batch(self) -> bool:
        return self._batch is not None

    def detach_batch(self) -> WriteBatch | None:
        """Close the current thread's batch scope *without* committing it;
        returns the batch (``None`` when no scope was open).

        The counterpart of :meth:`end_batch` for a caller that must act
        only after the commit and with no scope open: the controller's one
        commit function detaches its batch, commits it via
        :meth:`commit_batch`, then notifies clients.  Closes the
        outermost scope regardless of nesting depth — only that
        top-level commit may call this."""
        batch = self._batch
        self._batch = None
        self._batch_depth = 0
        return batch

    def commit_batch(self, batch: WriteBatch | None) -> int:
        """Commit ``batch`` as one ``multi`` round-trip; returns the number
        of ops committed (an empty batch costs no round-trip).  It never
        touches this thread's batch scope, so a scope open here stays open
        and uncommitted.  Crash edges around the commit are the caller's
        to name: ``Controller._commit`` fires ``pre-commit`` before it."""
        if batch is None or batch.is_empty():
            return 0
        ops = [
            ("delete", path, None) if value is _TOMBSTONE else ("upsert", path, value)
            for path, value in batch._ops.items()
        ]
        ops.extend(batch._queue_ops)
        self.writes_coalesced += batch.coalesced
        self.client.multi(ops)
        self.batch_commits += 1
        return len(ops)

    # -- listing -------------------------------------------------------------

    def keys(self, key: str = "") -> list[str]:
        """List direct child keys under ``key`` (empty list if absent)."""
        path = self._full(key)
        names: set[str] = set()
        try:
            names.update(self.client.get_children(path))
        except NoNodeError:
            pass
        if self._batch is not None:
            for remainder, value in self._batch.pending_children(path):
                child, _, rest = remainder.partition("/")
                if value is _TOMBSTONE:
                    # Only a tombstone on the child itself removes it from
                    # the listing; a deeper delete leaves the child node
                    # (and its other descendants) in place.
                    if not rest:
                        names.discard(child)
                else:
                    names.add(child)
        return sorted(names)

    def items(self, key: str = "") -> Iterator[tuple[str, Any]]:
        """Yield ``(child_key, value)`` pairs under ``key``."""
        for child in self.keys(key):
            child_key = f"{key.strip('/')}/{child}" if key.strip("/") else child
            yield child, self.get(child_key)

    def io_stats(self) -> dict[str, int]:
        return {
            "puts": self.puts,
            "deletes": self.deletes,
            "batch_commits": self.batch_commits,
            "writes_coalesced": self.writes_coalesced,
            "bytes_serialized": self.bytes_serialized,
            "direct_ops": self.direct_ops,
        }
