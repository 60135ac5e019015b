"""The coordination ensemble: quorum writes, sessions, and watches.

The ensemble is the authoritative implementation of the coordination
protocol.  Clients talk to it through :class:`~repro.coordination.client.
CoordinationClient`.  All committed operations are applied synchronously to
every *up* replica server, which trivially provides the strong consistency
TROPIC expects of its persistent store (§2.3).  Writes (and reads — we model
linearizable reads) require a majority of replicas to be up; otherwise
:class:`~repro.common.errors.QuorumLostError` is raised.

Sessions mirror ZooKeeper sessions: a client heartbeats periodically, and if
the ensemble does not see a heartbeat within the session timeout the session
expires, its ephemeral znodes are removed and watches fire.  This is the
failure-detection mechanism that drives controller failover; the paper notes
(§6.4) that recovery time is dominated by exactly this detection interval.

Data and child watches are one-shot; a persistent child watch
(:meth:`CoordinationEnsemble.add_child_watch`, ZooKeeper 3.6's
``addWatch``) sees every child change until its session ends.

The role of the coordination service in the platform — and every namespace
the system persists into it — is documented in
``docs/architecture.md#coordination-namespaces``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.analysis.recorder import traced
from repro.common.clock import Clock, RealClock
from repro.common.errors import (
    BadVersionError,
    NodeExistsError,
    NoNodeError,
    NotEmptyError,
    QuorumLostError,
    SessionExpiredError,
)
from repro.coordination.server import CoordinationServer
from repro.coordination.znode import Stat, join_path, parent_path, split_path


@dataclass
class WatchEvent:
    """A notification delivered to a watcher callback: ``path`` is the
    watched node, or the changed child for a persistent child watch."""

    kind: str  # "created" | "deleted" | "changed" | "child" | "expired"
    path: str


Watcher = Callable[[WatchEvent], None]


@dataclass
class Session:
    """A client session with heartbeat-based liveness."""

    session_id: str
    timeout: float
    last_heartbeat: float
    expired: bool = False


class CoordinationEnsemble:
    """An ensemble of :class:`CoordinationServer` replicas."""

    def __init__(
        self,
        num_servers: int = 3,
        clock: Clock | None = None,
        default_session_timeout: float = 0.5,
        op_latency: float = 0.0,
    ):
        if num_servers < 1:
            raise ValueError("ensemble needs at least one server")
        self.clock = clock or RealClock()
        self.servers = [CoordinationServer(f"coord-{i}") for i in range(num_servers)]
        # Up replicas are identical by construction, so they share one
        # physical tree (see CoordinationServer.sync_from): each committed
        # op is applied once and stamped on every up server's zxid, and a
        # crashing server detaches a frozen private copy.  Round-trip and
        # latency accounting are unaffected — replication cost in a real
        # ensemble is paid by other machines, not this process.
        for server in self.servers[1:]:
            server.sync_from(self.servers[0])
        self._up_count = num_servers
        self.default_session_timeout = default_session_timeout
        self.op_latency = op_latency
        self._zxid = 0
        self._session_counter = 0
        self._sessions: dict[str, Session] = {}
        self._data_watches: dict[str, list[Watcher]] = {}
        self._child_watches: dict[str, list[Watcher]] = {}
        #: Persistent child watchers: path -> {watcher: owning session}.
        self._child_streams: dict[str, dict[Watcher, str]] = {}
        self._lock = traced(threading.RLock(), "CoordinationEnsemble._lock")
        self._op_count = 0
        self._read_round_trips = 0
        self._write_round_trips = 0
        self._multi_count = 0
        self._multi_sub_ops = 0
        self._bytes_written = 0

    # ------------------------------------------------------------------
    # Availability / fault injection
    # ------------------------------------------------------------------

    def up_servers(self) -> list[CoordinationServer]:
        return [server for server in self.servers if server.up]

    def has_quorum(self) -> bool:
        # _up_count is maintained by crash_server/restart_server so the
        # per-operation quorum check does not allocate a server list.
        return self._up_count * 2 > len(self.servers)

    def crash_server(self, index: int) -> None:
        with self._lock:
            server = self.servers[index]
            if server.up:
                server.freeze_copy()
                server.crash()
                self._up_count -= 1

    def restart_server(self, index: int) -> None:
        with self._lock:
            server = self.servers[index]
            if server.up:
                return
            healthy = next((s for s in self.servers if s.up), None)
            if healthy is not None:
                server.sync_from(healthy)
            server.restart()
            self._up_count += 1

    @property
    def op_count(self) -> int:
        """Total number of coordination operations served (I/O proxy)."""
        return self._op_count

    @property
    def write_round_trips(self) -> int:
        """Write operations served, counting a ``multi`` batch as one
        round-trip (the group-commit I/O proxy of the write-path metrics)."""
        return self._write_round_trips

    @property
    def read_round_trips(self) -> int:
        return self._read_round_trips

    @property
    def multi_count(self) -> int:
        """Number of ``multi`` group commits served."""
        return self._multi_count

    @property
    def multi_sub_ops(self) -> int:
        """Total sub-operations carried inside ``multi`` group commits."""
        return self._multi_sub_ops

    @property
    def bytes_written(self) -> int:
        """Total payload bytes accepted by write operations."""
        return self._bytes_written

    def io_stats(self) -> dict[str, int]:
        """Snapshot of the I/O counters (consumed by metrics collectors)."""
        with self._lock:
            return {
                "ops": self._op_count,
                "reads": self._read_round_trips,
                "writes": self._write_round_trips,
                "multi_commits": self._multi_count,
                "multi_sub_ops": self._multi_sub_ops,
                "bytes_written": self._bytes_written,
            }

    def total_znodes(self) -> int:
        with self._lock:
            reference = self._reference_server()
            return reference.count_nodes()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def create_session(self, timeout: float | None = None) -> Session:
        with self._lock:
            self._check_quorum()
            self._session_counter += 1
            session = Session(
                session_id=f"session-{self._session_counter:04d}",
                timeout=timeout or self.default_session_timeout,
                last_heartbeat=self.clock.now(),
            )
            self._sessions[session.session_id] = session
            return session

    def heartbeat(self, session_id: str) -> None:
        """Refresh a session and lazily expire any dead ones."""
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            self._check_quorum()
            self._expire_dead_sessions(events)
            session = self._sessions.get(session_id)
            if session is None or session.expired:
                self._fire(events)
                raise SessionExpiredError(f"session {session_id} has expired")
            session.last_heartbeat = self.clock.now()
        self._fire(events)

    def close_session(self, session_id: str) -> None:
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self._remove_ephemerals(session_id, events)
        self._fire(events)

    def expire_session(self, session_id: str) -> None:
        """Force-expire a session (used by tests and the KILL experiments)."""
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.expired = True
                self._remove_ephemerals(session_id, events)
        self._fire(events)

    def session_is_live(self, session_id: str) -> bool:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None or session.expired:
                return False
            return (self.clock.now() - session.last_heartbeat) <= session.timeout

    def _expire_dead_sessions(self, events: list[tuple[Watcher, WatchEvent]]) -> None:
        now = self.clock.now()
        for session in list(self._sessions.values()):
            if not session.expired and now - session.last_heartbeat > session.timeout:
                session.expired = True
                self._remove_ephemerals(session.session_id, events)

    def _remove_ephemerals(self, session_id: str, events: list[tuple[Watcher, WatchEvent]]) -> None:
        for path, streams in self._child_streams.items():  # told first, as Expired
            for watcher in [w for w, owner in streams.items() if owner == session_id]:
                del streams[watcher]
                events.append((watcher, WatchEvent("expired", path)))
        reference = self._reference_server()
        ephemeral_paths: list[str] = []

        def collect(node, path: str) -> None:
            for name, child in list(node.children.items()):
                child_path = join_path(path if path != "/" else "/", name)
                if child.ephemeral_owner == session_id:
                    ephemeral_paths.append(child_path)
                collect(child, child_path)

        collect(reference.root, "/")
        for path in ephemeral_paths:
            self._commit_delete(path, events)

    # ------------------------------------------------------------------
    # Znode operations
    # ------------------------------------------------------------------

    def create(
        self,
        session_id: str,
        path: str,
        data: str = "",
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (with sequence suffix)."""
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            self._prepare_write(session_id, len(data))
            reference = self._reference_server()
            parent = parent_path(path)
            if not reference.exists(parent):
                raise NoNodeError(f"parent {parent} does not exist")
            actual_path = path
            if sequential:
                seq = reference.apply_bump_sequence(parent)
                actual_path = f"{path}{seq:010d}"
            if reference.exists(actual_path):
                raise NodeExistsError(f"znode {actual_path} already exists")
            self._zxid += 1
            owner = session_id if ephemeral else None
            reference.apply_create(actual_path, data, owner, self._zxid)
            self._stamp_applied(self._zxid)
            self._queue_watch(self._data_watches, actual_path, "created", events)
            self._queue_child(parent, actual_path, "created", events)
        self._fire(events)
        return actual_path

    def ensure_path(self, session_id: str, path: str) -> None:
        """Create any missing ancestors of ``path`` and ``path`` itself."""
        parts = split_path(path)
        current = ""
        for part in parts:
            current = current + "/" + part
            try:
                self.create(session_id, current)
            except NodeExistsError:
                continue

    def get(self, session_id: str, path: str, watcher: Watcher | None = None) -> tuple[str, Stat]:
        with self._lock:
            self._prepare_read(session_id)
            node = self._reference_server().lookup(path)
            if watcher is not None:
                self._data_watches.setdefault(path, []).append(watcher)
            return node.data, node.stat()

    def get_many(self, session_id: str, paths: list[str]) -> list[str | None]:
        """Read several znodes in one coordination round-trip: the
        all-read ``multi`` of ZooKeeper 3.6+ (``Op.getData``).

        Returns each path's data in order, or ``None`` for a path that
        does not exist.  An expired session or a lost quorum fails the
        whole call, as it fails a single ``get``; no watches are set."""
        with self._lock:
            self._prepare_read(session_id)
            reference = self._reference_server()
            nodes = [reference.node_at(split_path(path)) for path in paths]
            return [None if node is None else node.data for node in nodes]

    def set(self, session_id: str, path: str, data: str, version: int = -1) -> Stat:
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            self._prepare_write(session_id, len(data))
            node = self._reference_server().lookup(path)
            if version >= 0 and node.version != version:
                raise BadVersionError(
                    f"version mismatch on {path}: expected {version}, found {node.version}"
                )
            self._zxid += 1
            self._reference_server().apply_set(path, data, self._zxid)
            self._stamp_applied(self._zxid)
            self._queue_watch(self._data_watches, path, "changed", events)
            stat = node.stat()
        self._fire(events)
        return stat

    def upsert(self, session_id: str, path: str, data: str = "") -> None:
        """Set ``path`` to ``data``, creating it (and any missing ancestors)
        in the same operation.

        This is the single-round-trip write primitive behind
        :meth:`~repro.coordination.kvstore.KVStore.put`: the seed
        implementation issued one ``create`` per ancestor (each a quorum
        round) followed by a ``set``; ``upsert`` charges exactly one
        coordination operation.
        """
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            self._prepare_write(session_id, len(data))
            self._apply_upsert(path, data, events)
        self._fire(events)

    def multi(self, session_id: str, ops: list[tuple]) -> list[str | None]:
        """Apply a batch of write operations in one coordination round-trip
        (group commit, mirroring ZooKeeper's ``multi()``).

        Each op is a tuple:

        * ``("upsert", path, data)`` — set, creating node and ancestors,
        * ``("create", path, data)`` — plain create under an existing
          parent; raises :class:`NodeExistsError` if the node exists (the
          atomic claim primitive behind the workers' exactly-once dispatch
          consumption),
        * ``("create_seq", path_prefix, data)`` — sequential create under
          an existing parent (queue recipe),
        * ``("delete", path, None)`` — recursive delete-if-exists.

        Returns one result per op (the created path for ``create_seq``,
        otherwise ``None``).  The batch is isolated from other clients —
        all sub-operations commit under a single ensemble lock acquisition
        and charge a single operation — and applied in order; if a sub-op
        fails (e.g. a ``create_seq`` under a deleted parent), the earlier
        sub-ops remain applied, their watch events still fire, and the
        error propagates.  Callers needing all-or-nothing semantics must
        ensure each sub-op is individually valid (the persistence layer's
        upsert/delete-if-exists ops cannot fail).
        """
        events: list[tuple[Watcher, WatchEvent]] = []
        results: list[str | None] = []
        for op in ops:
            if op[0] not in ("upsert", "create", "create_seq", "delete"):
                raise ValueError(f"unknown multi op kind {op[0]!r}")
        try:
            with self._lock:
                payload = sum(
                    len(op[2]) for op in ops if len(op) >= 3 and op[2] is not None
                )
                self._prepare_write(session_id, payload)
                self._multi_count += 1
                self._multi_sub_ops += len(ops)
                for op in ops:
                    kind, path = op[0], op[1]
                    data = op[2] if len(op) >= 3 else None
                    if kind == "upsert":
                        self._apply_upsert(path, data or "", events)
                        results.append(None)
                    elif kind == "create":
                        results.append(self._apply_create(path, data or "", events))
                    elif kind == "create_seq":
                        results.append(self._apply_create_seq(path, data or "", events))
                    else:
                        self._apply_delete_recursive(path, events)
                        results.append(None)
        finally:
            # Watchers of already-applied sub-ops must fire even when a
            # later sub-op raises, or consumers blocked on those watches
            # would hang forever.
            self._fire(events)
        return results

    def delete(self, session_id: str, path: str, version: int = -1) -> None:
        events: list[tuple[Watcher, WatchEvent]] = []
        with self._lock:
            self._prepare_write(session_id)
            node = self._reference_server().lookup(path)
            if version >= 0 and node.version != version:
                raise BadVersionError(
                    f"version mismatch on {path}: expected {version}, found {node.version}"
                )
            if node.children:
                raise NotEmptyError(f"znode {path} has children")
            self._commit_delete(path, events)
        self._fire(events)

    def exists(self, session_id: str, path: str, watcher: Watcher | None = None) -> Stat | None:
        with self._lock:
            self._prepare_read(session_id)
            if watcher is not None:
                self._data_watches.setdefault(path, []).append(watcher)
            try:
                return self._reference_server().lookup(path).stat()
            except NoNodeError:
                return None

    def get_children(
        self, session_id: str, path: str, watcher: Watcher | None = None
    ) -> list[str]:
        with self._lock:
            self._prepare_read(session_id)
            node = self._reference_server().lookup(path)
            if watcher is not None:
                self._child_watches.setdefault(path, []).append(watcher)
            return sorted(node.children)

    def add_child_watch(self, session_id: str, path: str, watcher: Watcher) -> list[str]:
        """``path``'s children and a persistent child watch (``addWatch``), in
        one read round-trip: ``watcher`` gets ``created`` / ``deleted`` with the
        child's path for every child change, then ``expired`` when its session
        ends.  Registering an equal watcher again moves it to this session."""
        with self._lock:
            self._prepare_read(session_id)
            self._child_streams.setdefault(path, {})[watcher] = session_id
            node = self._reference_server().node_at(split_path(path))
            return [] if node is None else sorted(node.children)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reference_server(self) -> CoordinationServer:
        for server in self.servers:
            if server.up:
                return server
        raise QuorumLostError("no coordination server is up")

    def _stamp_applied(self, zxid: int) -> None:
        """Record ``zxid`` on every up server.  The tree mutation itself is
        applied once — all up servers share it (see ``__init__``)."""
        for server in self.servers:
            if server.up:
                server.applied_zxid = zxid

    def _check_quorum(self) -> None:
        if not self.has_quorum():
            raise QuorumLostError(
                f"only {len(self.up_servers())}/{len(self.servers)} coordination servers up"
            )

    def _check_session(self, session_id: str) -> None:
        session = self._sessions.get(session_id)
        if session is None or session.expired:
            raise SessionExpiredError(f"session {session_id} has expired")

    def _prepare_write(self, session_id: str, payload_bytes: int = 0) -> None:
        self._charge_latency()
        self._write_round_trips += 1
        self._bytes_written += payload_bytes
        self._check_quorum()
        self._check_session(session_id)

    def _prepare_read(self, session_id: str) -> None:
        self._charge_latency()
        self._read_round_trips += 1
        self._check_quorum()
        self._check_session(session_id)

    # -- multi/upsert sub-operation appliers ----------------------------

    def _apply_upsert(
        self, path: str, data: str, events: list[tuple[Watcher, WatchEvent]]
    ) -> None:
        """Create-or-set ``path`` (creating missing ancestors), firing the
        same watches the equivalent create/set sequence would fire.

        The overwhelmingly common case — the node already exists — is a
        single path-index probe; otherwise the deepest existing prefix is
        found by probing upward from the leaf (instead of one existence
        probe per ancestor per call).
        """
        reference = self._reference_server()
        parts = split_path(path)
        if reference.node_at(parts) is not None:
            self._zxid += 1
            reference.apply_set(path, data, self._zxid)
            self._stamp_applied(self._zxid)
            self._queue_watch(self._data_watches, path, "changed", events)
            return
        # Probe upward for the deepest existing prefix (missing nodes are
        # usually leaves, so this terminates after one or two probes).
        existing_depth = len(parts) - 1
        while existing_depth and reference.node_at(parts[:existing_depth]) is None:
            existing_depth -= 1
        current = "/" + "/".join(parts[:existing_depth]) if existing_depth else ""
        for index in range(existing_depth, len(parts)):
            current = current + "/" + parts[index]
            is_leaf = index == len(parts) - 1
            self._zxid += 1
            reference.apply_create(current, data if is_leaf else "", None, self._zxid)
            self._queue_watch(self._data_watches, current, "created", events)
            self._queue_child(parent_path(current), current, "created", events)
        self._stamp_applied(self._zxid)

    def _apply_create(
        self, path: str, data: str, events: list[tuple[Watcher, WatchEvent]]
    ) -> str:
        reference = self._reference_server()
        parts = split_path(path)
        if reference.node_at(parts[:-1]) is None:
            raise NoNodeError(f"parent {parent_path(path)} does not exist")
        if reference.node_at(parts) is not None:
            raise NodeExistsError(f"znode {path} already exists")
        self._zxid += 1
        reference.apply_create(path, data, None, self._zxid)
        self._stamp_applied(self._zxid)
        self._queue_watch(self._data_watches, path, "created", events)
        self._queue_child(parent_path(path), path, "created", events)
        return path

    def _apply_create_seq(
        self, path_prefix: str, data: str, events: list[tuple[Watcher, WatchEvent]]
    ) -> str:
        reference = self._reference_server()
        parent = parent_path(path_prefix)
        if reference.node_at(split_path(parent)) is None:
            raise NoNodeError(f"parent {parent} does not exist")
        seq = reference.apply_bump_sequence(parent)
        actual_path = f"{path_prefix}{seq:010d}"
        if reference.node_at(split_path(actual_path)) is not None:
            raise NodeExistsError(f"znode {actual_path} already exists")
        self._zxid += 1
        reference.apply_create(actual_path, data, None, self._zxid)
        self._stamp_applied(self._zxid)
        self._queue_watch(self._data_watches, actual_path, "created", events)
        self._queue_child(parent, actual_path, "created", events)
        return actual_path

    def _apply_delete_recursive(
        self, path: str, events: list[tuple[Watcher, WatchEvent]]
    ) -> None:
        reference = self._reference_server()
        try:
            node = reference.lookup(path)
        except NoNodeError:
            return
        for name in list(node.children):
            child_path = join_path(path if path != "/" else "/", name)
            self._apply_delete_recursive(child_path, events)
        self._commit_delete(path, events)

    def _charge_latency(self) -> None:
        self._op_count += 1
        if self.op_latency > 0:
            self.clock.sleep(self.op_latency)

    def _commit_delete(self, path: str, events: list[tuple[Watcher, WatchEvent]]) -> None:
        self._zxid += 1
        self._reference_server().apply_delete(path, self._zxid)
        self._stamp_applied(self._zxid)
        self._queue_watch(self._data_watches, path, "deleted", events)
        self._queue_child(parent_path(path), path, "deleted", events)

    def _queue_child(
        self, parent: str, path: str, kind: str, events: list[tuple[Watcher, WatchEvent]]
    ) -> None:
        """Fire ``parent``'s one-shot child watches, and tell its persistent
        child watchers ``kind`` with the child's ``path``."""
        if parent in self._child_watches:
            self._queue_watch(self._child_watches, parent, "child", events)
        if streams := self._child_streams.get(parent):
            event = WatchEvent(kind, path)
            for watcher in streams:
                events.append((watcher, event))

    def _queue_watch(
        self,
        registry: dict[str, list[Watcher]],
        path: str,
        kind: str,
        events: list[tuple[Watcher, WatchEvent]],
    ) -> None:
        watchers = registry.pop(path, ())
        for watcher in watchers:
            events.append((watcher, WatchEvent(kind=kind, path=path)))

    @staticmethod
    def _fire(events: list[tuple[Watcher, WatchEvent]]) -> None:
        for watcher, event in events:
            try:
                watcher(event)
            except Exception:  # noqa: BLE001 - watcher bugs must not corrupt the ensemble
                pass
