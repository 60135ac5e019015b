"""Client handle to the coordination ensemble (one session per client)."""

from __future__ import annotations

import threading
from typing import Callable

from repro.common.errors import NodeExistsError, NoNodeError
from repro.coordination.ensemble import CoordinationEnsemble, Session, WatchEvent
from repro.coordination.znode import Stat


class CoordinationClient:
    """A session-scoped handle mirroring the ZooKeeper client API surface
    used by TROPIC: create/get/set/delete/exists/get_children, ephemeral and
    sequential nodes, one-shot watches, and heartbeats."""

    def __init__(self, ensemble: CoordinationEnsemble, session_timeout: float | None = None):
        self.ensemble = ensemble
        self._session_timeout = session_timeout
        self._session: Session = ensemble.create_session(session_timeout)
        #: The open write-batch scope, per thread (see
        #: :meth:`repro.coordination.kvstore.KVStore.batch`).  It belongs
        #: to the client, not to one store: every ``KVStore`` over this
        #: client joins the scope a thread has open, so writes under
        #: different prefixes commit in one ``multi``.  It is per thread
        #: because in the threaded runtime controllers, workers and the
        #: maintenance daemon share one client, and a scope belongs to one
        #: thread's loop iteration.
        self.batch_scope = threading.local()

    # -- session --------------------------------------------------------

    @property
    def session_id(self) -> str:
        return self._session.session_id

    def heartbeat(self) -> None:
        self.ensemble.heartbeat(self.session_id)

    def close(self) -> None:
        self.ensemble.close_session(self.session_id)

    def is_live(self) -> bool:
        return self.ensemble.session_is_live(self.session_id)

    def reconnect(self, session_timeout: float | None = None) -> None:
        """Open a fresh session (after expiry of the previous one).

        Without an explicit ``session_timeout`` the new session keeps the
        timeout this client was constructed with — a long-session client
        must not silently downgrade to the ensemble default on recovery.
        """
        if session_timeout is not None:
            self._session_timeout = session_timeout
        self._session = self.ensemble.create_session(self._session_timeout)

    # -- znode API --------------------------------------------------------

    def create(
        self,
        path: str,
        data: str = "",
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> str:
        return self.ensemble.create(self.session_id, path, data, ephemeral, sequential)

    def ensure_path(self, path: str) -> None:
        self.ensemble.ensure_path(self.session_id, path)

    def get(self, path: str, watcher: Callable[[WatchEvent], None] | None = None) -> tuple[str, Stat]:
        return self.ensemble.get(self.session_id, path, watcher)

    def get_data(self, path: str, default: str | None = None) -> str | None:
        """Return the data at ``path`` or ``default`` if it does not exist."""
        try:
            data, _ = self.get(path)
            return data
        except NoNodeError:
            return default

    def set(self, path: str, data: str, version: int = -1) -> Stat:
        return self.ensemble.set(self.session_id, path, data, version)

    def set_or_create(self, path: str, data: str) -> None:
        """Upsert helper used by the persistence layer."""
        try:
            self.create(path, data)
        except NodeExistsError:
            self.set(path, data)
        except NoNodeError:
            self.ensure_path(path)
            self.set(path, data)

    def upsert(self, path: str, data: str = "") -> None:
        """Single-round-trip set-or-create, creating missing ancestors."""
        self.ensemble.upsert(self.session_id, path, data)

    def multi(self, ops: list[tuple]) -> list[str | None]:
        """Apply a batch of write ops in one round-trip (group commit)."""
        return self.ensemble.multi(self.session_id, ops)

    def delete(self, path: str, version: int = -1) -> None:
        self.ensemble.delete(self.session_id, path, version)

    def delete_if_exists(self, path: str) -> bool:
        try:
            self.delete(path)
            return True
        except NoNodeError:
            return False

    def exists(self, path: str, watcher: Callable[[WatchEvent], None] | None = None) -> Stat | None:
        return self.ensemble.exists(self.session_id, path, watcher)

    def get_children(
        self, path: str, watcher: Callable[[WatchEvent], None] | None = None
    ) -> list[str]:
        return self.ensemble.get_children(self.session_id, path, watcher)

    def __repr__(self) -> str:
        return f"<CoordinationClient session={self.session_id}>"
