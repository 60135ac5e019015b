"""The todo queue and scheduling policies (§3.1.1).

Accepted transactions wait in ``todoQ``.  The paper's controller uses a
plain FIFO policy for fairness and simplicity: only the head of the queue
is considered, and a head blocked by a resource conflict is put back at the
front and retried later.  The paper mentions, as future work, a more
aggressive policy that schedules transactions queued behind a conflicting
head; this module implements both, and the ablation benchmark compares
them.

The queue maintains a txid index so that :meth:`TodoQueue.remove` — called
once per transaction per scheduling pass, and by KILL handling — is O(1)
instead of an O(n) scan.  Removal marks the queue cell dead; dead cells are
skipped during iteration and compacted away once they outnumber live ones.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterator

from repro.analysis.recorder import traced
from repro.common.errors import ConfigurationError
from repro.core.txn import Transaction

FIFO = "fifo"
AGGRESSIVE = "aggressive"
POLICIES = (FIFO, AGGRESSIVE)


class _Cell:
    """One queue slot; ``live`` is cleared on removal (lazy deletion)."""

    __slots__ = ("txn", "live")

    def __init__(self, txn: Transaction):
        self.txn = txn
        self.live = True


class TodoQueue:
    """In-memory queue of accepted transactions awaiting logical execution.

    The queue itself is controller-local (soft state); its content is
    recoverable because every accepted transaction is persisted in the
    coordination store before being enqueued.
    """

    def __init__(self, policy: str = FIFO):
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown scheduling policy {policy!r}")
        self.policy = policy
        self._queue: deque[_Cell] = deque()
        self._index: dict[str, _Cell] = {}
        # send_kill (and the maintenance daemon) touch the queue from
        # other threads, and _compact rebuilds the deque: all structural
        # access is serialised.
        self._mutex = traced(threading.RLock(), "TodoQueue._mutex")

    # -- queue operations ----------------------------------------------------

    def push_back(self, txn: Transaction) -> None:
        with self._mutex:
            self._displace(txn.txid)
            cell = _Cell(txn)
            self._queue.append(cell)
            self._index[txn.txid] = cell

    def push_front(self, txn: Transaction) -> None:
        with self._mutex:
            self._displace(txn.txid)
            cell = _Cell(txn)
            self._queue.appendleft(cell)
            self._index[txn.txid] = cell

    def _displace(self, txid: str) -> None:
        """Kill any existing cell for ``txid`` (a transaction is queued at
        most once; re-pushing moves it)."""
        existing = self._index.pop(txid, None)
        if existing is not None:
            existing.live = False

    def remove(self, txid: str) -> Transaction | None:
        with self._mutex:
            cell = self._index.pop(txid, None)
            if cell is None:
                return None
            cell.live = False
            if len(self._queue) > 2 * max(len(self._index), 8):
                self._compact()
            return cell.txn

    def _compact(self) -> None:
        self._queue = deque(cell for cell in self._queue if cell.live)

    def peek(self) -> Transaction | None:
        with self._mutex:
            while self._queue and not self._queue[0].live:
                self._queue.popleft()
            return self._queue[0].txn if self._queue else None

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions())

    def is_empty(self) -> bool:
        return not self._index

    def transactions(self) -> list[Transaction]:
        with self._mutex:
            return [cell.txn for cell in self._queue if cell.live]
