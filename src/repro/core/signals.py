"""TERM / KILL signals for stalled transactions (§4).

Resource volatility can stall a transaction indefinitely (e.g. an
unresponsive device).  TROPIC offers two remedies, analogous to SIGTERM and
SIGKILL:

* **TERM** — the physical worker notices the signal between actions,
  stops, and rolls back gracefully with undo actions in both layers, so
  cross-layer consistency is maintained.
* **KILL** — the controller aborts the transaction immediately, but only in
  the logical layer; any resulting cross-layer inconsistency is later
  reconciled with *repair*.

Signals are posted on a shared board in the coordination store so that both
the (possibly failed-over) controller and the workers observe them.  Each
observer keeps the board's listing in a
:class:`~repro.coordination.client.ChildMirror`, the persistent child watch
the queues use too: asking whether a transaction is signalled costs no
coordination operation, and a posted signal costs one value read.
"""

from __future__ import annotations

from repro.coordination.client import ChildMirror
from repro.core.persistence import TropicStore

TERM = "TERM"
KILL = "KILL"


class SignalBoard:
    """Reads and writes per-transaction signals in the persistent store."""

    def __init__(self, store: TropicStore):
        self.store = store
        self._posted = ChildMirror(store.kv.client, store.kv.full_key(store.SIGNAL_PREFIX))

    def send(self, txid: str, signal: str) -> None:
        if signal not in (TERM, KILL):
            raise ValueError(f"unknown signal {signal!r}")
        self.store.set_signal(txid, signal)

    def term(self, txid: str) -> None:
        self.send(txid, TERM)

    def kill(self, txid: str) -> None:
        self.send(txid, KILL)

    def get(self, txid: str) -> str | None:
        return self.store.get_signal(txid)

    def clear(self, txid: str) -> None:
        self.store.clear_signal(txid)

    def present(self) -> frozenset[str]:
        """Transaction ids with a posted signal, from the board's mirror
        (one listing on first use, none after while the session holds)."""
        return frozenset(self._posted.names())

    def signal_of(self, txid: str) -> str | None:
        """The signal posted for ``txid``; reads the value only when the
        board lists ``txid``, and drops a listed name that reads as gone."""
        if txid not in (posted := self._posted.names()):
            return None
        if (signal := self.get(txid)) is None:
            posted.discard(txid)  # a phantom name
        return signal
