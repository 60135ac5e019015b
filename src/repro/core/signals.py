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
observer keeps the board's listing behind one child watch: asking whether
a transaction is signalled costs no coordination operation until a signal
is actually posted or cleared.
"""

from __future__ import annotations

from repro.core.persistence import TropicStore

TERM = "TERM"
KILL = "KILL"


class SignalBoard:
    """Reads and writes per-transaction signals in the persistent store."""

    def __init__(self, store: TropicStore):
        self.store = store
        #: Bumped by the child watch on ``signals/``; a listing is current
        #: while the generation it was taken at still holds.
        self._generation = 0
        self._listed: tuple[int, str, frozenset[str]] | None = None

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

    def _on_change(self, _event) -> None:
        self._generation += 1

    def present(self) -> frozenset[str]:
        """Transaction ids with a posted signal.

        Listed once with a child watch and re-listed only after the watch
        fired (a signal was posted or cleared) or the client's session
        changed.  The generation is read *before* listing, so a watch
        firing while the listing is in flight forces the next call to
        re-list instead of being lost."""
        session = self.store.kv.client.session_id
        listed = self._listed
        if listed is not None and listed[0] == self._generation and listed[1] == session:
            return listed[2]
        generation = self._generation
        names = frozenset(self.store.watch_signals(self._on_change) or ())
        self._listed = (generation, session, names)
        return names

    def signal_of(self, txid: str) -> str | None:
        """The signal posted for ``txid``; reads the value only when the
        board lists ``txid``."""
        if txid not in self.present():
            return None
        return self.get(txid)
