"""Physical workers (§3.2).

Workers sit between the controllers and the physical devices.  Each worker
dequeues runnable transactions from phyQ, replays their execution logs via
:class:`~repro.core.physical.PhysicalExecutor`, and reports the outcome
(committed / aborted / failed) back to the controller through inputQ.

The execute message carries the execution log, so a worker never reads the
transaction document: an item without a log is dropped like an unknown
kind.  KILL and TERM are looked up on the worker's watched
:class:`~repro.core.signals.SignalBoard`, which costs no coordination
operation while no signal moves.

Consumption is *claim-based*: before executing an item the worker persists
a claim record and deletes the phyQ item in one atomic ``multi`` (the claim
is a create-if-absent, so exactly one worker wins when several take the
same item).  The controller puts an execute item in the same ``multi`` as
the STARTED state it dispatches, so every STARTED transaction has its item
or a claim; the worker is the only component that re-drives a claimed
transaction.
"""

from __future__ import annotations

from repro.common.config import TropicConfig
from repro.common.errors import NodeExistsError, NoNodeError
from repro.common.idgen import random_id
from repro.common.jsonutil import dumps
from repro.coordination.queue import DistributedQueue
from repro.core.events import KIND_EXECUTE, result_message
from repro.core.persistence import TropicStore
from repro.core.physical import PhysicalExecutor
from repro.core.signals import KILL, SignalBoard
from repro.core.txn import ExecutionLog, Transaction
from repro.drivers.registry import DeviceRegistry

#: Most phyQ items a worker drains per loop iteration; their result
#: messages ride back to the controller in one queue write.
WORKER_BATCH_SIZE = 16


class Worker:
    """One physical worker."""

    def __init__(
        self,
        name: str,
        store: TropicStore,
        phy_queue: DistributedQueue,
        input_queue: DistributedQueue,
        registry: DeviceRegistry | None = None,
        config: TropicConfig | None = None,
    ):
        self.name = name
        self.store = store
        self.phy_queue = phy_queue
        self.input_queue = input_queue
        self.config = config or TropicConfig()
        self.signals = SignalBoard(store)
        self.executor = PhysicalExecutor(registry, self.config, signals=self.signals)
        self.transactions_processed = 0
        self.duplicate_dispatches_skipped = 0
        #: Distinguishes this worker incarnation's claims from those of a
        #: crashed predecessor with the same name (see _claim_fallback).
        self._nonce = random_id("wk")
        #: Claimed transactions not yet executed-and-resulted.  A claim is
        #: durable and its phyQ item is gone, so if a transient fault
        #: (session expiry, connection loss) interrupts the step after the
        #: claim multi, this worker is the *only* component that can still
        #: finish the transaction: nothing re-dispatches it.  Retained
        #: across steps and retried.
        self._claimed: dict[str, Transaction] = {}
        #: Result messages not yet delivered to inputQ.  ``put_many`` is a
        #: single atomic multi: if it raises, nothing was enqueued and the
        #: whole batch is retried on the next step.
        self._outbox: list[dict] = []
        self.store.ensure_claim_root()

    # ------------------------------------------------------------------

    def _claim_ops(self, name: str, txid: str, epoch: int) -> list[tuple]:
        """The ordered op pair claiming one item: claim durable *before*
        the phyQ item disappears, so no crash point leaves a consumed item
        without a claim record."""
        claim = dumps({"worker": self.name, "epoch": epoch, "nonce": self._nonce})
        return [
            ("create", self.store.claim_key(txid), claim),
            ("delete", f"{self.phy_queue.path}/{name}", None),
        ]

    def _claim_and_ack_many(self, items: list[tuple[str, str, int]]) -> list[str]:
        """Atomically claim a batch of transactions, removing their phyQ
        items; returns the txids this worker won.

        Fast path: one ``multi`` of ``[create claim, delete item]`` pairs
        for the whole batch — one coordination round-trip (the common case:
        no duplicate dispatches, no racing peer).  A claim create fails if
        the transaction is already claimed; the multi applies in order and
        stops at the failure, so the slow path re-checks every item
        individually, using the incarnation nonce to recognise claims this
        very multi already applied.
        """
        if not items:
            return []
        client = self.store.kv.client
        ops = []
        for entry in items:
            ops.extend(self._claim_ops(*entry))
        try:
            client.multi(ops)
            return [txid for _, txid, _ in items]
        except (NodeExistsError, NoNodeError):
            return self._claim_fallback(items)

    def _claim_fallback(self, items: list[tuple[str, str, int]]) -> list[str]:
        """Per-item claims after a failed batched multi (which applied an
        unknown prefix of its ops)."""
        client = self.store.kv.client
        won: list[str] = []
        for name, txid, epoch in items:
            claim = self.store.load_claim(txid)
            if claim is not None:
                if claim.get("nonce") == self._nonce and claim.get("epoch") == epoch:
                    # Our own claim from the partial multi; its item delete
                    # may not have applied — ack is idempotent.
                    self.phy_queue.ack(name)
                    won.append(txid)
                else:
                    # Duplicate dispatch: someone else owns the claim.
                    self.phy_queue.ack(name)
                    self.duplicate_dispatches_skipped += 1
                continue
            try:
                client.multi(self._claim_ops(name, txid, epoch))
                won.append(txid)
            except NodeExistsError:
                self.phy_queue.ack(name)
                self.duplicate_dispatches_skipped += 1
            except NoNodeError:
                # The claims root is missing (fresh namespace): restore it
                # and leave the item for the next step's retry.
                self.store.ensure_claim_root()
        return won

    def step(self) -> bool:
        """Drain a batch of phyQ items; returns True if work was done.

        The whole batch is claimed-and-acked in one coordination round-trip
        and the result messages ride back to the controller in a single
        inputQ group write.

        Crash-consistent against transient coordination faults: work the
        step was interrupted in (claimed-but-unexecuted transactions,
        undelivered results) is retained on the instance and finished
        first on the next step.  An exception from this method therefore
        never strands a claimed transaction — the service loop heals the
        session and re-steps.
        """
        recovered = self._finish_interrupted()
        taken = self.phy_queue.take_many(WORKER_BATCH_SIZE)
        if not taken:
            return recovered
        to_claim: list[tuple[str, str, int]] = []
        transactions: dict[str, Transaction] = {}
        for name, item in taken:
            log = item.get("log")
            if item.get("kind") != KIND_EXECUTE or log is None:
                self.phy_queue.ack(name)
                continue  # unknown kinds and log-less execute items are dropped
            txid = item["txid"]
            # The first item per txid is the one whose claim op comes
            # first, so a later duplicate must not replace its log.
            if txid not in transactions:
                transactions[txid] = Transaction(
                    "", txid=txid, log=ExecutionLog.from_dict(log)
                )
            to_claim.append((name, txid, int(item.get("epoch", 0))))
        won = self._claim_and_ack_many(to_claim)
        # The claims are durable and the phyQ items are gone: from here on
        # only this worker can finish these transactions, so track them
        # until their results are safely in inputQ.
        for txid in won:
            self._claimed[txid] = transactions[txid]
        self._execute_claimed()
        self._flush_outbox()
        return True

    def _finish_interrupted(self) -> bool:
        """Finish work a previous (faulted) step left behind: deliver
        undelivered results, then execute claimed-but-unexecuted
        transactions."""
        flushed = self._flush_outbox()
        executed = self._execute_claimed()
        if executed:
            self._flush_outbox()
        return flushed or executed

    def _execute_claimed(self) -> bool:
        did_work = False
        for txid in list(self._claimed):
            # Checked per item on the watched board, whose mirror sees
            # every post: a KILL posted while earlier batch items executed
            # must still stop this one before it touches the devices.  The
            # claim stays (the controller aborts KILLed transactions in the
            # logical layer only and keeps the KILL posted, §4; the claim
            # goes at the next quiesce-point checkpoint).
            if self.signals.signal_of(txid) == KILL:
                del self._claimed[txid]
                continue
            outcome = self.executor.execute(self._claimed[txid])
            self.transactions_processed += 1
            self._outbox.append(
                result_message(
                    txid,
                    outcome.outcome,
                    error=outcome.error,
                    failed_path=outcome.failed_path,
                    worker=self.name,
                )
            )
            del self._claimed[txid]
            did_work = True
        return did_work

    def _flush_outbox(self) -> bool:
        if not self._outbox:
            return False
        self.input_queue.put_many(self._outbox)
        self._outbox = []
        return True

    def run_pending(self, max_items: int | None = None) -> int:
        """Drain phyQ (bounded by ``max_items``); returns items processed."""
        processed = 0
        while max_items is None or processed < max_items:
            before = self.transactions_processed
            if not self.step():
                break
            processed += max(self.transactions_processed - before, 1)
        return processed
