"""The TROPIC controller: logical-layer transaction processing (§3, Figure 2).

The (leader) controller accepts transaction requests from inputQ, schedules
them from todoQ, simulates them against the logical data model with
constraint checking, acquires multi-granularity locks, hands runnable
transactions to the physical workers through phyQ, and performs cleanup
(commit bookkeeping or logical rollback) when the workers report results.

The controller keeps only soft state in memory; everything needed to resume
after a leader failure is persisted in the coordination store *before* the
triggering inputQ item is acknowledged, which makes message handling
idempotent across failovers (§2.3).

The write path (group commit → dispatch epoch → worker claims) and the
cross-shard protocol driven from here are documented in
``docs/architecture.md#the-write-path`` and
``docs/architecture.md#cross-shard-transactions-two-phase-commit``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.analysis.recorder import traced
from repro.common.clock import Clock, RealClock, Stopwatch
from repro.common.errors import ConfigurationError, ReproError, UnknownPathError
from repro.common.config import TropicConfig
from repro.common.retry import RetryPolicy
from repro.coordination.queue import DistributedQueue
from repro.core.constraints import ConstraintEngine
from repro.core.events import (
    DECISION_ABORT,
    DECISION_COMMIT,
    DECISION_RELEASE,
    KIND_DECISION,
    KIND_EXECUTE,
    KIND_PREPARE,
    KIND_REQUEST,
    KIND_RESULT,
    KIND_VOTE,
    KIND_WOUND,
    OUTCOME_ABORTED,
    OUTCOME_COMMITTED,
    VOTE_NO,
    VOTE_YES,
    decision_message,
    execute_message,
    prepare_message,
    vote_message,
    wound_message,
)
from repro.core.locks import LockManager
from repro.core.persistence import TropicStore
from repro.core.procedures import ProcedureRegistry
from repro.core.recovery import recover_state
from repro.core.scheduler import FIFO, TodoQueue
from repro.core.sharding import ShardRouter
from repro.core.signals import KILL, SignalBoard, TERM
from repro.core.simulation import LogicalExecutor
from repro.core.twopc import (
    TwoPCLog,
    shards_touched,
    split_log,
    split_rwset,
)
from repro.core.txn import ExecutionLog, ReadWriteSet, Transaction, TransactionState
from repro.datamodel.path import ResourcePath
from repro.datamodel.schema import ModelSchema
from repro.datamodel.tree import DataModel

#: Named crash edges of the controller (see repro.testing.faults): the
#: commit edges ``_commit`` passes — before a non-empty group commit, the
#: dispatch-loss window between that commit and the phyQ put_many, and
#: before the inputQ acks — the checkpoint edge, and the protocol edges of
#: cross-shard two-phase commit: the four prepare/decision edges plus the
#: two wound-wait edges of concurrent prepares.  A ``fault_hook`` (test
#: harness only) receives these names and may raise to model a process
#: death at that exact edge.
PRE_COMMIT = "pre-commit"
PRE_DISPATCH = "post-flush-pre-dispatch"
POST_COMMIT_PRE_ACK = "post-commit-pre-ack"
PRE_CHECKPOINT = "pre-checkpoint"
TWOPC_PRE_PREPARE = "2pc-pre-prepare"
TWOPC_POST_PREPARE = "2pc-post-prepare"
TWOPC_PRE_DECISION = "2pc-pre-decision"
TWOPC_POST_DECISION = "2pc-post-decision"
#: Wound-wait edges: before any wound mutation is buffered (the victim's
#: successor presumed-aborts it), and a coordinator entering the prepare
#: fan-out while other cross-shard transactions are already in flight on
#: the same shard.  The wound's abort decision commits with the step, so
#: no wound state is durable before the step's one ``multi``.
TWOPC_PRE_WOUND = "2pc-pre-wound"
TWOPC_CONCURRENT_PREPARE = "2pc-concurrent-prepare"

#: Vote-no reason that triggers a coordinator retry instead of an abort.
_REASON_CONFLICT = "lock-conflict"

#: Most inputQ messages the controller drains per step; their persisted
#: state changes are coalesced into one group-commit write.
INPUT_BATCH_SIZE = 64

#: Wound-backoff cooldowns are expressed in *scheduling passes*, not wall
#: time: inline test drivers and chaos scenarios step controllers to
#: quiescence with no clock advancing, so a time-based backoff would
#: either spin or deadlock them.  The seeded RetryPolicy's jittered delay
#: is mapped onto a pass count (delay / base_delay, capped) — identical
#: growth curve, deterministic under a fixed seed.
_MAX_WOUND_COOLDOWN_PASSES = 16


@dataclass
class _Effects:
    """What one commit reveals to clients, workers and peer shards, held
    until that commit is durable; ``Controller._commit`` applies the
    fields in declaration order.  Only messages and notifications are
    effects: every store write, a 2PC decision or horizon included,
    rides the commit itself."""

    notify: list[Transaction] = field(default_factory=list)
    dispatch: list[dict[str, Any]] = field(default_factory=list)
    outbound: list[tuple[int, dict[str, Any]]] = field(default_factory=list)
    acks: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.notify or self.dispatch or self.outbound or self.acks)


class Controller:
    """A controller replica.  Only the elected leader executes transactions."""

    def __init__(
        self,
        name: str,
        config: TropicConfig,
        store: TropicStore,
        input_queue: DistributedQueue,
        phy_queue: DistributedQueue,
        schema: ModelSchema,
        procedures: ProcedureRegistry,
        clock: Clock | None = None,
        on_complete: Callable[[Transaction], None] | None = None,
        shard_id: int = 0,
        router: ShardRouter | None = None,
        peer_queues: dict[int, DistributedQueue] | None = None,
        twopc: TwoPCLog | None = None,
        fault_hook: Callable[[str], None] | None = None,
    ):
        self.name = name
        #: Index of the data-model shard this replica serves.  All of the
        #: controller's persistent state (store, queues, election) is
        #: namespaced per shard by the platform; the lock domain and todoQ
        #: below are therefore shard-local by construction.
        self.shard_id = shard_id
        self.config = config
        self.store = store
        self.input_queue = input_queue
        self.phy_queue = phy_queue
        self.schema = schema
        self.procedures = procedures
        self.clock = clock or RealClock()
        self.on_complete = on_complete
        #: Cross-shard two-phase commit wiring (sharded deployments only):
        #: the shard router (authoritative participant resolution from the
        #: simulated read/write set), the peer shards' inputQs for
        #: prepare/vote/decision traffic, and the global decision log.
        #: The log must share the store's coordination client: a decision
        #: joins the batch of the commit that makes it, which the client
        #: scopes (a log over another client would write at once).
        if twopc is not None and twopc.kv.client is not store.kv.client:
            raise ConfigurationError(
                f"controller {name}: the 2PC decision log and the shard store "
                f"must share one coordination client, so a decision commits "
                f"in the same multi as the state that makes it"
            )
        self.router = router
        self.peer_queues = dict(peer_queues or {})
        self.twopc = twopc
        #: Test-harness hook receiving named crash edges (see PRE_COMMIT
        #: and the constants beside it); may raise to model a process death.
        self.fault_hook = fault_hook
        #: Wound-wait soft state.  The seeded backoff policy prices the
        #: cooldown (in scheduling passes) a wounded transaction sits out
        #: before re-preparing; seeding by shard keeps interleavings
        #: reproducible.  ``_wounds_sent`` dedupes cross-shard wound
        #: requests per (requester, victim) so a blocked requester polling
        #: the conflict does not flood the victim's coordinator; both are
        #: soft state — a failover forgets them at the cost of one
        #: duplicate (idempotent) wound message or a restarted backoff.
        self._wound_backoff = RetryPolicy(seed=shard_id)
        self._wounds_sent: dict[str, set[str]] = {}

        self.model = DataModel()
        self.constraint_engine = ConstraintEngine(schema)
        self.executor = LogicalExecutor(self.model, schema, procedures, self.constraint_engine)
        self.lock_manager = LockManager()
        self.todo = TodoQueue(config.scheduler_policy)
        self.outstanding: dict[str, Transaction] = {}
        self.signals = SignalBoard(store)

        self.busy = Stopwatch(self.clock)
        self.recovered = False
        self.applied_since_checkpoint = 0
        #: ``applied_seq`` of the latest checkpoint: the next checkpoint
        #: truncates the applied log only up to it (seeded at recovery).
        self._checkpoint_seq = 0
        #: Leadership generation carried in execute messages (and from
        #: there into worker claims); bumped (durably) at every takeover.
        self.dispatch_epoch = 0
        #: Effects of the open commit: a worker must never see a STARTED
        #: state, a participant a PREPARING record, a coordinator a vote
        #: or a client an outcome that the store could still lose.
        self._effects = _Effects()
        #: Held by ``_commit`` (every writer) and by ``fork_model``: one
        #: thread at a time writes, commits and applies effects, so a KILL
        #: sent from another thread can never interleave with a step's
        #: pending batch (its ABORTED document clobbered by a buffered
        #: STARTED one).
        self._op_mutex = traced(threading.RLock(), "Controller._op_mutex")
        self.stats: dict[str, int] = {
            "accepted": 0,
            "committed": 0,
            "aborted_logical": 0,
            "aborted_physical": 0,
            "failed": 0,
            "deferred": 0,
            "killed": 0,
            "checkpoints": 0,
            "input_batches": 0,
            "messages_handled": 0,
            "redispatched": 0,
            "cross_shard_prepares": 0,
            "cross_shard_prepared": 0,
            "cross_shard_committed": 0,
            "cross_shard_aborted": 0,
            "cross_shard_upgrades": 0,
            "cross_shard_wounded": 0,
            "cross_shard_wounds_sent": 0,
            "cross_shard_waits": 0,
            "foreign_write_rejects": 0,
            "prepare_timeouts": 0,
            "twopc_decisions_gced": 0,
            "token_acks": 0,
        }

    # ------------------------------------------------------------------
    # State restoration (leader takeover, §2.3)
    # ------------------------------------------------------------------

    def recover(self) -> None:
        """Rebuild logical state from the persistent store.

        Called when this replica becomes leader (including the very first
        leader).  Idempotent: calling it again simply rebuilds the same
        state from the store.  Everything it writes commits as one batch
        through ``_commit``, and every message it sends (presumed-abort
        decisions, re-votes, re-dispatches) follows that commit.
        """
        self._commit(self._restore)
        # Only now is recovery complete.  The flag must be set *last*: a
        # transient coordination fault anywhere in the recovery commit
        # leaves it False, so the next step re-runs the whole (idempotent)
        # procedure.  Were it set earlier, a leader interrupted before the
        # presumed-abort decisions of _recover_two_phase were durable would
        # resume normal message handling and could commit a PREPARING
        # coordinator it never simulated — acknowledging effects its model
        # does not hold.
        self.recovered = True

    def _restore(self) -> None:
        """Recovery's commit body: rebuild the soft state, take a fresh
        dispatch epoch and resolve what the failed leader left open."""
        state = recover_state(self.store, self.schema, self.procedures, self.config)
        self.model = state.model
        self.constraint_engine = ConstraintEngine(self.schema)
        self.executor = LogicalExecutor(
            self.model, self.schema, self.procedures, self.constraint_engine
        )
        self.lock_manager = state.lock_manager
        self.todo = state.todo
        self.outstanding = state.outstanding
        self.applied_since_checkpoint = len(state.replayed_committed)
        self._checkpoint_seq = state.checkpoint_seq
        self._effects, self._wounds_sent = _Effects(), {}
        # Another leader may have appended to the applied log since this
        # replica last wrote it.
        self.store.reset_applied_seq()
        # The rebuilt model is conservatively all-dirty, so the first
        # checkpoint after a failover is a full one.
        self.model.mark_all_dirty()
        # Every dispatch of this leadership carries a fresh epoch.
        self.dispatch_epoch = self.store.bump_dispatch_epoch()
        # Resolve cross-shard transactions caught mid-protocol, then
        # re-dispatch STARTED transactions whose execute message was lost
        # in the flush->put_many crash window.
        if self.twopc is not None:
            self._recover_two_phase(state)
        self._redispatch_lost()

    def demote(self) -> None:
        """Drop leader-only soft state when losing leadership."""
        self.recovered = False
        self.outstanding = {}
        self.lock_manager = LockManager()
        self.todo = TodoQueue(self.config.scheduler_policy)
        self._effects, self._wounds_sent = _Effects(), {}
        self.store.reset_applied_seq()

    # ------------------------------------------------------------------
    # Failover resolution (2PC outcomes, lost dispatches)
    # ------------------------------------------------------------------

    def _recover_two_phase(self, state: "Any") -> None:
        """Resolve cross-shard transactions the failed leader left
        mid-protocol.  The documents and decision records written here
        join recovery's one commit; the decisions and re-votes sent wait
        for it.  A STARTED coordinator needs nothing: its decision commits
        in the same ``multi`` as its terminal document, so recovery never
        finds one without the other.
        """
        # Coordinators that died during the prepare phase: presumed abort.
        # The decision record is written first so participants holding
        # prepare records resolve immediately instead of waiting.  Their
        # simulated effects lived only in the dead leader's memory, so
        # there is nothing to undo.
        for txn in state.preparing:
            self.twopc.decide(txn.txid, DECISION_ABORT, self.shard_id, txn.participants)
            self._finish(
                txn, TransactionState.ABORTED, "presumed abort: coordinator failed during prepare"
            )
        # Prepared participants: the decision log is the oracle.  With no
        # decision yet, re-send the (possibly lost) yes vote and keep the
        # prepare record + locks; _resolve_prepared polls the log until
        # the coordinator (or its successor) decides.
        for txn in state.prepared:
            decision = self.twopc.decision(txn.txid, txn.coordinator)
            if self._resolve_participant(txn, decision):
                continue
            if txn.coordinator is not None:
                self._send(
                    txn.coordinator,
                    vote_message(txn.txid, self.shard_id, VOTE_YES, txn.defer_count),
                )

    def _redispatch_lost(self) -> None:
        """Close the dispatch-loss window: re-dispatch, after recovery's
        commit, execute messages for STARTED transactions that have
        neither a pending phyQ item nor a worker claim record.  The
        previous leader committed their STARTED state but died before the
        phyQ ``put_many``.  Safe against double
        execution: a worker that already claimed the transaction left a
        claim record, and the claim create-if-absent makes any residual
        duplicate message inert."""
        pending: set[str] = set()
        for _, item in self.phy_queue.take_many(1_000_000):
            if item.get("kind") == KIND_EXECUTE:
                pending.add(item["txid"])
        lost = [
            execute_message(txid, txn.log.to_dict(), self.dispatch_epoch)
            for txid, txn in self.outstanding.items()
            if txn.state is TransactionState.STARTED
            and txid not in pending
            and self.store.load_claim(txid) is None  # no worker owns it
        ]
        self._effects.dispatch.extend(lost)
        self.stats["redispatched"] += len(lost)

    # ------------------------------------------------------------------
    # Main loop step
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Drain a batch of inputQ messages and run one scheduling pass,
        committed as one group commit through ``_commit``: the acceptance
        and terminal state transitions, applied-log appends and signal
        clears of the whole batch ride one ``multi``, and the inputQ acks
        are the last of its effects.

        Returns True if any work was performed.  All CPU time spent here is
        charged to the busy stopwatch, which backs the controller CPU
        utilisation measurements of Figure 4.
        """
        if not self.recovered:
            self.recover()
        return self._commit(self._drain)

    def _drain(self) -> bool:
        """The step's commit body."""
        taken = self.input_queue.take_many(INPUT_BATCH_SIZE)
        for _, item in taken:
            self._handle_message(item)
        if taken:
            self.stats["input_batches"] += 1
            self.stats["messages_handled"] += len(taken)
            self._effects.acks = [name for name, _ in taken]
        resolved = self._resolve_prepared()
        expired = self._expire_preparing()
        self._term_stalled()
        scheduled = self.schedule()
        return resolved or expired or scheduled

    def _commit(self, body: Callable[[], bool | None]) -> bool:
        """The one way out of the controller: run ``body`` in one write
        batch, commit the batch, then apply the effects ``body`` buffered.

        Every writer — the step, recovery, KILL, TERM, the checkpoint and
        the reconciler's fence and reload — comes through here, holding
        the op mutex and charging the busy stopwatch.  The batch is the
        coordination client's, so the 2PC decision log's writes (a
        decision, a horizon, the decision GC) join it beside the shard
        store's.  The effects run only after the commit returns, with no
        batch scope open, in the one legal order: client notifications,
        the phyQ dispatch, the 2PC fan-out, the inputQ acks.
        A leader crash anywhere before the acks re-delivers every
        consumed message to the next leader, which handles each
        idempotently (§2.3).

        The crash edges of the commit are named here, through
        ``fault_hook``: ``pre-commit`` before a non-empty commit,
        ``post-flush-pre-dispatch`` before a dispatch and
        ``post-commit-pre-ack`` before the acks.

        A crash is an exception: if ``body`` raises, its batch is
        discarded and no effect runs, exactly as with a crash at
        ``pre-commit``; the consumed messages stay unacked and re-deliver.
        Any failure — in ``body``, the commit or an effect —
        demotes the replica: in-memory transitions may disagree with the
        store, and soft state is cheap to rebuild from it — the §2.3
        failover contract, applied to the same replica.

        Returns whether ``body`` reported progress or any effect ran;
        run-until-idle drivers step while it holds.
        """
        # repro: allow(blocking-under-lock) -- the op mutex IS the controller's serialisation point: holding it across a writer's batch, commit and effects keeps every commit-then-effects unit whole against the other threads' (the seed's sequential per-shard ordering)
        with self._op_mutex, self.busy:
            try:
                kv = self.store.kv
                kv.begin_batch()
                try:
                    progressed = body()
                finally:
                    batch, effects = kv.detach_batch(), self._effects
                    self._effects = _Effects()
                if not batch.is_empty():
                    self._fault(PRE_COMMIT)
                    self.store.commit_batches([batch])
                if effects.dispatch:
                    # The dispatch-loss window: STARTED states are
                    # durable, the execute messages are not yet in phyQ.
                    # Recovery closes it via _redispatch_lost.
                    self._fault(PRE_DISPATCH)
                for txn in effects.notify:
                    if self.on_complete is not None:
                        try:
                            self.on_complete(txn)
                        except Exception:  # noqa: BLE001 - observer bugs must not affect cleanup
                            pass
                if effects.dispatch:
                    self.phy_queue.put_many(effects.dispatch)
                self._send_outbound(effects.outbound)
                if effects.acks:
                    self._fault(POST_COMMIT_PRE_ACK)
                    self.input_queue.ack_many(effects.acks)
                return bool(progressed or effects)
            except Exception:
                self.demote()
                raise

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Step until no more progress can be made (used by the inline runtime)."""
        steps = 0
        while steps < max_steps and self.step():
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # Message handling (Steps 2 and 5 of Figure 2)
    # ------------------------------------------------------------------

    def _handle_message(self, item: dict[str, Any]) -> None:
        kind = item.get("kind")
        if kind == KIND_REQUEST:
            self._accept(item)
        elif kind == KIND_RESULT:
            self._cleanup(item)
        elif kind == KIND_PREPARE:
            self._handle_prepare(item)
        elif kind == KIND_VOTE:
            self._handle_vote(item)
        elif kind == KIND_DECISION:
            self._handle_decision(item)
        elif kind == KIND_WOUND:
            self._handle_wound(item)

    def _accept(self, item: dict[str, Any]) -> None:
        """Step 2: accept a client request into todoQ."""
        txid = item["txid"]
        txn = self.store.load_transaction(txid)
        if txn is None:
            return
        if txn.state is not TransactionState.INITIALIZED:
            # Duplicate delivery after a failover; recovery already placed
            # the transaction where it belongs.
            return
        txn.mark(TransactionState.ACCEPTED, self.clock.now())
        self.store.save_transaction(txn)
        self.todo.push_back(txn)
        self.stats["accepted"] += 1

    def _cleanup(self, item: dict[str, Any]) -> None:
        """Step 5: commit bookkeeping or logical rollback after physical
        execution.  For a cross-shard coordinator the physical outcome
        *is* the 2PC decision, logged in the same commit as the terminal
        document, and so durable before any fan-out (and before the
        client can observe the terminal state)."""
        txid = item["txid"]
        txn = self.outstanding.get(txid)
        if txn is None:
            txn = self.store.load_transaction(txid)
        if txn is None or txn.is_terminal:
            return  # duplicate result (idempotent cleanup)
        outcome = item.get("outcome")
        if outcome == OUTCOME_COMMITTED:
            if txn.is_cross_shard:
                self._fault(TWOPC_PRE_DECISION)
                self.twopc.decide(txid, DECISION_COMMIT, self.shard_id, txn.participants)
            self._finish(txn, TransactionState.COMMITTED)
            return
        # 5B: roll back the logical layer via the undo log.
        if outcome == OUTCOME_ABORTED:
            state, counter, fence = TransactionState.ABORTED, "aborted_physical", ()
        else:
            state, counter, fence = TransactionState.FAILED, "failed", (item.get("failed_path"),)
        if txn.is_cross_shard:
            self._abort_cross_shard(txn, item.get("error"), state, counter=counter, fence=fence)
        else:
            self._finish(txn, state, item.get("error"), undo=True, counter=counter, fence=fence)

    def _finish(
        self,
        txn: Transaction,
        state: TransactionState,
        error: str | None = None,
        *,
        undo: bool = False,
        counter: str | None = None,
        fence: Iterable[str | None] = (),
    ) -> None:
        """The one terminal transition (COMMITTED, ABORTED or FAILED) for
        every role: single-shard, 2PC coordinator and participant.

        The caller decides the state and, for a coordinator whose prepares
        may be out, writes the decision record into the same commit;
        everything else follows from the transaction.  ``undo`` rolls back simulated
        effects the model still holds; ``counter`` names the caller's
        stats entry; ``fence`` lists subtrees to mark inconsistent (§4).

        * A commit appends to the applied log and may trigger the
          quiesce-point checkpoint.
        * A coordinator whose prepares may be out (it was PREPARING or
          STARTED) fans its decision out to the other participants.
        * Signals and the client notification belong to the shard holding
          the client's document, never to a participant's prepare record:
          a posted TERM is cleared, a posted KILL stays for the worker.
        * The worker's claim record waits for the quiesce-point
          ``clear_claims``, keeping this path free of cleanup deletes.

        Checkpoint dirty marks need nothing here: every model write, undo
        included, passes the model's ``get_for_write`` funnel, which marks
        its unit, and no checkpoint runs while the transaction is
        outstanding.
        """
        participant = txn.is_participant_slice(self.shard_id)
        two_phase = txn.is_cross_shard and txn.state in (
            TransactionState.PREPARING,
            TransactionState.PREPARED,
            TransactionState.STARTED,
        )
        committed = state is TransactionState.COMMITTED
        if undo:
            self.executor.rollback(txn)
        if committed:
            self.store.record_applied(txn.txid, txn.participants, txn.coordinator)
        if error is not None:
            txn.error = error
        txn.mark(state, self.clock.now())
        self.store.save_transaction(txn)
        if fence:
            self._refence(mark=fence)
        self.lock_manager.release_all(txn.txid)
        self.outstanding.pop(txn.txid, None)
        if two_phase and not participant:
            self._send_decisions(txn, DECISION_COMMIT if committed else DECISION_ABORT)
        if counter is not None:
            self.stats[counter] += 1
        if two_phase:
            self.stats["cross_shard_committed" if committed else "cross_shard_aborted"] += 1
        if not participant:
            if committed:
                self.stats["committed"] += 1
            if self.signals.signal_of(txn.txid) == TERM:
                self.signals.clear(txn.txid)
            self._notify(txn)
        if committed:
            self.applied_since_checkpoint += 1
            if self.applied_since_checkpoint >= self.config.checkpoint_every:
                self._checkpoint()  # no-op unless at a quiesce point

    def fence(
        self,
        mark: Iterable[str | ResourcePath | None] = (),
        lift: Callable[[ResourcePath], bool] | None = None,
    ) -> None:
        """Change the fenced set (§4) in one commit: the reconciler's way
        to fence diverging subtrees and to lift repaired ones."""
        self._commit(lambda: self._refence(mark, lift))

    def _refence(
        self,
        mark: Iterable[str | ResourcePath | None] = (),
        lift: Callable[[ResourcePath], bool] | None = None,
    ) -> None:
        """Lift every fence ``lift`` selects, then fence each existing
        path in ``mark`` (``None`` entries are skipped), and persist the
        fenced set once: when it changed, and always when ``lift`` is
        given, so a reconcile also drops fences that went with a replaced
        or deleted subtree.  Part of a commit body: the undo-failure and
        KILL fences of ``_finish``, and every fence the reconciler sets or
        lifts."""
        changed = False
        if lift is not None:
            for path in self.model.inconsistent_paths():
                if lift(path):
                    self.model.clear_inconsistent(path)
                    changed = True
        for path in filter(None, mark):
            try:
                self.model.mark_inconsistent(path)
            except UnknownPathError:
                continue
            changed = True
        if changed or lift is not None:
            self.store.save_inconsistent_paths(
                [str(p) for p in self.model.inconsistent_paths()]
            )

    def _notify(self, txn: Transaction) -> None:
        """Buffer a completion notification until the covering commit: a
        client must never observe an outcome the store could still lose.

        This is also the single point where every client-visible terminal
        outcome passes, so the idempotency-token ack entry is written here:
        the ``tokens/<token>`` put joins the same commit as the terminal
        document, making the ack index exactly as durable as the ack
        itself.
        """
        if txn.is_terminal and txn.idempotency_token is not None:
            self.store.record_token(txn.idempotency_token, txn.txid, txn.state.value)
            self.stats["token_acks"] += 1
        self._effects.notify.append(txn)

    # ------------------------------------------------------------------
    # Scheduling and logical execution (Step 3 of Figure 2)
    # ------------------------------------------------------------------

    def schedule(self) -> bool:
        """One scheduling pass over todoQ; returns True if any transaction
        was started or aborted.

        Every currently-runnable transaction is dispatched in this single
        pass.  Dispatches to phyQ are buffered by the step and sent only
        after its covering group commit, so a worker
        can never observe a transaction whose STARTED state is not yet
        durable.
        """
        progressed = False
        deferred: list[Transaction] = []
        pending = self.todo.transactions()
        for txn in pending:
            if txn.wound_cooldown > 0:
                # A wounded transaction sits out its backoff without
                # leaving (or blocking) the queue: skipping it must not
                # trigger the FIFO blocked-head break — the backoff exists
                # precisely so the older wounding transaction (and
                # unrelated traffic) can run ahead of the retry.  The
                # decrement counts as progress: cooldowns strictly
                # decrease, so run-until-idle drivers keep stepping until
                # the retry itself runs instead of quiescing early.
                txn.wound_cooldown -= 1
                progressed = True
                continue
            if self.todo.remove(txn.txid) is None:
                continue
            disposition = self._try_run(txn)
            if disposition == "deferred":
                deferred.append(txn)
                if self.todo.policy == FIFO:
                    break  # a blocked head blocks the FIFO queue
            else:
                progressed = True
        for txn in reversed(deferred):
            self.todo.push_front(txn)
        return progressed

    def _send_outbound(self, batch: list[tuple[int, dict[str, Any]]]) -> None:
        """Deliver buffered 2PC messages to peer shard inputQs.  Callers
        guarantee the states those messages presuppose are durable.  The
        named crash edges fire once per message kind present: a crash here
        models a leader dying after its commit but before the fan-out."""
        if not batch:
            return
        fired: set[str] = set()
        edges = {
            KIND_PREPARE: TWOPC_PRE_PREPARE,
            KIND_VOTE: TWOPC_POST_PREPARE,
            KIND_DECISION: TWOPC_POST_DECISION,
        }
        for shard, message in batch:
            edge = edges.get(message.get("kind"))
            if edge is not None and edge not in fired:
                fired.add(edge)
                self._fault(edge)
            self._peer_queue(shard).put(message)

    def _peer_queue(self, shard: int) -> DistributedQueue:
        if shard == self.shard_id:
            return self.input_queue
        queue = self.peer_queues.get(shard)
        if queue is None:
            raise ReproError(
                f"controller {self.name} (shard {self.shard_id}) has no "
                f"route to shard {shard}'s inputQ; cross-shard 2PC requires "
                f"peer queue wiring"
            )
        return queue

    def _send(self, shard: int, message: dict[str, Any]) -> None:
        """Buffer one 2PC message for the fan-out after the covering
        commit: a participant must never see a prepare whose PREPARING
        record could still be lost, nor a coordinator a vote that precedes
        its durable prepare record."""
        self._effects.outbound.append((shard, message))

    def _send_decisions(self, txn: Transaction, decision: str) -> None:
        """Fan a decision (or a RELEASE of the attempt) out to every
        participant except this shard."""
        for shard in txn.participants:
            if shard != self.shard_id:
                self._send(shard, decision_message(txn.txid, decision, txn.defer_count))

    def _fault(self, point: str) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point)

    def _try_run(self, txn: Transaction) -> str:
        """Simulate, check constraints and locks, and dispatch one transaction.

        Returns ``"started"``, ``"aborted"`` or ``"deferred"`` (3A/3B/3C in
        Figure 2).  The route is decided once, from the shards the
        *simulation* touched — routing is argument-path based, but stored
        procedures may touch paths absent from their arguments
        (auto-placement), so the simulated read/write set is the
        authority:

        * this shard alone — local ``try_acquire``, then STARTED (also a
          cross-shard submission whose simulation collapsed onto this
          shard);
        * other shards under ``reject`` — abort: applying the simulation
          here would silently land the foreign writes on this shard's
          bootstrap-frozen copies;
        * other shards under ``2pc`` — wound-wait prepare admission in
          this same pass; a single-shard submission is stamped coordinator
          in place.
        """
        if self.signals.signal_of(txn.txid) == KILL:
            self._finish(txn, TransactionState.ABORTED, "killed before execution", counter="killed")
            return "aborted"

        outcome = self.executor.simulate(txn)
        if not outcome.ok:
            # 3A: constraint violation (or procedure error) — abort.  The
            # simulation was already rolled back.
            self._finish(txn, TransactionState.ABORTED, outcome.error, counter="aborted_logical")
            return "aborted"

        shards = {self.shard_id}
        if self.router is not None:
            shards = shards_touched(self.router.map, txn.log, txn.rwset, self.shard_id)
        if shards == {self.shard_id}:
            txn.participants = []
            if self.lock_manager.try_acquire(txn.txid, txn.rwset) is not None:
                # 3B: resource conflict — undo the simulation and defer.
                return self._defer(txn)
            # 3C: runnable — keep the simulated changes, dispatch to phyQ
            # (buffered until the STARTED state is group-committed).
            self._mark_started(txn)
            return "started"

        if self.router.policy != "2pc" or self.twopc is None:
            error = (
                f"cross-shard writes under cross_shard_policy={self.router.policy!r}: "
                f"the simulation of {txn.procedure!r} touched paths owned by shards "
                f"{sorted(shards - {self.shard_id})}; applying it on shard "
                f"{self.shard_id} would corrupt bootstrap-frozen foreign copies silently"
            )
            self.stats["foreign_write_rejects"] += 1
            self._finish(txn, TransactionState.ABORTED, error, undo=True, counter="aborted_logical")
            return "aborted"
        if txn.coordinator is None:
            txn.coordinator = self.shard_id
            self.stats["cross_shard_upgrades"] += 1
        txn.participants = sorted(shards)
        return self._prepare(txn)

    def _defer(self, txn: Transaction) -> str:
        """Undo the simulation and put the transaction back for a retry
        (3B): shared by the local conflict path and every cross-shard
        defer (wound-wait wait/wound, local conflict, participant
        conflict)."""
        self.executor.rollback(txn)
        txn.defer_count += 1
        txn.mark(TransactionState.DEFERRED, self.clock.now())
        self.store.save_transaction(txn)
        self.stats["deferred"] += 1
        return "deferred"

    def _mark_started(self, txn: Transaction) -> None:
        """Persist the STARTED state (riding the step's group commit) and
        buffer the phyQ dispatch."""
        txn.mark(TransactionState.STARTED, self.clock.now())
        self.store.save_transaction(txn)
        self.outstanding[txn.txid] = txn
        # The log rides the message, so the worker never reads the document
        # back; serialised by the phyQ put before the log can change.
        self._effects.dispatch.append(
            execute_message(txn.txid, txn.log.to_dict(), self.dispatch_epoch)
        )

    # ------------------------------------------------------------------
    # Cross-shard two-phase commit (see repro.core.twopc)
    # ------------------------------------------------------------------

    def _prepare(self, txn: Transaction) -> str:
        """Coordinator side of phase 1, for a simulated transaction whose
        participants are set: acquire the local locks under wound-wait,
        persist the PREPARING state and fan prepare requests out to the
        participants.

        Disjoint cross-shard prepares run fully in parallel; on a lock
        conflict the *txid order* decides locally (txids are zero-padded
        monotonic counters, so lexicographic order is age): an older
        transaction wounds a younger prepare-phase holder out of its locks
        (the victim aborts its attempt via the presumed-abort machinery
        and retries after a seeded backoff), while a younger transaction
        waits for the older holder to finish.  The oldest active
        transaction is never wounded and never waits on 2PC state, so it
        always progresses — no deadlock, no livelock, and each transaction
        is wounded at most once per older concurrent transaction per
        attempt.
        """
        # Retry entry: a wound leaves an abort decision behind (the
        # record is what lets a crashed participant resolve the wounded
        # attempt through the decision log exactly like any abort).  It
        # must be cleared before this fresh attempt prepares, or the
        # participants' decision-log polling would abort the new attempt
        # on sight.  Guarded to ABORT records only — commit decisions are
        # immutable, and only wound-released transactions (never genuinely
        # aborted ones, which are terminal) re-enter this path.
        if txn.defer_count > 0:
            record = self.twopc.decision_record(txn.txid, self.shard_id)
            if record is not None and record.get("decision") == DECISION_ABORT:
                self.twopc.clear_decision(txn.txid, self.shard_id)

        requests = self.lock_manager.requests_for(txn.rwset)
        conflicts = self.lock_manager.find_conflicts(txn.txid, requests)
        if conflicts:
            if self._wound_or_wait(txn.txid, conflicts):
                # A local synchronous wound freed its locks; re-check once
                # (remote wounds resolve asynchronously — defer for those).
                conflicts = self.lock_manager.find_conflicts(txn.txid, requests)
            if conflicts:
                self.stats["cross_shard_waits"] += 1
                return self._defer(txn)
        self.lock_manager.acquire(txn.txid, requests)
        self._wounds_sent.pop(txn.txid, None)

        if any(
            other.txid != txn.txid and other.is_cross_shard
            for other in self.outstanding.values()
        ):
            # Another cross-shard transaction is mid-protocol on this
            # shard while this one enters the prepare fan-out — the
            # concurrency the ticket used to forbid.
            self._fault(TWOPC_CONCURRENT_PREPARE)

        # Durable PREPARING record (rides the step's group commit); the
        # prepare fan-out is buffered until that commit lands.
        txn.votes = {str(self.shard_id): VOTE_YES}
        txn.mark(TransactionState.PREPARING, self.clock.now())
        self.store.save_transaction(txn)
        self.outstanding[txn.txid] = txn
        shard_map = self.router.map
        for shard in txn.participants:
            if shard != self.shard_id:
                self._send(shard, prepare_message(
                    txn.txid, self.shard_id, txn.participants, txn.defer_count, txn.procedure,
                    split_log(shard_map, txn.log, shard, self.shard_id),
                    split_rwset(shard_map, txn.rwset, shard, self.shard_id),
                ))
        self.stats["cross_shard_prepares"] += 1
        return "started"

    def _handle_prepare(self, item: dict[str, Any]) -> None:
        """Participant side of phase 1: validate the log slice against this
        shard's authoritative subtrees, lock, persist the prepare record,
        and (after the group commit) vote."""
        txid = item["txid"]
        coordinator = int(item["coordinator"])
        attempt = int(item.get("attempt", 0))
        existing = self.store.load_transaction(txid)
        if existing is not None:
            if existing.state is TransactionState.PREPARED:
                if existing.defer_count == attempt:
                    # Duplicate delivery (or coordinator re-sent after its
                    # own failover): repeat the vote idempotently.
                    self._send(coordinator, vote_message(txid, self.shard_id, VOTE_YES, attempt))
                    return
                if existing.defer_count < attempt:
                    # A newer attempt supersedes a stale prepare whose
                    # release message was lost; drop it and fall through
                    # to prepare afresh.
                    self._release_participant(existing)
                else:
                    return  # stale attempt; the coordinator moved on
            elif (
                existing.state is TransactionState.ABORTED
                and existing.defer_count < attempt
            ):
                # A previous attempt was wounded and this shard resolved it
                # through the decision log into a terminal ABORTED prepare
                # record (slice undone, locks released).  A higher-attempt
                # prepare supersedes it — only wound-released attempts ever
                # re-prepare (genuine aborts are terminal on the
                # coordinator and send no further prepares) — so drop the
                # stale record and prepare afresh.
                self.store.delete_transaction(txid)
            elif existing.is_terminal:
                vote = (
                    VOTE_YES
                    if existing.state is TransactionState.COMMITTED
                    else VOTE_NO
                )
                self._send(coordinator, vote_message(txid, self.shard_id, vote, attempt))
                return
            else:
                return  # unexpected local state; let recovery reconcile

        txn = Transaction(
            procedure=item.get("procedure", ""),
            args={},
            txid=txid,
            coordinator=coordinator,
            participants=[int(s) for s in item.get("participants") or []],
        )
        txn.defer_count = attempt
        txn.log = ExecutionLog.from_dict(item.get("log") or [])
        txn.rwset = ReadWriteSet.from_dict(item.get("rwset") or {})

        requests = self.lock_manager.requests_for(txn.rwset)
        conflicts = self.lock_manager.find_conflicts(txid, requests)
        if conflicts:
            # Participant-side wound-wait: if the incoming transaction is
            # older than a prepare-phase holder, wound the holder (locally
            # when this shard coordinates it — e.g. the classic reversed-
            # roles livelock, T1 coordinated by A preparing at B while T2
            # coordinated by B prepares at A — or via a wound message to
            # its coordinator).  A local wound may free the locks within
            # this very delivery; otherwise vote no/conflict and let the
            # coordinator's prompt retry find them free.
            if self._wound_or_wait(txid, conflicts):
                conflicts = self.lock_manager.find_conflicts(txid, requests)
            if conflicts:
                self._send(coordinator, vote_message(
                    txid, self.shard_id, VOTE_NO, attempt, reason=_REASON_CONFLICT
                ))
                return
        self.lock_manager.acquire(txid, requests)
        self._wounds_sent.pop(txid, None)
        error = self._apply_participant_log(txn)
        if error is not None:
            self.lock_manager.release_all(txid)
            self._send(
                coordinator, vote_message(txid, self.shard_id, VOTE_NO, attempt, reason=error)
            )
            return

        txn.mark(TransactionState.PREPARED, self.clock.now())
        self.store.save_transaction(txn)
        self.outstanding[txid] = txn
        self._send(coordinator, vote_message(txid, self.shard_id, VOTE_YES, attempt))
        self.stats["cross_shard_prepared"] += 1

    def _apply_participant_log(self, txn: Transaction) -> str | None:
        """Apply a prepare slice to this shard's authoritative model and
        re-check the constraints its writes can influence.  Returns an
        error string (with the partial application undone) or ``None``.

        This is the participant-side validation that makes coordinator
        simulation against possibly-stale foreign copies safe: the owner
        of a subtree is the final authority on whether an action sequence
        is applicable and constraint-clean there."""
        applied: list[Any] = []
        try:
            for record in txn.log:
                node = self.model.get_for_write(record.path)
                action_def = self.schema.get(node.entity_type).get_action(record.action)
                action_def.simulate(self.model, node, *record.args)
                applied.append(record)
        except ReproError as exc:
            self.executor.undo_log(ExecutionLog(list(applied)))
            return f"{type(exc).__name__}: {exc}"
        for path in sorted(txn.rwset.writes):
            violations = self.constraint_engine.check_after_write(self.model, path)
            if violations:
                self.executor.undo_log(ExecutionLog(list(applied)))
                return f"constraint violation on participant: {violations[0]}"
        return None

    def _handle_vote(self, item: dict[str, Any]) -> None:
        """Coordinator side of the vote tally."""
        txid = item["txid"]
        voter = int(item["shard"])
        attempt = int(item.get("attempt", 0))
        txn = self.outstanding.get(txid)
        if txn is None:
            txn = self.store.load_transaction(txid)
        if txn is None:
            return
        if txn.state is TransactionState.PREPARING and txn.defer_count == attempt:
            if item.get("vote") != VOTE_YES:
                if item.get("reason") == _REASON_CONFLICT:
                    self._retry_cross_shard(txn)
                else:
                    self._abort_cross_shard(
                        txn, f"participant {voter} voted no: {item.get('reason')}"
                    )
                return
            txn.votes[str(voter)] = VOTE_YES
            if all(str(shard) in txn.votes for shard in txn.participants):
                # Phase 1 complete on every shard: dispatch the full log
                # to this shard's physical workers; the commit decision
                # follows the physical outcome (Figure 2, step 5).
                self._mark_started(txn)
            else:
                self.store.save_transaction(txn)
        elif txn.state in (TransactionState.ACCEPTED, TransactionState.DEFERRED):
            # A stale yes-vote for an attempt we already walked away from:
            # the participant must drop its prepare record before we retry.
            self._send(voter, decision_message(txid, DECISION_RELEASE, attempt))
        elif txn.is_terminal:
            committed = txn.state is TransactionState.COMMITTED
            decision = DECISION_COMMIT if committed else DECISION_ABORT
            self._send(voter, decision_message(txid, decision, attempt))
        # PREPARING with a different attempt, or STARTED: stale duplicate.

    def _retry_cross_shard(self, txn: Transaction) -> None:
        """A participant's locks were busy: release every shard's prepare
        state for this attempt and retry from todoQ.  The retry is prompt
        (no backoff): the participant already applied wound-wait to the
        blockers, so they are either older transactions about to finish or
        younger ones already being wounded aside."""
        self._send_decisions(txn, DECISION_RELEASE)
        self.lock_manager.release_all(txn.txid)
        txn.votes = {}
        self._defer(txn)
        self.outstanding.pop(txn.txid, None)
        self.todo.push_front(txn)

    # -- wound-wait (concurrent prepare admission) ----------------------

    def _wound_or_wait(self, requester: str, conflicts: list["Any"]) -> bool:
        """Apply wound-wait to every conflicting lock holder.

        ``requester`` is the txid asking for the locks (a local cross-shard
        coordinator, or a foreign transaction preparing a slice here).  For
        each holder, txid order decides locally — no global state:

        * requester older (lower txid) and the holder is a *local
          PREPARING coordinator* — wound it synchronously (abort the
          attempt, requeue with backoff); returns True so the caller may
          re-check its lock requests in the same pass;
        * requester older and the holder is a *prepared participant* of a
          foreign coordinator — send that coordinator a wound message and
          wait for the release to arrive (deduped per requester/victim);
        * requester older but the holder is STARTED (single-shard, or
          phase 2 of a committed-vote cross-shard transaction) — its
          physical effects may be in flight, so it is past wounding; wait
          for it to complete (it holds no 2PC waits, so it will);
        * requester younger — wait: the older holder progresses first.
        """
        wounded_local = False
        for conflict in conflicts:
            holder_id = conflict.holder
            if requester >= holder_id:
                continue  # requester is younger (or self): wait
            holder = self.outstanding.get(holder_id)
            if holder is None or not holder.is_cross_shard:
                continue  # single-shard STARTED holder: wait for completion
            if (
                holder.state is TransactionState.PREPARING
                and holder.coordinator == self.shard_id
            ):
                self._wound_cross_shard(holder, requester)
                wounded_local = True
            elif (
                holder.state is TransactionState.PREPARED
                and holder.coordinator is not None
                and holder.coordinator != self.shard_id
            ):
                sent = self._wounds_sent.setdefault(requester, set())
                if holder_id not in sent:
                    sent.add(holder_id)
                    self._send(
                        holder.coordinator, wound_message(holder_id, requester, self.shard_id)
                    )
                    self.stats["cross_shard_wounds_sent"] += 1
            # else: STARTED cross-shard (phase 2) — wait.
        if len(self._wounds_sent) > 1024:
            # Soft-state hygiene: entries are popped as their requesters
            # resolve, but a foreign requester that aborts elsewhere can
            # strand one.  Dropping the map wholesale only risks a
            # duplicate wound message, which the coordinator treats
            # idempotently.
            self._wounds_sent.clear()
        return wounded_local

    def _wound_cross_shard(self, txn: Transaction, by: str) -> None:
        """Wound a local PREPARING coordinator: an older transaction
        (``by``) is blocked by its prepare-phase locks, and txid order says
        the younger transaction yields.

        The abort decision record, the DEFERRED document and the lock
        release commit together in the step's one ``multi``, so a
        participant that persisted (or is about to persist) a prepare
        record for this attempt resolves it through the decision log
        exactly as it would any abort, and a leader dying mid-wound leaves
        nothing of it durable.  Live participants additionally get a
        RELEASE message for a prompt undo, after that commit.  The retry
        re-enters the scheduler as a fresh attempt after a seeded backoff
        and clears the wound's decision record before re-preparing."""
        self._fault(TWOPC_PRE_WOUND)
        self.twopc.decide(txn.txid, DECISION_ABORT, self.shard_id, txn.participants)
        self._send_decisions(txn, DECISION_RELEASE)
        self.lock_manager.release_all(txn.txid)
        txn.votes = {}
        self._defer(txn)
        txn.wound_count += 1
        txn.wound_cooldown = self._wound_cooldown_passes(txn.wound_count)
        self._wounds_sent.pop(txn.txid, None)
        self.outstanding.pop(txn.txid, None)
        self.todo.push_front(txn)
        self.stats["cross_shard_wounded"] += 1

    def _wound_cooldown_passes(self, wound_count: int) -> int:
        """Scheduling passes a freshly wounded transaction sits out,
        derived from the seeded retry policy's jittered exponential delay
        (see _MAX_WOUND_COOLDOWN_PASSES for why passes, not seconds)."""
        policy = self._wound_backoff
        delay = policy.backoff(max(wound_count, 1))
        passes = int(round(delay / policy.base_delay))
        return max(1, min(_MAX_WOUND_COOLDOWN_PASSES, passes))

    def _handle_wound(self, item: dict[str, Any]) -> None:
        """Coordinator side of a wound request from a shard where an older
        transaction is blocked by this (younger) transaction's prepared
        slice.  Only a transaction still in its prepare phase is woundable;
        anything else means the wound is stale — already wounded (DEFERRED),
        past the vote barrier (STARTED: effects dispatched, the older
        transaction's wait is bounded by physical completion), or terminal
        — and is dropped idempotently."""
        txid = item["txid"]
        by = item.get("by")
        txn = self.outstanding.get(txid)
        if txn is None or txn.state is not TransactionState.PREPARING:
            return
        if txn.coordinator != self.shard_id:
            return
        if not isinstance(by, str) or by >= txid:
            return  # only an older transaction may wound
        self._wound_cross_shard(txn, by)

    def _abort_cross_shard(
        self,
        txn: Transaction,
        error: str | None,
        state: TransactionState = TransactionState.ABORTED,
        *,
        counter: str | None = None,
        fence: Iterable[str | None] = (),
    ) -> None:
        """Coordinator-side abort after prepares may be out: log the abort
        decision (it commits with the terminal document and expedites
        presumed abort), then finish; the fan-out follows from the
        transaction's role."""
        self.twopc.decide(txn.txid, DECISION_ABORT, self.shard_id, txn.participants)
        self._finish(txn, state, error, undo=True, counter=counter, fence=fence)

    # -- participant decision handling ---------------------------------

    def _handle_decision(self, item: dict[str, Any]) -> None:
        txid = item["txid"]
        decision = item.get("decision")
        attempt = int(item.get("attempt", 0))
        txn = self.outstanding.get(txid)
        if txn is None:
            txn = self.store.load_transaction(txid)
        if txn is None or txn.state is not TransactionState.PREPARED:
            return
        if decision == DECISION_RELEASE:
            if txn.defer_count <= attempt:
                self._release_participant(txn)
        else:
            self._resolve_participant(txn, decision)

    def _resolve_prepared(self) -> bool:
        """Poll the global decision log for prepared participant
        transactions (only while any exist).  This is the liveness
        backstop when the decision message itself was lost to a
        coordinator crash: the decision record is the source of truth."""
        if self.twopc is None:
            return False
        prepared = [
            txn
            for txn in self.outstanding.values()
            if txn.state is TransactionState.PREPARED
            and txn.coordinator != self.shard_id
        ]
        progressed = False
        for txn in prepared:
            decision = self.twopc.decision(txn.txid, txn.coordinator)
            if self._resolve_participant(txn, decision):
                progressed = True
        return progressed

    def _expire_preparing(self) -> bool:
        """Prepare-phase deadline: a coordinator stuck in PREPARING past
        ``config.prepare_timeout`` presumed-aborts and frees its prepare
        locks.  This covers the one stall the TERM deadline and shard
        failover do not: a participant shard that is down *and* not
        failing over (no replica to elect) can neither vote nor resolve,
        and without a deadline the coordinator would hold its prepare
        locks — blocking every conflicting transaction, and under
        wound-wait every *older* one that would otherwise wound it past a
        dead shard — forever.  Safe at any time before a decision is
        logged (presumed abort is exactly the protocol's answer to an
        undecided prepare); a late yes-vote or prepare record is resolved
        by the abort decision record."""
        timeout = self.config.prepare_timeout
        if self.twopc is None or timeout <= 0:
            return False
        now = self.clock.now()
        expired = [
            txn
            for txn in self.outstanding.values()
            if txn.state is TransactionState.PREPARING
            and txn.coordinator == self.shard_id
            and now - txn.timestamps.get(TransactionState.PREPARING.value, now)
            > timeout
        ]
        for txn in expired:
            self._abort_cross_shard(
                txn,
                f"presumed abort: prepare phase exceeded "
                f"prepare_timeout={timeout}s (participants "
                f"{txn.participants}, votes from {sorted(txn.votes)})",
                counter="prepare_timeouts",
            )
        return bool(expired)

    def _term_stalled(self) -> None:
        """The stall deadline (§4): post TERM, once, for every STARTED
        transaction older than ``config.txn_timeout``.  The worker reads
        the board between device actions and rolls the transaction back
        gracefully; ``_finish`` clears the signal.  KILL stays the
        operator's."""
        timeout = self.config.txn_timeout
        if timeout <= 0:
            return
        now = self.clock.now()
        for txid, txn in self.outstanding.items():
            started = txn.timestamps.get(TransactionState.STARTED.value, now)
            if (
                txn.state is TransactionState.STARTED
                and now - started > timeout
                and self.signals.signal_of(txid) is None
            ):
                self.signals.send(txid, TERM)

    def _resolve_participant(self, txn: Transaction, decision: str | None) -> bool:
        """Apply the coordinator's decision to a prepared participant; True
        when ``decision`` resolved it.  A commit keeps the slice effects
        already in the model and records them in the applied log (recovery
        replays them); an abort undoes the slice.  No client notification
        — the client observes the coordinator's document.

        No applied-log membership check is needed: every caller holds a
        PREPARED document, and the applied entry commits in the same
        ``multi`` as the COMMITTED document, so a PREPARED document is
        never in the applied log."""
        if decision == DECISION_COMMIT:
            self._finish(txn, TransactionState.COMMITTED)
        elif decision == DECISION_ABORT:
            self._finish(
                txn, TransactionState.ABORTED, txn.error or "cross-shard abort", undo=True
            )
        else:
            return False
        return True

    def _release_participant(self, txn: Transaction) -> None:
        """Drop a prepare record whose attempt the coordinator abandoned:
        undo the slice, release the locks, delete the document (the retry
        re-prepares from scratch)."""
        self.executor.undo_log(txn.log)
        self.lock_manager.release_all(txn.txid)
        self.outstanding.pop(txn.txid, None)
        self.store.delete_transaction(txn.txid)

    # ------------------------------------------------------------------
    # Signals (§4)
    # ------------------------------------------------------------------

    def send_term(self, txid: str) -> None:
        """Gracefully abort a stalled transaction (worker rolls back
        undo-wise).  The signal commits through ``_commit``, serialised
        with the step loop."""
        self._commit(lambda: self.signals.send(txid, TERM))

    def send_kill(self, txid: str) -> None:
        """Immediately abort a transaction in the logical layer only.

        Physical effects already applied are *not* undone; the affected
        subtrees are fenced and later reconciled with repair.

        The KILL signal, the ABORTED document and the fence commit as one
        batch through ``_commit``, serialised with the step loop; the
        client notification and a coordinator's decision fan-out follow
        that commit.
        """
        self._commit(lambda: self._kill(txid))

    def _kill(self, txid: str) -> None:
        self.signals.send(txid, KILL)
        txn = self.outstanding.get(txid)
        if txn is None:
            # Queued (or not yet accepted): no simulated effects held.
            txn = self.todo.remove(txid) or self.store.load_transaction(txid)
            if txn is None or txn.is_terminal:
                return
            self._finish(txn, TransactionState.ABORTED, "killed", counter="killed")
            return
        if txn.is_participant_slice(self.shard_id):
            # Participant prepare records are resolved only by the
            # coordinator's decision; a local KILL cannot release the
            # promised locks without breaking 2PC atomicity.
            return
        # Physical execution may be in flight: fence the touched
        # subtrees for repair.
        fence = sorted(txn.rwset.writes) if txn.state is TransactionState.STARTED else ()
        if txn.is_cross_shard:
            self._abort_cross_shard(txn, "killed", counter="killed", fence=fence)
        else:
            self._finish(
                txn, TransactionState.ABORTED, "killed",
                undo=True, counter="killed", fence=fence,
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> bool:
        """Take the quiesce-point checkpoint now, as its own commit.  False
        (nothing written) while transactions are outstanding, or before
        this replica recovered: its model need not match the store."""
        if not self.recovered:
            return False
        return self._commit(self._checkpoint)

    def _checkpoint(self) -> bool:
        """Write an incremental data-model checkpoint and truncate the
        applied log, as part of the open commit body: the meta and dirty
        units, the truncation, the claim GC and the ``checkpoint_epoch``
        bump ride the same ``multi`` as the step's documents.  Only
        subtrees dirtied since the previous checkpoint are re-serialised.

        The truncation lags by one checkpoint: it drops only the entries
        the *previous* checkpoint covers, so the store always keeps the
        interval behind the latest one.  A read replica less than one
        interval behind then catches up from the log; only one further
        behind finds a gap and re-bootstraps.

        Checkpoints happen only at quiesce points (no STARTED transactions
        outstanding): the model contains the simulated-but-uncommitted
        effects of in-flight transactions, and recovery re-applies their
        logs on top of the checkpoint — a non-quiesced checkpoint would
        double-apply them after a failover.  When skipped, the dirty marks
        are retained, so the state is captured by the next quiesce-point
        checkpoint.

        The dirty marks are cleared here, before the commit is durable.
        That is safe because a failed commit demotes the replica, and
        recovery rebuilds an all-dirty model whose first checkpoint is a
        full one.  The 2PC horizon and this shard's decision GC ride the
        same ``multi`` as the checkpoint: a horizon can never be durable
        for a checkpoint the store lost, which would let a coordinator
        delete a decision this shard may need again."""
        if self.outstanding:
            return False
        seq = self.store.applied_seq()
        self._fault(PRE_CHECKPOINT)
        self.store.save_checkpoint_incremental(self.model, seq)
        self.store.truncate_applied(self._checkpoint_seq)
        self._checkpoint_seq = seq
        # Quiesce point: no transaction is in flight, so every worker
        # claim record is dead weight — reclaim them all at once.
        self.store.clear_claims()
        if self.twopc is not None:
            epoch = int(self.store.get_meta("checkpoint_epoch", 0)) + 1
            self.store.put_meta("checkpoint_epoch", epoch)
            self.twopc.publish_horizon(self.shard_id, epoch)
            self.stats["twopc_decisions_gced"] += self.twopc.gc_decisions(self.shard_id)
        self.applied_since_checkpoint = 0
        self.stats["checkpoints"] += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def fork_model(self) -> DataModel:
        """An O(1) copy-on-write snapshot of the live model, serialised
        with the step loop: forking swaps the model's ownership epoch, so
        doing it mid-action would let the writer keep mutating nodes the
        fork believes frozen.  Under the op mutex the fork lands between
        steps — it still contains the simulated effects of dispatched
        (STARTED) transactions, exactly like the leader's own reads."""
        with self._op_mutex:
            return self.model.clone()

    def busy_seconds(self) -> float:
        return self.busy.busy_seconds

    def outstanding_count(self) -> int:
        return len(self.outstanding)

    def snapshot_stats(self) -> dict[str, int]:
        return dict(self.stats)

    def io_stats(self) -> dict[str, Any]:
        """Write-path counters of the underlying persistent store."""
        return self.store.io_stats()

    def __repr__(self) -> str:
        return (
            f"<Controller {self.name} shard={self.shard_id} "
            f"recovered={self.recovered} todo={len(self.todo)}>"
        )
