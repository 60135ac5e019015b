"""Message formats flowing through inputQ and phyQ (Figure 1/2).

Messages are plain JSON dictionaries so they can live in the coordination
queues.  Six kinds exist:

* ``request`` — a client submitted a transaction (already persisted in the
  store in ``initialized`` state); the controller accepts it.
* ``execute`` — the controller hands a runnable transaction to the
  physical workers via phyQ.  Carries the execution log (as ``prepare``
  carries its slice), so a worker never reads back the document the leader
  just wrote, and the leader's *dispatch epoch*, so a worker's claim record
  names the leadership generation that dispatched it.
* ``result`` — a worker reports the physical outcome (committed, aborted
  or failed) back to the controller via inputQ.
* ``prepare`` / ``vote`` / ``decision`` — the cross-shard two-phase-commit
  protocol between shard leaders (see :mod:`repro.core.twopc`): the
  coordinator asks each participant to validate and persist its slice of
  the execution log, participants answer with a vote, and the coordinator
  fans out the final decision (or a ``release`` when a conflicted attempt
  will be retried).
* ``wound`` — wound-wait conflict resolution between concurrent
  cross-shard transactions: a shard blocked by a *younger* transaction's
  prepared locks asks that transaction's coordinator to abort-and-retry
  it (the older transaction never waits on a younger one, so the oldest
  active transaction always progresses and prepares cannot deadlock or
  livelock).
"""

from __future__ import annotations

from typing import Any

KIND_REQUEST = "request"
KIND_EXECUTE = "execute"
KIND_RESULT = "result"
KIND_PREPARE = "prepare"
KIND_VOTE = "vote"
KIND_DECISION = "decision"
KIND_WOUND = "wound"

OUTCOME_COMMITTED = "committed"
OUTCOME_ABORTED = "aborted"
OUTCOME_FAILED = "failed"

VOTE_YES = "yes"
VOTE_NO = "no"

DECISION_COMMIT = "commit"
DECISION_ABORT = "abort"
#: Not a 2PC outcome: tells a prepared participant to drop this *attempt*
#: (undo, release locks, delete the prepare record) because the coordinator
#: will retry after a lock conflict.
DECISION_RELEASE = "release"


def request_message(txid: str) -> dict[str, Any]:
    return {"kind": KIND_REQUEST, "txid": txid}


def execute_message(
    txid: str, log: list[dict[str, Any]], epoch: int = 0
) -> dict[str, Any]:
    return {"kind": KIND_EXECUTE, "txid": txid, "epoch": epoch, "log": log}


def prepare_message(
    txid: str,
    coordinator: int,
    participants: list[int],
    attempt: int,
    procedure: str,
    log: list[dict[str, Any]],
    rwset: dict[str, Any],
) -> dict[str, Any]:
    """Coordinator -> participant: validate + persist this log slice."""
    return {
        "kind": KIND_PREPARE,
        "txid": txid,
        "coordinator": coordinator,
        "participants": list(participants),
        "attempt": attempt,
        "procedure": procedure,
        "log": log,
        "rwset": rwset,
    }


def vote_message(
    txid: str, shard: int, vote: str, attempt: int, reason: str | None = None
) -> dict[str, Any]:
    """Participant -> coordinator: the prepare outcome for one attempt."""
    return {
        "kind": KIND_VOTE,
        "txid": txid,
        "shard": shard,
        "vote": vote,
        "attempt": attempt,
        "reason": reason,
    }


def decision_message(txid: str, decision: str, attempt: int = 0) -> dict[str, Any]:
    """Coordinator -> participant: commit, abort, or release-for-retry."""
    return {"kind": KIND_DECISION, "txid": txid, "decision": decision, "attempt": attempt}


def wound_message(txid: str, by: str, shard: int) -> dict[str, Any]:
    """Any shard -> ``txid``'s coordinator: the older transaction ``by`` is
    blocked by ``txid``'s prepare-phase locks on ``shard``; abort the
    (younger) ``txid``'s current attempt and retry it after a backoff."""
    return {"kind": KIND_WOUND, "txid": txid, "by": by, "shard": shard}


def result_message(
    txid: str,
    outcome: str,
    error: str | None = None,
    failed_path: str | None = None,
    worker: str = "",
) -> dict[str, Any]:
    return {
        "kind": KIND_RESULT,
        "txid": txid,
        "outcome": outcome,
        "error": error,
        "failed_path": failed_path,
        "worker": worker,
    }
