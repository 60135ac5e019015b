"""Static concurrency & protocol invariant analyzer (`make analyze`).

The platform encodes several hard-won invariants that runtime testing
alone catches late (hours into a seeded soak) or not at all: lock
acquisition order, no coordination RPCs while holding a hot in-process
lock, all `DataModel` mutation through the copy-on-write ownership
funnel, all `KVStore` writes through the persistence/group-commit
funnel, the documented transaction state machine, and the PR 6 error
taxonomy inside retry loops.  This package proves those rules on every
commit with a repo-specific AST analyzer: an interprocedural call/lock
reachability core (`repro.analysis.core`), a static lock-order graph
with cycle detection validated by a runtime recorder
(`repro.analysis.lockgraph`, `repro.analysis.recorder`), and pluggable
checkers (`repro.analysis.checkers`).  Every finding fails the
run unless it is waived inline, next to the code it describes, with
``# repro: allow(<rule>) -- <justification>``.

Run it with ``python -m repro.analysis`` or ``make analyze``; the rule
catalog — each invariant, the past bug that motivated it, and how to
waive — lives in ``docs/development.md#the-invariant-catalog``.
"""

from repro.analysis.checkers import run_checkers
from repro.analysis.core import AnalysisIndex, Finding, load_index
from repro.analysis.lockgraph import LockGraph, build_lock_graph
from repro.analysis.recorder import lock_order_recorder, traced

__all__ = [
    "AnalysisIndex",
    "Finding",
    "LockGraph",
    "build_lock_graph",
    "load_index",
    "lock_order_recorder",
    "run_checkers",
    "traced",
]
