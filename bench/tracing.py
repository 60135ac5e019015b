"""Span recording for the traced run, from the benchmark's side only.

``install()`` wraps the public entry points of each layer (never a
per-node function: ``walk``/``get``/``child`` run 1.7 M times per 200
requests) so that every call records ``(name, start, end, parent,
request, count)`` in memory, in flat typed columns: half a million span
objects would give the garbage collector something to traverse in the
middle of the measurement.  One client thread drives the inline runtime,
so spans nest properly and one stack is enough.  Nothing in ``src/`` knows
about this; spans inside the program are a later change.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

from stats import self_times

SCANS = ("list_vms", "list_volumes", "find_vm", "find_volume")
LAYERS = (
    "gateway", "tcloud", "datamodel", "platform", "controller", "persistence",
    "coordination", "worker", "twopc", "replica", "harness",
)


def _targets() -> list[tuple[Any, str, str, Callable[[Any], int] | None]]:
    """(owner, attribute, layer, result-count hook) of every wrapped entry
    point.  Imported lazily so importing this module has no side effects."""
    from repro.common.clock import RealClock
    from repro.coordination.ensemble import CoordinationEnsemble
    from repro.core import controller as controller_module
    from repro.core import platform as platform_module
    from repro.core.controller import Controller
    from repro.core.persistence import TropicStore
    from repro.core.platform import TropicPlatform
    from repro.core.replica import ReadReplica
    from repro.core.twopc import TwoPCLog
    from repro.core.worker import Worker
    from repro.datamodel.tree import DataModel
    from repro.gateway.api import ApiGateway
    from repro.tcloud.placement import PlacementEngine
    from repro.tcloud.service import TCloud

    def group(owner, layer, names, hook=None):
        return [(owner, name, layer, hook) for name in names]

    return (
        group(ApiGateway, "gateway", ["handle"])
        + group(TCloud, "tcloud", SCANS[:2], len)
        + group(TCloud, "tcloud", SCANS[2:])
        + group(TCloud, "tcloud", [
            "spawn_vm", "spawn_vms", "start_vm", "stop_vm", "destroy_vm", "vm_count"])
        + group(PlacementEngine, "tcloud", ["pick_vm_host", "pick_storage_host"])
        + group(DataModel, "datamodel", ["find"], len)
        + group(DataModel, "datamodel", ["clone", "count"])
        + group(TropicPlatform, "platform", [
            "submit", "submit_many", "wait_for", "model_view", "fleet_view",
            "run_until_idle", "start"])
        + group(Controller, "controller", ["step"], bool)
        + group(Controller, "controller", ["recover"])
        + group(Worker, "worker", ["step"], bool)
        + group(TropicStore, "persistence", ["load_all_transactions"], len)
        + group(TropicStore, "persistence", [
            "save_transaction", "load_transaction", "load_active_transactions",
            "save_checkpoint", "save_checkpoint_incremental", "load_checkpoint",
            "flush", "commit_batches", "record_applied", "applied_entries",
            "applied_records"])
        + group(TwoPCLog, "twopc", [
            "decide", "decision", "decision_record", "commit_participants",
            "clear_decision", "publish_horizon", "horizons", "gc_decisions"])
        + group(ReadReplica, "replica", ["refresh", "model", "early_apply"])
        + group(platform_module, "replica", ["fence_replica_sources"])
        + group(controller_module, "controller", ["recover_state"])
        + group(CoordinationEnsemble, "coordination", [
            "create", "set", "get", "delete", "upsert", "multi", "exists", "get_children"])
        # The only sleeper of the inline runtime is the ensemble's RTT charge.
        + group(RealClock, "coordination", ["sleep"])
    )


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.requests = array("i")
        self.counts = array("q")
        self.stack: list[int] = []
        self.enabled = False
        self.request = 0
        self._harness_ids: dict[str, int] = {}
        self._analysis: tuple[list, list[float]] | None = None

    def name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layers.append(layer)
        return len(self.names) - 1

    def install(self) -> None:
        for owner, attribute, layer, hook in _targets():
            label = f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attribute}"
            wrapped = self._wrap(self.name_id(layer, label), getattr(owner, attribute), hook)
            setattr(owner, attribute, wrapped)

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.counts.append(0)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name_id: int, function: Callable, hook) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = function(*args, **kwargs)
                if hook is not None:
                    self.counts[index] = hook(result)
                return result
            finally:
                self._close(index)

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A harness-side span; a phase root switches recording on."""
        if name not in self._harness_ids:
            self._harness_ids[name] = self.name_id("harness", name)
        index = self._open(self._harness_ids[name])
        was_enabled, self.enabled = self.enabled, True
        try:
            yield
        finally:
            self._close(index)
            self.enabled = was_enabled

    def op(self):
        """Span of one client operation inside a traced phase; its
        children share its request id."""
        if not self.enabled:
            return nullcontext()
        self.request += 1
        return self.span("op")

    # -- analysis ------------------------------------------------------

    def ledger(self, root_name: str) -> "Ledger":
        """Sums over the spans under the ``root_name`` phase roots; call
        once recording is over (the span analysis is done once and kept)."""
        if self._analysis is None:
            spans = list(zip(*self.columns().values()))
            self._analysis = (spans, self_times(spans))
        return Ledger(self, root_name, *self._analysis)

    def columns(self) -> dict[str, array]:
        return {"name": self.name_ids, "start": self.starts, "end": self.ends,
                "parent": self.parents, "request": self.requests, "count": self.counts}

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write every span, column-wise (``name`` indexes ``names``)."""
        payload = {"meta": meta, "names": self.names}
        payload.update((key, column.tolist()) for key, column in self.columns().items())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class Ledger:
    """Per-layer and per-span-name sums over the spans under the roots
    called ``harness.<root_name>``."""

    def __init__(self, tracer: Tracer, root_name: str, spans: list, selfs: list[float]):
        names, layers = tracer.names, tracer.layers
        wanted = f"harness.{root_name}"
        inside = [False] * len(spans)
        self.wall = 0.0
        self.self_by_layer = dict.fromkeys(LAYERS, 0.0)
        self.self_by_name: dict[str, float] = {}
        self.total_by_name: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.scan_outer_s = 0.0
        scans = {f"tcloud.TCloud.{name}" for name in SCANS}
        for index, (name_id, start, end, parent, _, count) in enumerate(spans):
            name = names[name_id]
            if parent < 0:
                inside[index] = name == wanted
                if inside[index]:
                    self.wall += end - start
            else:
                inside[index] = inside[parent]
            if not inside[index]:
                continue
            self.self_by_layer[layers[name_id]] += selfs[index]
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + selfs[index]
            self.total_by_name[name] = self.total_by_name.get(name, 0.0) + end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counts[name] = self.counts.get(name, 0) + count
            if name in scans and names[spans[parent][0]] not in scans:
                self.scan_outer_s += end - start

    def shares(self) -> dict[str, float]:
        return {layer: seconds / self.wall for layer, seconds in self.self_by_layer.items()}

    def self_s(self, *names: str) -> float:
        return sum(self.self_by_name.get(name, 0.0) for name in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total_by_name.get(name, 0.0) for name in names)

    def n(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.counts.get(name, 0) for name in names)
