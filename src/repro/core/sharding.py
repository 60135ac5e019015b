"""Subtree sharding of the controller (scale-out of the logical layer).

The paper's single lead controller serially orders every transaction, which
caps platform throughput regardless of how fast the write path gets.  This
module partitions the *data-model tree* over N controller shards: each
shard owns a disjoint set of second-level subtrees (the same granularity as
the incremental checkpoint units, e.g. one ``vmHost`` or ``storageHost``
per unit) and runs its own leader election, inputQ, phyQ, lock domain and
checkpoint namespace.  Shards share nothing, so a shard is an independent
failure and recovery domain — a shard failover replays only that shard's
transaction log and checkpoint documents — and shards may be hosted by
separate processes (or machines/ensembles) without further coordination.

Ownership is decided by the :class:`ShardMap`:

* an explicit ``assignments`` table maps *unit keys* (the ``/top/child``
  prefix of a path) to shard indices; deployments use it to co-locate
  resources that transact together (TCloud pairs each compute host with
  the storage host that serves its images), and
* any unit without an explicit assignment falls back to a content-stable
  hash (CRC-32 of the unit key), so routing is deterministic across
  process restarts and independent of Python's randomised ``hash()``.

Paths at or above the sharding granularity (the root and top-level nodes
such as ``/vmRoot``) are *global*: a transaction that addresses them spans
every shard by definition.

Cross-shard transactions — those whose argument paths resolve to more than
one shard — are handled by policy (see ``TropicConfig.cross_shard_policy``):

* ``"2pc"`` (default): run true two-phase commit across the shard leaders.
  The lowest involved shard coordinates; every involved shard validates,
  locks and durably prepares its slice of the execution log before the
  coordinator logs the commit decision.  Atomicity, isolation and owner
  read visibility all hold at cross-shard scope; see
  :mod:`repro.core.twopc` for the protocol and its recovery rules.
* ``"reject"``: refuse at submit time with
  :class:`~repro.common.errors.CrossShardTransaction`, so every accepted
  transaction is serialised by exactly one shard's lock domain.

Sharding granularity, the shard-map format and the routing rules are
documented in ``docs/architecture.md#sharding-the-controller``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.common.errors import ConfigurationError, CrossShardTransaction
from repro.datamodel.path import ResourcePath

#: Policies for transactions whose paths span more than one shard.
CROSS_SHARD_POLICIES = ("2pc", "reject")


def stable_shard(key: str, num_shards: int) -> int:
    """Deterministic shard index for ``key`` (stable across processes).

    Python's builtin ``hash`` is salted per process, which would re-route
    the tree on every restart; CRC-32 is stable, cheap and well spread for
    the short path prefixes used as keys.
    """
    return zlib.crc32(key.encode("utf-8")) % num_shards


def unit_key(path: "str | ResourcePath") -> str:
    """The sharding key of ``path``: its ``/top/child`` unit prefix.

    Matches the incremental-checkpoint unit granularity.  Paths above that
    granularity (root, top-level nodes) return their own prefix and are
    treated as *global* by the router.
    """
    rpath = ResourcePath.parse(path)
    parts = rpath.parts[:2]
    return "/" + "/".join(parts)


def is_global_path(path: "str | ResourcePath") -> bool:
    """True for paths at or above the sharding granularity (depth < 2)."""
    return ResourcePath.parse(path).depth < 2


class ShardMap:
    """Assignment of data-model subtrees (checkpoint units) to shards.

    The serialised form (:meth:`to_dict`) is persisted once in the global
    (unsharded) coordination namespace at bootstrap, so every client,
    gateway and controller process resolves the same map::

        {"version": 1, "num_shards": 4,
         "assignments": {"/vmRoot/vmHost0": 0, "/storageRoot/storageHost0": 0, ...}}

    Units absent from ``assignments`` are owned by ``crc32(unit) % N``.
    """

    VERSION = 1

    def __init__(self, num_shards: int, assignments: dict[str, int] | None = None):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = int(num_shards)
        self.assignments: dict[str, int] = {}
        for key, shard in (assignments or {}).items():
            shard = int(shard)
            if not 0 <= shard < self.num_shards:
                raise ConfigurationError(
                    f"assignment {key!r} -> {shard} outside 0..{self.num_shards - 1}"
                )
            self.assignments[unit_key(key)] = shard

    def shard_of(self, path: "str | ResourcePath") -> int:
        """The shard owning ``path`` (via its unit key)."""
        if self.num_shards == 1:
            return 0
        key = unit_key(path)
        assigned = self.assignments.get(key)
        if assigned is not None:
            return assigned
        return stable_shard(key, self.num_shards)

    def owns(self, shard: int, path: "str | ResourcePath") -> bool:
        return self.shard_of(path) == shard

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.VERSION,
            "num_shards": self.num_shards,
            "assignments": dict(sorted(self.assignments.items())),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardMap":
        return cls(int(data["num_shards"]), data.get("assignments") or {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (self.num_shards, self.assignments) == (other.num_shards, other.assignments)

    def __repr__(self) -> str:
        return f"<ShardMap shards={self.num_shards} assignments={len(self.assignments)}>"


def colocated_assignments(groups: Iterable[Iterable[str]], num_shards: int) -> dict[str, int]:
    """Build an assignment table placing each *group* of paths on one shard.

    Groups are distributed round-robin, so equally sized groups balance
    across shards.  TCloud passes one group per storage host: the storage
    host plus every compute host whose disk images it serves, which keeps
    ``spawnVM``/``destroyVM`` single-shard.
    """
    assignments: dict[str, int] = {}
    for index, group in enumerate(groups):
        shard = index % num_shards
        for path in group:
            assignments[unit_key(path)] = shard
    return assignments


def extract_paths(value: Any) -> Iterator[str]:
    """Yield every data-model path mentioned in a transaction's arguments.

    Stored-procedure arguments carry resource addresses as absolute
    slash-separated strings (``vm_host``, ``storage_host``, ``router`` ...)
    possibly nested in lists/dicts (composite procedures).  Anything that
    starts with ``/`` and parses as a resource path is treated as one.
    """
    if isinstance(value, str):
        if value.startswith("/"):
            try:
                ResourcePath.parse(value)
            except Exception:  # noqa: BLE001 - not a path, ignore
                return
            yield value
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from extract_paths(item)
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from extract_paths(item)


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one transaction's argument paths."""

    shard: int
    shards: frozenset[int] = field(default_factory=frozenset)
    cross_shard: bool = False
    global_scope: bool = False
    paths: tuple[str, ...] = ()


class ShardRouter:
    """Routes submitted transactions to the shard owning their paths."""

    def __init__(self, shard_map: ShardMap, policy: str = "2pc"):
        if policy not in CROSS_SHARD_POLICIES:
            raise ConfigurationError(
                f"unknown cross_shard_policy {policy!r}; choose from {CROSS_SHARD_POLICIES}"
            )
        self.map = shard_map
        self.policy = policy

    @property
    def num_shards(self) -> int:
        return self.map.num_shards

    def shard_of(self, path: "str | ResourcePath") -> int:
        return self.map.shard_of(path)

    def owns(self, shard: int, path: "str | ResourcePath") -> bool:
        return self.map.owns(shard, path)

    def route_paths(self, paths: Iterable[str]) -> RouteDecision:
        """Route a set of concrete paths; does not apply the policy."""
        paths = tuple(paths)
        if self.num_shards == 1:
            return RouteDecision(shard=0, shards=frozenset({0}), paths=paths)
        shards: set[int] = set()
        global_scope = False
        for path in paths:
            if is_global_path(path):
                global_scope = True
            else:
                shards.add(self.map.shard_of(path))
        if global_scope:
            shards.update(range(self.num_shards))
        if not shards:
            # No addressable paths (pure-argument procedures): default shard.
            return RouteDecision(shard=0, shards=frozenset({0}), paths=paths)
        if len(shards) == 1:
            (only,) = shards
            return RouteDecision(shard=only, shards=frozenset(shards), paths=paths)
        return RouteDecision(
            shard=min(shards),
            shards=frozenset(shards),
            cross_shard=True,
            global_scope=global_scope,
            paths=paths,
        )

    def route_args(self, args: dict[str, Any] | None) -> RouteDecision:
        return self.route_paths(extract_paths(args or {}))

    def plan(self, procedure: str, args: dict[str, Any] | None) -> RouteDecision:
        """Full routing decision for a submission, applying the policy.

        For cross-shard submissions: ``2pc`` places the transaction on the
        lowest involved shard (``decision.shard``, the 2PC *coordinator*),
        and the platform stamps the coordinator and the provisional
        participant set into the transaction document; ``reject`` raises.
        """
        decision = self.route_args(args)
        if not decision.cross_shard or self.policy == "2pc":
            return decision
        raise CrossShardTransaction(
            f"transaction {procedure!r} spans shards {sorted(decision.shards)} "
            f"(paths {list(decision.paths)}); cross-shard transactions are "
            f"rejected under the 'reject' policy — split the orchestration "
            f"per shard or submit with cross_shard_policy='2pc'",
            shards=sorted(decision.shards),
        )

    def resolve(self, procedure: str, args: dict[str, Any] | None) -> int:
        """Owning (or coordinating) shard for a submission."""
        return self.plan(procedure, args).shard

    def __repr__(self) -> str:
        return f"<ShardRouter shards={self.num_shards} policy={self.policy}>"
