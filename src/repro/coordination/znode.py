"""Znodes: the data nodes of the coordination service."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class Stat:
    """Metadata returned alongside znode data (a subset of ZooKeeper's Stat)."""

    version: int
    czxid: int
    mzxid: int
    ephemeral_owner: str | None
    num_children: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "czxid": self.czxid,
            "mzxid": self.mzxid,
            "ephemeral_owner": self.ephemeral_owner,
            "num_children": self.num_children,
        }


class ZNode:
    """A node in the coordination tree.

    ``data`` is always a string (the library stores JSON documents).
    ``ephemeral_owner`` is the id of the owning session for ephemeral nodes;
    such nodes are removed automatically when the session expires, which is
    how controller failure is detected (§2.3).

    A plain ``__slots__`` class rather than a dataclass: every committed
    create is applied to every up replica, so znode construction sits on
    the coordination hot path.
    """

    __slots__ = (
        "path", "data", "version", "czxid", "mzxid",
        "ephemeral_owner", "children", "sequence_counter",
    )

    def __init__(
        self,
        path: str,
        data: str = "",
        version: int = 0,
        czxid: int = 0,
        mzxid: int = 0,
        ephemeral_owner: str | None = None,
        children: "dict[str, ZNode] | None" = None,
        sequence_counter: int = 0,
    ) -> None:
        self.path = path
        self.data = data
        self.version = version
        self.czxid = czxid
        self.mzxid = mzxid
        self.ephemeral_owner = ephemeral_owner
        self.children = {} if children is None else children
        self.sequence_counter = sequence_counter

    def stat(self) -> Stat:
        return Stat(
            version=self.version,
            czxid=self.czxid,
            mzxid=self.mzxid,
            ephemeral_owner=self.ephemeral_owner,
            num_children=len(self.children),
        )

    def clone(self) -> "ZNode":
        """Deep copy used when replicating state to a restarted server."""
        node = ZNode(
            path=self.path,
            data=self.data,
            version=self.version,
            czxid=self.czxid,
            mzxid=self.mzxid,
            ephemeral_owner=self.ephemeral_owner,
            sequence_counter=self.sequence_counter,
        )
        node.children = {name: child.clone() for name, child in self.children.items()}
        return node


#: Bounded memo cache for path splitting: znode paths repeat heavily on the
#: write path (transaction documents, queue nodes), and splitting shows up
#: in profiles of every coordination operation.  Reset when full.
_SPLIT_CACHE: dict[str, tuple[str, ...]] = {}
_SPLIT_CACHE_LIMIT = 1 << 16


def split_path(path: str) -> tuple[str, ...]:
    """Split a coordination path into components (root = empty tuple)."""
    parts = _SPLIT_CACHE.get(path)
    if parts is None:
        parts = tuple(part for part in path.split("/") if part)
        if len(_SPLIT_CACHE) >= _SPLIT_CACHE_LIMIT:
            _SPLIT_CACHE.clear()
        _SPLIT_CACHE[path] = parts
    return parts


def parent_path(path: str) -> str:
    parts = split_path(path)
    if not parts:
        return "/"
    return "/" + "/".join(parts[:-1])


def join_path(parent: str, name: str) -> str:
    if parent.endswith("/"):
        return parent + name
    return parent + "/" + name
