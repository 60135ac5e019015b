"""JSON helpers.

Transaction state, execution logs and the data-model checkpoint are stored
in the coordination service as JSON documents.  These helpers keep the
encoding deterministic (sorted keys) so that replicas and recovery code can
compare serialized state byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Any


#: One shared encoder instance: ``json.dumps`` with keyword options builds
#: a fresh ``JSONEncoder`` per call, which is measurable overhead on the
#: write path (every transaction document and queue message goes
#: through here).  The encoder is stateless, so sharing it is thread-safe.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(value: Any) -> str:
    """Serialize ``value`` deterministically."""
    return _ENCODER.encode(value)


def loads(data: str | bytes | None) -> Any:
    """Deserialize JSON, returning ``None`` for empty payloads."""
    if data is None:
        return None
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if data == "":
        return None
    return json.loads(data)


#: Immutable JSON scalar types that can be shared instead of copied.
_SCALARS = (str, int, float, bool, type(None))


def deep_copy(value: Any) -> Any:
    """Copy a JSON-compatible structure without serialising it.

    Used where we need a defensive copy of attribute dictionaries that are
    guaranteed to be JSON-serialisable (data-model attributes, procedure
    arguments).  Scalars are shared (immutable), dicts and lists are copied
    recursively; tuples become lists, matching the behaviour of the previous
    ``json.loads(json.dumps(value))`` implementation, which is kept as the
    fallback for exotic-but-serialisable inputs.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        if all(type(key) is str for key in value):
            return {key: deep_copy(item) for key, item in value.items()}
        # Non-string keys need JSON's key coercion (int -> "1", True ->
        # "true", ...) to keep the copy identical to the persisted form.
        return json.loads(json.dumps(value))
    if isinstance(value, (list, tuple)):
        return [deep_copy(item) for item in value]
    return json.loads(json.dumps(value))
