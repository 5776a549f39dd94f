"""Shards: the unit of work of a sweep.

A :class:`Shard` is a declarative, picklable description of one
independent simulation — "run task ``kind`` with ``params``" — that a
worker process can execute without any other context. Shards carry
everything that determines their result (platform spec fields, seed,
packet counts, app names), which makes them *content-addressable*: the
:func:`shard_key` hash of (kind, params, engine, code version) is stable
across processes and runs, and is what the result cache and the
deterministic merge key on.

Params must be plain JSON data (dicts, lists, strings, numbers). The
canonical serialization sorts keys and uses the shortest separators, so
logically-equal params always hash equally.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Versioned marker mixed into every shard key; bump on breaking changes
#: to task semantics or payload shapes (invalidates all cached results).
KEY_SCHEMA = "repro.sweep_shard/1"


def canonical_json(obj: Any) -> str:
    """The canonical (sorted-key, minimal-separator) JSON form of ``obj``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def shard_key(kind: str, params: Dict[str, Any], engine: str,
              code: str) -> str:
    """Content hash identifying one shard's result.

    Two shards share a key iff they run the same task with the same
    parameters on the same engine against the same code — exactly the
    conditions under which their results are interchangeable.
    """
    doc = canonical_json({
        "schema": KEY_SCHEMA,
        "kind": kind,
        "params": params,
        "engine": engine,
        "code": code,
    })
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True)
class Shard:
    """One independent unit of sweep work.

    ``tag`` is a human-readable label used in trace spans and error
    messages (e.g. ``"fig2:MON vs FW"``); it does not affect the key.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    tag: str = ""

    def key(self, engine: str, code: str) -> str:
        """This shard's content-address under ``engine`` and ``code``."""
        return shard_key(self.kind, self.params, engine, code)


@dataclass
class ShardResult:
    """Outcome of one shard within a sweep.

    ``status`` is ``"ok"`` or ``"quarantined"`` (a pooled shard that
    raised or lost its worker; ``error`` holds the traceback).
    ``seconds`` is the execution's wall-clock time (0.0 for cache hits
    and duplicates).
    """

    shard: Shard
    key: str
    status: str = "ok"
    payload: Optional[Any] = None
    from_cache: bool = False
    seconds: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def payload_digest(payload: Any) -> str:
    """Integrity hash of a shard payload (stored beside cached results)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
