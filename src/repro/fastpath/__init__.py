"""repro.fastpath — the batch execution engine and its stream cache.

Public surface:

* ``Machine.run(engine="batch")`` — run the batch engine directly.
* :func:`use_engine` — context manager setting the ambient default
  engine, so whole experiment suites (which build many Machines
  internally) switch without threading an argument everywhere::

      with repro.fastpath.use_engine("batch"):
          result = fig2.run(config)

  A :class:`~repro.sweep.SweepRunner` built without an engine resolves
  the ambient one when it runs, so the figure's shards (inline or on
  workers) use the batch engine too.

* :func:`set_default_engine` / :func:`default_engine` — process-wide
  default (what ``Machine.run()`` uses when no engine is named).
* :func:`clear_stream_cache` / :func:`stream_cache_stats` — manage the
  process-wide pregenerated-stream cache.
* :func:`compare_results` (in :mod:`repro.fastpath.diff`) — every
  divergence between a scalar run and a batch run of one configuration.

This module imports lazily: engine selection is plain bookkeeping, the
numpy-backed machinery loads on first use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

#: Engines Machine.run accepts.
ENGINES = ("scalar", "batch")

_default: List[str] = ["scalar"]


def default_engine() -> str:
    """The engine ``Machine.run()`` uses when none is named."""
    return _default[-1]


def set_default_engine(engine: str) -> None:
    """Set the process-wide default engine (``"scalar"`` or ``"batch"``)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    _default[0] = engine


@contextmanager
def use_engine(engine: str):
    """Run a block with ``engine`` as the ambient default.

    Nests: the innermost ``use_engine`` wins, and the previous default is
    restored on exit regardless of exceptions.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    _default.append(engine)
    try:
        yield
    finally:
        _default.pop()


def clear_stream_cache() -> None:
    """Drop every cached pregenerated stream (and reset hit statistics)."""
    from .streams import STREAM_CACHE

    STREAM_CACHE.clear()


def stream_cache_stats() -> dict:
    """Hit/miss/occupancy statistics of the process-wide stream cache.

    ``refs`` counts stored references; ``bytes`` is the stored arrays'
    size (blocks, level codes and checkpoints).
    """
    from .streams import STREAM_CACHE

    return {
        "streams": len(STREAM_CACHE),
        "refs": STREAM_CACHE.total_refs,
        "bytes": STREAM_CACHE.total_bytes,
        "hits": STREAM_CACHE.hits,
        "misses": STREAM_CACHE.misses,
    }


def __getattr__(name):  # lazy re-exports (keep numpy off the import path)
    if name == "run_batch":
        from .engine import run_batch

        return run_batch
    if name in ("BATCH_PACKETS", "STREAM_CACHE", "StreamCache",
                "StreamSupplier", "StubFlow", "is_timing_pure"):
        from . import streams

        return getattr(streams, name)
    if name == "compare_results":
        from . import diff

        return getattr(diff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
