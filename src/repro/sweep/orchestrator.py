"""The sweep orchestrator: shards in, deterministically-merged results out.

Execution model
===============

A sweep takes a list of :class:`~repro.sweep.shard.Shard` descriptions —
independent simulations — and produces one
:class:`~repro.sweep.shard.ShardResult` per shard *in input order*,
regardless of how many workers ran them or in what order they finished.
Every consumer (figure merges, CLI reports) reads that ordered list, so
the merged output of ``jobs=8`` is byte-identical to ``jobs=1``.

Per shard, resolution order is:

1. **Dedupe** — shards with equal content keys within one sweep are
   computed once and shared.
2. **Cache** — a configured result cache is consulted by content key
   (config + seed + engine + code version); hits skip execution.
3. **Execute** — inline for ``jobs=1``, else on a
   :class:`concurrent.futures.ProcessPoolExecutor`. Both paths run a
   shard through :func:`_execute`.

Failures
========

A shard is a pure function of its params: one that raised once raises
again, so nothing is retried. ``jobs=1`` executes inline — no
subprocesses, the same arithmetic, and the ambient tracer/metrics
session still observes the machines — and a shard that raises there
propagates its original exception.

In the pool, a shard whose future raises — the task raised in its
worker, or a worker died (segfault, OOM-kill, SIGKILL) and broke the
pool — is *quarantined*: recorded with its traceback, counted, never
cached, and excluded from payloads, while the rest of the sweep still
resolves. Callers that need every shard call
:meth:`SweepOutcome.raise_for_quarantine`; :func:`run_grid` does. There
is no shard timeout: a shard that hangs hangs its sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .codeversion import code_version
from .shard import Shard, ShardResult
from .tasks import run_task

#: Schema of the execution-stats dict embedded in run reports.
STATS_SCHEMA = "repro.sweep_stats/2"


class SweepError(RuntimeError):
    """A sweep could not produce every required shard."""


@dataclass
class SweepOptions:
    """Knobs of one orchestrator instance."""

    jobs: int = 1
    #: Execution engine for every shard (None: the ambient default).
    engine: Optional[str] = None
    #: A ResultCache / MemoryCache, or None (no caching).
    cache: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclass
class SweepOutcome:
    """All shard results (input order) plus execution statistics."""

    results: List[ShardResult]
    stats: Dict[str, Any] = field(default_factory=dict)

    def payloads(self) -> Dict[str, Any]:
        """Successful payloads by shard key (quarantined shards absent)."""
        return {r.key: r.payload for r in self.results if r.ok}

    @property
    def quarantined(self) -> List[ShardResult]:
        return [r for r in self.results if not r.ok]

    def raise_for_quarantine(self) -> None:
        """Fail loudly when any shard was quarantined."""
        bad = self.quarantined
        if bad:
            detail = "; ".join(
                f"{r.shard.tag or r.shard.kind}: {(r.error or '?').splitlines()[-1]}"
                for r in bad[:5]
            )
            raise SweepError(f"{len(bad)} shard(s) quarantined: {detail}")


def _execute(kind: str, params: Dict[str, Any],
             engine: str) -> Tuple[Any, float]:
    """Run one shard under ``engine``: ``(payload, seconds)``.

    The inline and pool paths both land here. ``run_task`` is looked up
    as this module's global on every call, so a wrapper installed on
    ``orchestrator.run_task`` sees every shard (forked workers inherit it).
    """
    from .. import fastpath

    start = time.perf_counter()
    with fastpath.use_engine(engine):
        payload = run_task(kind, params)
    return payload, time.perf_counter() - start


def _ignore_sigint() -> None:
    """Pool-worker initializer: the orchestrator owns Ctrl-C handling."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


class SweepRunner:
    """Executes shard lists under one :class:`SweepOptions`."""

    def __init__(self, options: Optional[SweepOptions] = None):
        self.options = options if options is not None else SweepOptions()
        #: Per-sweep stats dicts, one per :meth:`run`, in call order.
        self.stats_history: List[Dict[str, Any]] = []

    # -- public -------------------------------------------------------------

    def run(self, shards: Sequence[Shard]) -> SweepOutcome:
        """Resolve every shard (dedupe → cache → execute) in input order."""
        opts = self.options
        from .. import fastpath

        engine = opts.engine if opts.engine is not None \
            else fastpath.default_engine()
        code = code_version()
        shards = list(shards)
        keys = [s.key(engine, code) for s in shards]
        results: List[Optional[ShardResult]] = [None] * len(shards)
        cache_hits = cache_misses = 0
        started = time.perf_counter()
        corrupt_before = opts.cache.stats["corrupt"] if opts.cache else 0

        first_of: Dict[str, int] = {}
        dup_of: Dict[int, int] = {}
        for i, key in enumerate(keys):
            if key in first_of:
                dup_of[i] = first_of[key]
            else:
                first_of[key] = i

        to_run: List[int] = []
        for key, i in first_of.items():
            payload = opts.cache.get(key) if opts.cache is not None else None
            if payload is not None:
                cache_hits += 1
                results[i] = ShardResult(shard=shards[i], key=key,
                                         payload=payload, from_cache=True)
            else:
                if opts.cache is not None:
                    cache_misses += 1
                to_run.append(i)

        if to_run:
            execute = self._run_inline if opts.jobs == 1 else self._run_pool
            for idx, done, error in execute(shards, to_run, engine):
                if error is not None:
                    results[idx] = ShardResult(
                        shard=shards[idx], key=keys[idx],
                        status="quarantined", error=error)
                    continue
                payload, seconds = done
                results[idx] = ShardResult(shard=shards[idx], key=keys[idx],
                                           payload=payload, seconds=seconds)
                if opts.cache is not None:
                    opts.cache.put(keys[idx], payload)

        for i, j in dup_of.items():
            src = results[j]
            results[i] = ShardResult(
                shard=shards[i], key=keys[i], status=src.status,
                payload=src.payload, from_cache=src.from_cache,
                seconds=0.0, error=src.error,
            )

        stats = {
            "schema": STATS_SCHEMA,
            "jobs": opts.jobs,
            "engine": engine,
            "shards": len(shards),
            "unique": len(first_of),
            "executed": len(to_run),
            "cache_enabled": opts.cache is not None,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_corrupt_detected": (
                (opts.cache.stats["corrupt"] - corrupt_before)
                if opts.cache is not None else 0),
            "quarantined": sum(not results[i].ok for i in to_run),
            "seconds": time.perf_counter() - started,
        }
        final = [r for r in results if r is not None]
        assert len(final) == len(shards), "orchestrator lost a shard"
        self._emit_spans(final)
        self.stats_history.append(stats)
        return SweepOutcome(results=final, stats=stats)

    _SUMMED_STATS = ("shards", "unique", "executed", "cache_hits",
                     "cache_misses", "cache_corrupt_detected", "quarantined",
                     "seconds")

    def execution_stats(self) -> Dict[str, Any]:
        """Counters summed over every sweep this runner has executed.

        This is what CLI tools embed under ``RunReport.execution`` — all
        of it volatile (parallelism, cache state, wall-clock), none of it
        part of the deterministic report content.
        """
        merged: Dict[str, Any] = {
            "schema": STATS_SCHEMA,
            "jobs": self.options.jobs,
            "cache_enabled": self.options.cache is not None,
            "sweeps": len(self.stats_history),
        }
        for key in self._SUMMED_STATS:
            merged[key] = sum(s[key] for s in self.stats_history)
        return merged

    # -- execution: yield (index, (payload, seconds) or None, error) ---------

    def _run_inline(self, shards, to_run, engine):
        for idx in to_run:
            yield idx, _execute(shards[idx].kind, shards[idx].params,
                                engine), None

    def _run_pool(self, shards, to_run, engine):
        # Imported here so inline sweeps never load the pool machinery.
        import multiprocessing
        import traceback
        from concurrent.futures import ProcessPoolExecutor

        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        pool = ProcessPoolExecutor(
            max_workers=min(self.options.jobs, len(to_run)),
            mp_context=multiprocessing.get_context(method),
            initializer=_ignore_sigint)
        try:
            futures = [(idx, pool.submit(_execute, shards[idx].kind,
                                         shards[idx].params, engine))
                       for idx in to_run]
            for idx, future in futures:
                try:
                    done = future.result()
                except Exception as exc:  # raised in the worker, or pool broke
                    yield idx, None, "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__))
                else:
                    yield idx, done, None
        finally:
            pool.shutdown(cancel_futures=True)

    # -- observability ------------------------------------------------------

    def _emit_spans(self, results: List[ShardResult]) -> None:
        """One trace event per shard into the ambient obs session."""
        from ..obs.session import current_session
        from ..obs.trace import KIND_PHASE, TraceEvent

        session = current_session()
        if session is None or not session.tracer.active:
            return
        for i, res in enumerate(results):
            session.tracer.sink.emit(TraceEvent(
                float(i), KIND_PHASE, "shard", run=-1,
                flow=res.shard.tag or res.shard.kind,
                args={
                    "kind": res.shard.kind,
                    "key": res.key[:16],
                    "status": res.status,
                    "from_cache": res.from_cache,
                    "seconds": res.seconds,
                },
            ))


#: A grid: shards plus the merge consuming their results in input order.
Grid = Tuple[List[Shard], Callable[[Sequence[ShardResult]], Any]]


def run_grid(grid: Grid, runner: Optional[SweepRunner] = None) -> Any:
    """Resolve a ``(shards, merge)`` grid on ``runner``; the merged result.

    The one execution path of every experiment grid. With no runner the
    shards run inline on a fresh :class:`SweepRunner` (``jobs=1``, no
    cache). Raises :class:`SweepError` if a pooled shard was quarantined.
    """
    shards, merge = grid
    outcome = (runner if runner is not None else SweepRunner()).run(shards)
    outcome.raise_for_quarantine()
    return merge(outcome.results)
