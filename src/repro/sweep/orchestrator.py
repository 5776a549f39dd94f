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
3. **Execute** — inline for ``jobs=1``, else on a pool of single-task
   worker processes.

Fault tolerance
===============

``jobs=1`` executes inline: no subprocesses, the same arithmetic, and
the ambient tracer/metrics session still observes the machines. A shard
that raises inline propagates its original exception — a deterministic
simulation that raised once raises again, so there is nothing to retry.

With ``jobs > 1`` workers are expendable; shards are not. A worker that
*raises* reports the traceback and keeps serving; a worker that *hangs*
past ``shard_timeout`` is SIGKILLed and replaced; a worker that *dies*
(segfault, OOM-kill, SIGKILL) is detected by exit code and replaced. In
every case the shard it held is retried with bounded exponential backoff
up to ``retries`` times, and a shard that keeps failing is *quarantined*
— recorded with its error, counted, and excluded from payloads — so one
poison shard fails itself, not the sweep. Callers that need every shard
call :meth:`SweepOutcome.raise_for_quarantine`; :func:`run_grid` does.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .codeversion import code_version
from .shard import Shard, ShardResult
from .tasks import run_task

#: Schema of the execution-stats dict embedded in run reports.
STATS_SCHEMA = "repro.sweep_stats/1"


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
    #: Wall-clock seconds a shard may run before its worker is killed
    #: (None: no timeout; enforced only with ``jobs > 1``).
    shard_timeout: Optional[float] = None
    #: Re-executions granted after a worker shard's first failure.
    retries: int = 2
    #: Exponential backoff before a retry: ``backoff * 2**(attempt-1)``
    #: seconds, capped at ``backoff_cap``.
    backoff: float = 0.1
    backoff_cap: float = 2.0
    #: multiprocessing start method (None: fork where available — cheap
    #: and inherits imports — else spawn).
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")


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
            raise SweepError(
                f"{len(bad)} shard(s) quarantined after retries: {detail}")


class _Worker:
    """Bookkeeping for one live worker process."""

    __slots__ = ("wid", "proc", "task_q")

    def __init__(self, wid, proc, task_q):
        self.wid = wid
        self.proc = proc
        self.task_q = task_q


class SweepRunner:
    """Executes shard lists under one :class:`SweepOptions`."""

    def __init__(self, options: Optional[SweepOptions] = None, **overrides):
        base = options if options is not None else SweepOptions()
        self.options = (dataclasses.replace(base, **overrides)
                        if overrides else base)
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
        counters = {"retries": 0, "quarantined": 0, "workers_killed": 0,
                    "cache_hits": 0, "cache_misses": 0}
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
                counters["cache_hits"] += 1
                results[i] = ShardResult(shard=shards[i], key=key,
                                         payload=payload, from_cache=True)
            else:
                if opts.cache is not None:
                    counters["cache_misses"] += 1
                to_run.append(i)

        if to_run:
            if opts.jobs == 1:
                self._run_inline(shards, keys, results, to_run, engine)
            else:
                self._run_pool(shards, keys, results, to_run, engine,
                               counters)

        for i, j in dup_of.items():
            src = results[j]
            results[i] = ShardResult(
                shard=shards[i], key=keys[i], status=src.status,
                payload=src.payload, attempts=0, from_cache=src.from_cache,
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
            "cache_hits": counters["cache_hits"],
            "cache_misses": counters["cache_misses"],
            "cache_corrupt_detected": (
                (opts.cache.stats["corrupt"] - corrupt_before)
                if opts.cache is not None else 0),
            "retries": counters["retries"],
            "quarantined": counters["quarantined"],
            "workers_killed": counters["workers_killed"],
            "seconds": time.perf_counter() - started,
        }
        final = [r for r in results if r is not None]
        assert len(final) == len(shards), "orchestrator lost a shard"
        self._emit_spans(final)
        self.stats_history.append(stats)
        return SweepOutcome(results=final, stats=stats)

    _SUMMED_STATS = ("shards", "unique", "executed", "cache_hits",
                     "cache_misses", "cache_corrupt_detected", "retries",
                     "quarantined", "workers_killed", "seconds")

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

    # -- inline (jobs=1) ----------------------------------------------------

    def _run_inline(self, shards, keys, results, to_run, engine) -> None:
        from .. import fastpath

        cache = self.options.cache
        for idx in to_run:
            start = time.perf_counter()
            with fastpath.use_engine(engine):
                payload = run_task(shards[idx].kind, shards[idx].params)
            results[idx] = ShardResult(
                shard=shards[idx], key=keys[idx], payload=payload,
                attempts=1, seconds=time.perf_counter() - start,
            )
            if cache is not None:
                cache.put(keys[idx], payload)

    # -- pool (jobs>1) ------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        return min(self.options.backoff_cap,
                   self.options.backoff * (2.0 ** (attempt - 1)))

    def _run_pool(self, shards, keys, results, to_run, engine,
                  counters) -> None:
        # Imported here so inline sweeps never load the pool machinery.
        import multiprocessing
        import queue

        from .worker import worker_main

        opts = self.options
        method = opts.start_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        ctx = multiprocessing.get_context(method)
        result_q = ctx.Queue()
        workers: Dict[int, _Worker] = {}
        next_wid = [0]

        def spawn() -> None:
            wid = next_wid[0]
            next_wid[0] += 1
            task_q = ctx.Queue()
            proc = ctx.Process(target=worker_main,
                               args=(wid, task_q, result_q, engine),
                               daemon=True)
            proc.start()
            workers[wid] = _Worker(wid, proc, task_q)

        def retire(worker: _Worker, kill: bool) -> None:
            if kill and worker.proc.is_alive():
                worker.proc.kill()
                counters["workers_killed"] += 1
            worker.proc.join(timeout=5.0)
            worker.task_q.close()
            worker.task_q.cancel_join_thread()

        # Ready heap entries: (not_before, seq, shard_index, attempt).
        ready: List = []
        seq = [0]

        def schedule(idx: int, attempt: int, not_before: float) -> None:
            heapq.heappush(ready, (not_before, seq[0], idx, attempt))
            seq[0] += 1

        total = len(to_run)
        done = [0]
        inflight: Dict[int, tuple] = {}  # wid -> (idx, attempt, deadline)

        def settle_ok(idx: int, attempt: int, payload, seconds: float) -> None:
            results[idx] = ShardResult(
                shard=shards[idx], key=keys[idx], payload=payload,
                attempts=attempt, seconds=seconds,
            )
            if opts.cache is not None:
                opts.cache.put(keys[idx], payload)
            done[0] += 1
            # A stale success may race a scheduled retry; drop the retry.
            stale = [e for e in ready if e[2] == idx]
            if stale:
                ready[:] = [e for e in ready if e[2] != idx]
                heapq.heapify(ready)

        def settle_failure(idx: int, attempt: int, reason: str) -> None:
            if results[idx] is not None:
                return
            if attempt > opts.retries:
                counters["quarantined"] += 1
                results[idx] = ShardResult(
                    shard=shards[idx], key=keys[idx], status="quarantined",
                    attempts=attempt, error=reason,
                )
                done[0] += 1
            else:
                counters["retries"] += 1
                schedule(idx, attempt + 1,
                         time.monotonic() + self._backoff_delay(attempt))

        for idx in to_run:
            schedule(idx, 1, 0.0)

        try:
            while done[0] < total:
                now = time.monotonic()
                # Keep the pool at strength (replaces killed/dead workers).
                target = min(opts.jobs, total - done[0])
                while len(workers) < target:
                    spawn()
                # Hand ripe work to idle workers.
                idle = [w for w in workers.values()
                        if w.wid not in inflight and w.proc.is_alive()]
                while idle and ready and ready[0][0] <= now:
                    _, _, idx, attempt = heapq.heappop(ready)
                    if results[idx] is not None:
                        continue
                    worker = idle.pop()
                    worker.task_q.put((idx, shards[idx].kind,
                                       shards[idx].params))
                    deadline = (now + opts.shard_timeout
                                if opts.shard_timeout else None)
                    inflight[worker.wid] = (idx, attempt, deadline)

                try:
                    msg = result_q.get(timeout=0.05)
                except queue.Empty:
                    msg = None
                if msg is not None:
                    wid, idx, status, data, seconds = msg
                    held = inflight.get(wid)
                    if held is not None and held[0] == idx:
                        attempt = held[1]
                        del inflight[wid]
                    else:
                        attempt = None  # stale: sender was already killed
                    if results[idx] is None:
                        if status == "ok":
                            settle_ok(idx, attempt or 1, data, seconds)
                        elif attempt is not None:
                            settle_failure(idx, attempt, data)
                    continue  # a worker likely freed up; go assign

                now = time.monotonic()
                # Hung shards: kill past-deadline workers, retry the shard.
                for wid, (idx, attempt, deadline) in list(inflight.items()):
                    if deadline is not None and now >= deadline:
                        worker = workers.pop(wid)
                        del inflight[wid]
                        retire(worker, kill=True)
                        settle_failure(
                            idx, attempt,
                            f"shard timed out after {opts.shard_timeout:g}s "
                            f"(worker killed)")
                # Dead workers (crash / SIGKILL): fail what they held.
                for wid, worker in list(workers.items()):
                    if not worker.proc.is_alive():
                        del workers[wid]
                        held = inflight.pop(wid, None)
                        exitcode = worker.proc.exitcode
                        retire(worker, kill=False)
                        if held is not None:
                            settle_failure(
                                held[0], held[1],
                                f"worker died mid-shard "
                                f"(exitcode {exitcode})")
        finally:
            for worker in workers.values():
                try:
                    worker.task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
            for worker in workers.values():
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join(timeout=2.0)
                worker.task_q.close()
                worker.task_q.cancel_join_thread()
            result_q.close()
            result_q.cancel_join_thread()

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
                    "attempts": res.attempts,
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
    cache). Raises :class:`SweepError` if a worker shard was quarantined.
    """
    shards, merge = grid
    outcome = (runner if runner is not None else SweepRunner()).run(shards)
    outcome.raise_for_quarantine()
    return merge(outcome.results)
