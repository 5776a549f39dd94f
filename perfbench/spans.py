"""Outside-in layer tracing: span recording, self times, and the hooks.

Every span is recorded by a wrapper the benchmark installs around a
public entry point of one layer of ``repro`` (see :class:`LayerTracer`);
nothing inside ``src/`` knows it is being traced. A span is
``[name_id, start_ns, end_ns, parent_index]``, kept in memory and written
out when the run ends. A layer's *self time* is the duration of its spans
minus the durations of their direct children, so nested layers (a flow's
``run_packet`` inside the batch engine inside a sweep shard) are each
charged only for their own work.

:class:`SimCounter` is the one hook that is also installed in untraced
runs: it adds up the simulated counters of every ``Machine.run`` (one
call per simulated run, never per reference), which gives the exact
simulated-reference count and the ``sim.*`` determinism fence.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: Span names, one per traced layer entry point. ``bench.unit`` is the
#: root span of one work unit; its self time is what no layer claimed.
SPAN_NAMES = (
    "bench.unit",
    "apps.construct",    # Machine.add_flow, StubFlow.materialize
    "apps.generate",     # run_packet of every flow class
    "hw.build",          # Machine.__init__ (cache arrays, controllers)
    "hw.run",            # Machine.run minus its children: scalar loop
    "fastpath.batch",    # run_batch minus its children: replay loop
    "fastpath.pregen",   # StreamSupplier.next_block minus generation
    "sweep.dispatch",    # SweepRunner.run minus the shard tasks
    "sweep.task",        # run_task minus the simulation it calls
    "check.window",      # InvariantChecker.check_window
    "check.audit",       # InvariantChecker.after_run
    "guard.window",      # SLOGuard.on_sample
    "guard.audit",       # SLOGuard.after_run
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

#: Modules whose classes define ``run_packet`` (the functional layer and
#: the flow wrappers around it).
FLOW_MODULES = (
    "repro.click.pipeline",
    "repro.click.handoff",
    "repro.click.multiflow",
    "repro.apps.synthetic",
    "repro.core.throttling",
    "repro.guard.wrappers",
)

#: Simulated counters summed over every flow of every run.
SIM_FIELDS = ("l1_hits", "l2_hits", "l3_hits", "l3_misses", "remote_refs",
              "mc_wait_cycles")


def self_times(spans: Sequence[Sequence[int]], base: int = 0,
               paused: Dict[int, int] = None,
               n_names: int = len(SPAN_NAMES)) -> List[int]:
    """Per-name self time (ns) of ``spans``.

    ``spans[i] = (name_id, start, end, parent)`` where ``parent`` is the
    recorder index of the parent span and ``base`` the recorder index of
    ``spans[0]`` (a parent before ``base`` is outside the slice). A
    span's self time is its duration minus its direct children's, minus
    the time ``paused`` (recorder index -> ns) charges to no layer.
    """
    child = [0] * len(spans)
    for span in spans:
        parent = span[3] - base
        if 0 <= parent < len(spans):
            child[parent] += span[2] - span[1]
    paused = paused or {}
    out = [0] * n_names
    for i, span in enumerate(spans):
        out[span[0]] += (span[2] - span[1] - child[i]
                         - paused.get(base + i, 0))
    return out


class SpanRecorder:
    """An in-memory span stack for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[List[int]] = []
        self.stack: List[int] = [-1]
        #: Recorder index -> ns spent, inside that span, on the host
        #: clock's interruptions (see :meth:`pause`).
        self.paused: Dict[int, int] = defaultdict(int)

    def begin(self, name_id: int) -> List[int]:
        span = [name_id, time.perf_counter_ns(), 0, self.stack[-1]]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def end(self, span: List[int]) -> None:
        span[2] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Charge the enclosed time to no layer.

        Used from a signal handler, so it records no span of its own: a
        span appended between a wrapper's append and push would take the
        wrapper's index. The innermost open span loses the time instead.
        """
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.paused[self.stack[-1]] += time.perf_counter_ns() - t0


class Patcher:
    """Replace attributes and put every original back, newest first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SimCounter:
    """Sums the simulated counters of every ``Machine.run`` call."""

    def __init__(self) -> None:
        self.refs = 0
        self.runs = 0
        self.ints: Dict[str, int] = defaultdict(int)
        self.floats: Dict[str, List[float]] = defaultdict(list)

    def install(self, patcher: Patcher) -> None:
        from repro.hw.machine import Machine

        counter = self

        def make(run):
            @functools.wraps(run)
            def counted_run(machine, *args, **kwargs):
                result = run(machine, *args, **kwargs)
                counter.add(machine, result)
                return result
            return counted_run

        patcher.wrap(Machine, "run", make)

    def add(self, machine, result) -> None:
        self.refs += result.events
        self.runs += 1
        self.floats["end_cycles"].append(result.end_clock)
        for fr in machine.flows:
            c = fr.counters
            for name in SIM_FIELDS:
                value = getattr(c, name)
                if isinstance(value, float):
                    self.floats[name].append(value)
                else:
                    self.ints[name] += value

    def mark(self) -> Tuple[int, int, Dict[str, int], Dict[str, int]]:
        """A position to measure :meth:`since` from."""
        return (self.refs, self.runs, dict(self.ints),
                {k: len(v) for k, v in self.floats.items()})

    def since(self, mark) -> Dict[str, float]:
        """Exact counter totals of the runs after ``mark``.

        Float fields are summed with ``math.fsum`` over exactly those
        runs, so the totals do not depend on what ran before.
        """
        refs, runs, ints, lengths = mark
        out: Dict[str, float] = {"refs": self.refs - refs,
                                 "runs": self.runs - runs}
        for name in SIM_FIELDS + ("end_cycles",):
            if name in self.floats:
                out[name] = math.fsum(
                    self.floats[name][lengths.get(name, 0):])
            else:
                out[name] = self.ints.get(name, 0) - ints.get(name, 0)
        return out


class LayerTracer:
    """Installs span wrappers on every layer entry point.

    Count-style per-layer figures (flows built, blocks served, windows
    checked, sweep counters) are accumulated by the same wrappers.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self.counts: Dict[str, int] = defaultdict(int)
        self._seen = weakref.WeakKeyDictionary()

    # -- wrapper factories -------------------------------------------------

    def _span(self, name: str, after: Callable = None):
        rec = self.rec
        name_id = NAME_ID[name]
        spans = rec.spans
        stack = rec.stack
        now = time.perf_counter_ns

        def make(fn):
            if after is None:
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    span = [name_id, now(), 0, stack[-1]]
                    spans.append(span)
                    stack.append(len(spans) - 1)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        span[2] = now()
                        stack.pop()
                return traced

            @functools.wraps(fn)
            def traced_after(*args, **kwargs):
                span = [name_id, now(), 0, stack[-1]]
                spans.append(span)
                stack.append(len(spans) - 1)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = now()
                    stack.pop()
                after(args, out)
                return out
            return traced_after
        return make

    def _delta_count(self, key: str, obj, total: int) -> None:
        """Count growth of a per-object running total (once per object)."""
        seen = self._seen.setdefault(obj, {})
        self.counts[key] += total - seen.get(key, 0)
        seen[key] = total

    # -- install -----------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        import importlib

        from repro.check.invariants import InvariantChecker
        from repro.fastpath import engine as batch_engine
        from repro.fastpath.streams import StreamSupplier, StubFlow
        from repro.guard.supervisor import SLOGuard
        from repro.hw.machine import Machine
        from repro.sweep import orchestrator
        from repro.sweep.orchestrator import SweepRunner

        counts = self.counts

        def after_add_flow(args, fr):
            if type(fr.flow).__name__ == "StubFlow":
                counts["flows_stubbed"] += 1
            else:
                counts["flows_built"] += 1

        def make_materialize(fn):
            inner = self._span("apps.construct")(fn)

            @functools.wraps(fn)
            def materialize(stub):
                if stub._flow is None:
                    counts["flows_built"] += 1
                return inner(stub)
            return materialize

        def after_machine_run(args, result):
            # run_batch (wrapped below) counts its own references.
            if counts.pop("_in_batch", 0) == 0:
                counts["scalar_refs"] += result.events

        def after_run_batch(args, result):
            counts["batch_refs"] += result.events
            counts["_in_batch"] = 1

        def after_next_block(args, block):
            counts["blocks"] += 1

        def after_sweep(args, outcome):
            for key in ("shards", "executed", "cache_hits", "quarantined"):
                counts["sweep_" + key] += outcome.stats[key]

        def after_check_audit(args, out):
            checker = args[0]
            self._delta_count("violations", checker, len(checker.violations))
            self._delta_count("check_windows", checker,
                              checker.windows_checked)

        def after_guard_audit(args, out):
            guard = args[0]
            self._delta_count("guard_events", guard, len(guard.events))
            self._delta_count("guard_windows", guard, guard.windows_observed)
            counts["guard_unhandled"] += len(guard.unhandled)

        patcher.wrap(Machine, "__init__", self._span("hw.build"))
        patcher.wrap(Machine, "add_flow",
                     self._span("apps.construct", after_add_flow))
        patcher.wrap(StubFlow, "materialize", make_materialize)
        patcher.wrap(Machine, "run", self._span("hw.run", after_machine_run))
        patcher.wrap(batch_engine, "run_batch",
                     self._span("fastpath.batch", after_run_batch))
        patcher.wrap(StreamSupplier, "next_block",
                     self._span("fastpath.pregen", after_next_block))
        patcher.wrap(SweepRunner, "run",
                     self._span("sweep.dispatch", after_sweep))
        patcher.wrap(orchestrator, "run_task", self._span("sweep.task"))
        patcher.wrap(InvariantChecker, "check_window",
                     self._span("check.window"))
        patcher.wrap(InvariantChecker, "after_run",
                     self._span("check.audit", after_check_audit))
        patcher.wrap(SLOGuard, "on_sample", self._span("guard.window"))
        patcher.wrap(SLOGuard, "after_run",
                     self._span("guard.audit", after_guard_audit))
        generate = self._span("apps.generate")
        for modname in FLOW_MODULES:
            module = importlib.import_module(modname)
            for obj in list(vars(module).values()):
                if (isinstance(obj, type) and obj.__module__ == modname
                        and "run_packet" in vars(obj)):
                    patcher.wrap(obj, "run_packet", generate)


def top_level_packets(spans: Sequence[Sequence[int]], base: int = 0) -> int:
    """``apps.generate`` spans not nested in another one (= packets).

    ``base`` is the index of ``spans[0]`` in the recorder's full list.
    """
    gen = NAME_ID["apps.generate"]
    n = 0
    for span in spans:
        if span[0] != gen:
            continue
        parent = span[3] - base
        if parent < 0 or spans[parent][0] != gen:
            n += 1
    return n


def stream_cache_stats() -> Dict[str, int]:
    """The batch engine's stream-cache counters (zeros if never loaded)."""
    if "repro.fastpath.streams" not in sys.modules:
        return {"hits": 0, "misses": 0}
    from repro.fastpath import stream_cache_stats as stats

    return stats()
