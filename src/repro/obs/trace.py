"""Structured tracing for the simulated platform.

The paper's methodology is built on *measurement*; this module gives the
reproduction the equivalent of its Oprofile runs as a first-class,
machine-readable stream. A :class:`Tracer` is attached to a
:class:`~repro.hw.machine.Machine` and receives hook calls from the
timing engine: run phases (warm-up complete, measurement window closed),
per-packet completion spans (with per-element attribution supplied by the
:class:`~repro.click.pipeline.Pipeline` layer), and sampled memory-system
events (L3 misses and their memory-controller queueing).

Events go to a pluggable :class:`TraceSink`. The module-level
:data:`NULL_TRACER` is what machines use when tracing is off: the engine
checks a single boolean (``tracer.active``) and skips every hook, so the
disabled hot path costs nothing but that check (see
``tests/test_obs_overhead.py``). When tracing is enabled, the
``packet_sample`` / ``mem_sample`` knobs bound event volume.

Timestamps are simulated cycles; sinks that need wall-clock units convert
via the frequency carried by the run-begin metadata event.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Event kinds emitted by the engine hooks.
KIND_META = "meta"      #: run begin/end metadata (flows, platform, freq)
KIND_PHASE = "phase"    #: per-flow phase marker (measure_begin, measure_end)
KIND_PACKET = "packet"  #: one completed packet span (start..end cycles)
KIND_MEM = "mem"        #: sampled memory-system event (L3 miss / MC wait)
KIND_GUARD = "guard"    #: SLO-guard action (warn/tighten/quarantine/restore)


class TraceEvent:
    """One structured trace event.

    ``ts`` (and ``dur`` for spans) are simulated cycles. ``run`` numbers
    the machine run within this tracer's lifetime (a tracer may observe
    several machines, e.g. a profile sweep); ``flow``/``core`` identify
    the emitting flow, or are ``None`` for run-level events.
    """

    __slots__ = ("ts", "kind", "name", "run", "flow", "core", "dur", "args")

    def __init__(self, ts: float, kind: str, name: str, run: int,
                 flow: Optional[str] = None, core: Optional[int] = None,
                 dur: float = 0.0, args: Optional[Dict[str, Any]] = None):
        self.ts = ts
        self.kind = kind
        self.name = name
        self.run = run
        self.flow = flow
        self.core = core
        self.dur = dur
        self.args = args if args is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": self.ts, "kind": self.kind, "name": self.name,
            "run": self.run,
        }
        if self.flow is not None:
            out["flow"] = self.flow
        if self.core is not None:
            out["core"] = self.core
        if self.dur:
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceEvent({self.kind}:{self.name} ts={self.ts:.0f} "
                f"run={self.run} flow={self.flow})")


class TraceSink:
    """Where trace events go. Subclasses override :meth:`emit`."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; safe to call more than once."""


class NullSink(TraceSink):
    """Discards everything (the disabled-tracing sink)."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never hot
        pass


#: Module-level shared null sink; ``Tracer(None)`` and machines without a
#: tracer route here and stay off the traced path entirely.
NULL_SINK = NullSink()


class ListSink(TraceSink):
    """Collects events in memory (tests, ad-hoc analysis)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """Just the events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]


class Tracer:
    """Engine-facing hook object with sampling and an on/off guard.

    The engine reads :attr:`active` once per run and, when false, never
    calls a hook. ``packet_sample=N`` keeps one packet span in N per flow;
    ``mem_sample=M`` keeps one L3-miss event in M per flow.
    """

    def __init__(self, sink: Optional[TraceSink] = None,
                 packet_sample: int = 1, mem_sample: int = 64,
                 enabled: bool = True):
        if packet_sample < 1 or mem_sample < 1:
            raise ValueError("sampling intervals must be >= 1")
        self.sink = sink if sink is not None else NULL_SINK
        self.packet_sample = packet_sample
        self.mem_sample = mem_sample
        self.enabled = enabled
        self._run_id = -1
        self._flow_labels: List[str] = []
        self._flow_cores: List[int] = []
        self.freq_hz: Optional[float] = None

    @property
    def active(self) -> bool:
        """True when hooks should fire: enabled and a real sink attached."""
        return self.enabled and not isinstance(self.sink, NullSink)

    # -- engine hooks (called only when ``active``) -------------------------

    def begin_run(self, machine) -> int:
        """Register a machine run; emits the run metadata event."""
        self._run_id += 1
        spec = machine.spec
        self.freq_hz = spec.freq_hz
        self._flow_labels = [fr.label for fr in machine.flows]
        self._flow_cores = [fr.core for fr in machine.flows]
        self.sink.emit(TraceEvent(
            0.0, KIND_META, "run_begin", self._run_id,
            args={
                "freq_hz": spec.freq_hz,
                "scale": spec.scale,
                "seed": machine.seed,
                "flows": [
                    {"label": fr.label, "core": fr.core,
                     "socket": fr.socket, "data_domain": fr.data_domain,
                     "measured": fr.measured}
                    for fr in machine.flows
                ],
            },
        ))
        return self._run_id

    def phase(self, flow_index: int, ts: float, name: str,
              **args: Any) -> None:
        """A per-flow phase marker (``measure_begin`` / ``measure_end``)."""
        self.sink.emit(TraceEvent(
            ts, KIND_PHASE, name, self._run_id,
            flow=self._flow_labels[flow_index],
            core=self._flow_cores[flow_index], args=args,
        ))

    def packet(self, flow_index: int, start: float, end: float, seq: int,
               marks=None) -> None:
        """One completed packet span; subject to ``packet_sample``.

        ``marks`` is the per-element attribution recorded by the flow's
        pipeline during generation: ``[(element, refs, instructions), ...]``.
        """
        if seq % self.packet_sample:
            return
        args: Dict[str, Any] = {"seq": seq}
        if marks:
            args["elements"] = [list(m) for m in marks]
        self.sink.emit(TraceEvent(
            start, KIND_PACKET, "packet", self._run_id,
            flow=self._flow_labels[flow_index],
            core=self._flow_cores[flow_index],
            dur=end - start, args=args,
        ))

    def mem(self, flow_index: int, ts: float, wait: float,
            domain: int, remote: bool) -> None:
        """A sampled L3 miss: DRAM fill with MC queueing ``wait`` cycles."""
        self.sink.emit(TraceEvent(
            ts, KIND_MEM, "l3_miss", self._run_id,
            flow=self._flow_labels[flow_index],
            core=self._flow_cores[flow_index],
            args={"mc_wait": wait, "domain": domain, "remote": remote},
        ))

    def guard(self, flow_index: int, ts: float, action: str,
              **args: Any) -> None:
        """One SLO-guard event (violation, escalation rung, recovery)."""
        self.sink.emit(TraceEvent(
            ts, KIND_GUARD, action, self._run_id,
            flow=self._flow_labels[flow_index],
            core=self._flow_cores[flow_index], args=args,
        ))

    def end_run(self, end_clock: float, events: int) -> None:
        """Close the current run's stream with engine totals."""
        self.sink.emit(TraceEvent(
            end_clock, KIND_META, "run_end", self._run_id,
            args={"events": events},
        ))

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()


#: Shared inactive tracer: the default for machines built without tracing.
NULL_TRACER = Tracer(NULL_SINK, enabled=False)
