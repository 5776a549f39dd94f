"""Chrome ``trace_event`` export.

Converts the structured event stream into the Trace Event Format consumed
by ``about:tracing`` and Perfetto: one *process* per machine run, one
*thread* per core, packet spans as complete ("X") events with nested
per-element child spans, phase markers and sampled memory events as
instants. Timestamps are converted from simulated cycles to microseconds
using the frequency carried by the ``run_begin`` metadata event.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

from .trace import (
    KIND_MEM,
    KIND_META,
    KIND_PACKET,
    KIND_PHASE,
    TraceEvent,
    TraceSink,
)


class ChromeTraceSink(TraceSink):
    """Buffers events and writes a ``trace_event`` JSON file on close."""

    def __init__(self, path_or_file: Union[str, IO[str]]):
        self._target = path_or_file
        if isinstance(path_or_file, str):
            # Probe writability up front: the file is only written on
            # close, and a bad path must not surface after a long run.
            with open(path_or_file, "a"):
                pass
        self._events: List[TraceEvent] = []
        self.written = False

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def close(self) -> None:
        if self.written:
            return
        payload = to_chrome_trace(self._events)
        if isinstance(self._target, str):
            with open(self._target, "w") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, self._target)
        self.written = True


def _us(cycles: float, freq_hz: float) -> float:
    return cycles / freq_hz * 1e6


def to_chrome_trace(events: List[TraceEvent]) -> Dict[str, Any]:
    """The Trace Event Format document for a structured event stream."""
    out: List[Dict[str, Any]] = []
    freq_by_run: Dict[int, float] = {}
    for event in events:
        run = event.run
        if event.kind == KIND_META and event.name == "run_begin":
            freq_by_run[run] = float(event.args.get("freq_hz", 1e9))
            flows = event.args.get("flows", [])
            labels = ", ".join(f["label"] for f in flows) or "machine"
            out.append({
                "ph": "M", "name": "process_name", "pid": run, "tid": 0,
                "args": {"name": f"run {run}: {labels}"},
            })
            for flow in flows:
                out.append({
                    "ph": "M", "name": "thread_name", "pid": run,
                    "tid": flow["core"],
                    "args": {"name": f"core {flow['core']}: {flow['label']}"},
                })
            continue
        freq = freq_by_run.get(run, 1e9)
        ts = _us(event.ts, freq)
        tid = event.core if event.core is not None else 0
        if event.kind == KIND_PACKET:
            dur = _us(event.dur, freq)
            out.append({
                "ph": "X", "name": "packet", "cat": "packet",
                "pid": run, "tid": tid, "ts": ts, "dur": dur,
                "args": {"seq": event.args.get("seq"), "flow": event.flow},
            })
            out.extend(_element_spans(event, run, tid, ts, dur))
        elif event.kind == KIND_PHASE:
            out.append({
                "ph": "i", "s": "t", "name": event.name, "cat": "phase",
                "pid": run, "tid": tid, "ts": ts,
                "args": dict(event.args, flow=event.flow),
            })
        elif event.kind == KIND_MEM:
            out.append({
                "ph": "i", "s": "t", "name": event.name, "cat": "mem",
                "pid": run, "tid": tid, "ts": ts,
                "args": dict(event.args, flow=event.flow),
            })
        else:  # run_end and any future metadata
            out.append({
                "ph": "i", "s": "g", "name": event.name, "cat": "meta",
                "pid": run, "tid": tid, "ts": ts, "args": dict(event.args),
            })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def _element_spans(event: TraceEvent, run: int, tid: int, ts: float,
                   dur: float) -> List[Dict[str, Any]]:
    """Child spans subdividing a packet by per-element attribution.

    The engine times whole packets (element boundaries have no cycle
    timestamps of their own), so each element's share of the span is
    apportioned by its recorded work: references weighted against the
    packet total, with every element getting a minimum share for its
    instruction stream.
    """
    marks = event.args.get("elements")
    if not marks or dur <= 0:
        return []
    weights = [refs + 1.0 for _, refs, _ in marks]
    total = sum(weights)
    spans: List[Dict[str, Any]] = []
    cursor = ts
    for (name, refs, instructions), weight in zip(marks, weights):
        share = dur * weight / total
        spans.append({
            "ph": "X", "name": name, "cat": "element",
            "pid": run, "tid": tid, "ts": cursor, "dur": share,
            "args": {"refs": refs, "instructions": instructions},
        })
        cursor += share
    return spans
