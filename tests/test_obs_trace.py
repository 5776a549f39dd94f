"""Trace layer: sink plumbing, event ordering, phase markers, sampling."""

import pytest

from repro.apps.registry import app_factory
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.obs import (
    KIND_MEM,
    KIND_META,
    KIND_PACKET,
    KIND_PHASE,
    NULL_TRACER,
    ListSink,
    Tracer,
    observe,
)

WARM, MEAS = 200, 300


def _spec():
    return PlatformSpec.westmere().scaled(64).single_socket()


def _traced_run(tracer, n_flows=2):
    machine = Machine(_spec(), seed=7, tracer=tracer)
    machine.add_flow(app_factory("MON"), core=0)
    for core in range(1, n_flows):
        machine.add_flow(app_factory("IP"), core=core)
    result = machine.run(warmup_packets=WARM, measure_packets=MEAS)
    return result


def test_events_are_time_ordered_per_flow():
    sink = ListSink()
    _traced_run(Tracer(sink))
    for label in ("MON@0", "IP@1"):
        stamps = [e.ts for e in sink.events
                  if e.flow == label and e.kind == KIND_PACKET]
        assert len(stamps) > MEAS  # warm-up packets are traced too
        assert stamps == sorted(stamps)


def test_run_begin_comes_first_and_carries_platform_meta():
    sink = ListSink()
    _traced_run(Tracer(sink))
    first = sink.events[0]
    assert first.kind == KIND_META
    assert first.name == "run_begin"
    assert first.args["freq_hz"] > 0
    assert len(first.args["flows"]) == 2


def test_phase_markers_bracket_the_measurement_window():
    sink = ListSink()
    _traced_run(Tracer(sink))
    for label in ("MON@0", "IP@1"):
        phases = [e for e in sink.events
                  if e.kind == KIND_PHASE and e.flow == label]
        names = [e.name for e in phases]
        assert names == ["measure_begin", "measure_end"]
        begin, end = phases
        assert begin.ts < end.ts
        # Exactly the measured packets happen between the markers (the
        # per-flow window size comes from the markers themselves: flows
        # scale their packet targets by ``measure_weight``).
        window = end.args["packets"] - begin.args["packets"]
        assert window > 0
        measured = [e for e in sink.events
                    if e.kind == KIND_PACKET and e.flow == label
                    and e.ts >= begin.ts and e.ts + e.dur <= end.ts]
        assert len(measured) == pytest.approx(window, abs=2)


def test_packet_spans_carry_element_attribution():
    sink = ListSink()
    _traced_run(Tracer(sink))
    packet = next(e for e in sink.events if e.kind == KIND_PACKET)
    elements = packet.args["elements"]
    names = [name for name, _, _ in elements]
    assert names[0] == "FromDevice"
    assert names[-1] == "ToDevice"
    assert sum(refs for _, refs, _ in elements) >= 0
    assert all(instr >= 0 for _, _, instr in elements)


def test_packet_sampling_reduces_volume():
    dense, sparse = ListSink(), ListSink()
    _traced_run(Tracer(dense))
    _traced_run(Tracer(sparse, packet_sample=8))
    n_dense = len(dense.by_kind(KIND_PACKET))
    n_sparse = len(sparse.by_kind(KIND_PACKET))
    assert n_sparse < n_dense / 4
    assert n_sparse > 0


def test_mem_events_are_sampled_and_tagged():
    sink = ListSink()
    _traced_run(Tracer(sink, mem_sample=8))
    mem = sink.by_kind(KIND_MEM)
    assert mem  # the scaled MON/IP pair misses often enough
    for event in mem:
        assert event.args["mc_wait"] >= 0
        assert event.args["domain"] == 0  # single-socket platform
        assert event.args["remote"] is False


def test_null_tracer_is_inactive():
    assert not NULL_TRACER.active
    # The engine takes the untraced path: no error, no events.
    result = _traced_run(NULL_TRACER)
    assert result["MON@0"].packets > 0


def test_observe_session_attaches_ambient_tracer():
    sink = ListSink()
    with observe(tracer=Tracer(sink)):
        machine = Machine(_spec(), seed=7)
        machine.add_flow(app_factory("IP"), core=0)
        machine.run(warmup_packets=WARM, measure_packets=MEAS)
    assert sink.by_kind(KIND_PACKET)
    # Outside the session, machines are untraced again.
    n = len(sink.events)
    machine = Machine(_spec(), seed=7)
    machine.add_flow(app_factory("IP"), core=0)
    machine.run(warmup_packets=WARM, measure_packets=MEAS)
    assert len(sink.events) == n
