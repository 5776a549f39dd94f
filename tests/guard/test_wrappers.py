"""GuardedFlow control surface and SLO declarations (unit level)."""

from types import SimpleNamespace

import pytest

from repro import fastpath
from repro.apps.synthetic import syn_max_factory
from repro.fastpath.streams import StubFlow
from repro.guard.slo import FlowSLO, parse_slo, slo_map
from repro.guard.wrappers import GuardedFlow, guarded_factory
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec

pytestmark = pytest.mark.guard


class _InertFlow:
    name = "inert"

    def run_packet(self, ctx):
        return None


class _Ctx:
    def __init__(self):
        self.computed = []
        self.idled = []

    def compute(self, ops, refs):
        self.computed.append((ops, refs))

    def mark_idle(self, stall):
        self.idled.append(stall)


def make_guarded(adjust_every=4, gain=0.6):
    flow = GuardedFlow(_InertFlow(), adjust_every=adjust_every, gain=gain)
    fr = SimpleNamespace(counters=SimpleNamespace(l3_refs=0), clock=0.0)
    machine = SimpleNamespace(spec=SimpleNamespace(freq_hz=1e9))
    flow.attach_run(machine, fr)
    return flow, fr


def test_identity_never_aliases_the_inner_flow():
    flow = GuardedFlow(_InertFlow())
    assert flow.name == "guarded(inert)"
    assert flow.timing_pure is False
    assert flow.guard_controllable is True
    # The factory declares no signature of its own: a warm batch run
    # keys the stream by the inner factory's and wraps its skeleton.
    factory = guarded_factory(syn_max_factory())
    assert getattr(factory, "stream_signature", None) is None
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        for _ in range(2):
            machine = Machine(PlatformSpec.westmere().scaled(64))
            fr = machine.add_flow(factory, core=0)
            result = machine.run(warmup_packets=50, measure_packets=200)
    assert fr.signature == syn_max_factory().stream_signature
    assert isinstance(fr.flow, GuardedFlow)
    assert isinstance(fr.flow.inner, StubFlow)
    assert result[fr.label].packets == 200


def test_construction_validation():
    with pytest.raises(ValueError):
        GuardedFlow(_InertFlow(), adjust_every=0)
    with pytest.raises(ValueError):
        GuardedFlow(_InertFlow(), idle_stall=0)


def test_control_surface_validation():
    flow, _ = make_guarded()
    with pytest.raises(ValueError):
        flow.set_limit(0)
    with pytest.raises(ValueError):
        flow.suspend_until(-1.0)


def test_unlimited_flow_never_adjusts():
    flow, fr = make_guarded(adjust_every=1)
    ctx = _Ctx()
    for _ in range(8):
        fr.counters.l3_refs += 10
        fr.clock += 1000.0
        flow.run_packet(ctx)
    assert flow.adjustments == 0
    assert flow.extra_gap == 0.0
    assert not flow.stats()["engaged"]


def test_set_limit_resets_feedback_window():
    flow, fr = make_guarded(adjust_every=1)
    fr.counters.l3_refs = 1000
    fr.clock = 50_000.0
    flow.set_limit(1e6)
    assert flow.limit_refs_per_sec == 1e6
    assert flow.limit_changes == 1
    # The window starts at "now": history before set_limit is invisible.
    assert flow._last_refs == 1000 and flow._last_clock == 50_000.0


def test_throttle_engages_above_limit():
    flow, fr = make_guarded(adjust_every=1, gain=0.6)
    flow.set_limit(1e6)
    ctx = _Ctx()
    # 10x the limit: 10 refs / 1000 cycles at 1 GHz = 1e7 refs/s.
    fr.counters.l3_refs += 10
    fr.clock += 1000.0
    flow.run_packet(ctx)
    assert flow.adjustments == 1
    assert flow.extra_gap == pytest.approx(0.6 * 9 * 1000)
    assert flow.stats()["engaged"]
    # The accumulated gap is inserted before the next packet.
    flow.run_packet(ctx)
    gap = int(flow.extra_gap)
    assert ctx.computed[0] == (gap, max(2, gap // 2))


def test_quarantine_emits_idle_packets_only():
    flow, fr = make_guarded()
    inner_calls = []
    flow.inner.run_packet = lambda ctx: inner_calls.append(1)
    flow.suspend_until(5_000.0)
    ctx = _Ctx()
    fr.clock = 0.0
    flow.run_packet(ctx)
    assert inner_calls == []            # no work done ...
    assert ctx.idled == [flow.idle_stall]  # ... but time advances
    assert flow.idle_packets == 1
    fr.clock = 5_000.0                  # deadline reached: flow resumes
    flow.run_packet(ctx)
    assert len(inner_calls) == 1
    assert flow.suspensions == 1


def test_release_clears_every_restriction():
    flow, _ = make_guarded()
    flow.set_limit(1e6)
    flow.extra_gap = 123.0
    flow.suspend_until(9e9)
    flow.release()
    assert flow.limit_refs_per_sec is None
    assert flow.extra_gap == 0.0
    assert flow.suspended_until == 0.0


def test_finish_run_flushes_partial_window_and_forwards():
    flow, fr = make_guarded(adjust_every=1000)
    inner_finished = []
    flow.inner.finish_run = lambda: inner_finished.append(1)
    flow.set_limit(1e6)
    ctx = _Ctx()
    for _ in range(5):
        fr.counters.l3_refs += 10
        fr.clock += 1000.0
        flow.run_packet(ctx)
    assert flow.adjustments == 0        # adjust_every > packet count
    flow.finish_run()
    assert flow.adjustments == 1        # end-of-run flush engaged it
    assert inner_finished == [1]


def test_guarded_factory_wraps_the_inner_factory():
    def inner_factory(env):
        assert env == "ENV"
        return _InertFlow()

    flow = guarded_factory(inner_factory, adjust_every=7)("ENV")
    assert isinstance(flow, GuardedFlow)
    assert flow.adjust_every == 7


# -- SLO declarations ---------------------------------------------------------

def test_flow_slo_validation():
    with pytest.raises(ValueError):
        FlowSLO("", 0.1)
    with pytest.raises(ValueError):
        FlowSLO("X", 1.0)
    with pytest.raises(ValueError):
        FlowSLO("X", -0.01)
    assert FlowSLO("X", 0.0).max_drop == 0.0


def test_parse_slo():
    slo = parse_slo("IP@0=0.10")
    assert slo == FlowSLO("IP@0", 0.10)
    with pytest.raises(ValueError):
        parse_slo("IP@0")
    with pytest.raises(ValueError):
        parse_slo("=0.1")
    with pytest.raises(ValueError):
        parse_slo("IP@0=ten")


def test_slo_map_accepts_every_shape():
    want = {"A": 0.1, "B": 0.2}
    assert slo_map(want) == want
    assert slo_map([FlowSLO("A", 0.1), FlowSLO("B", 0.2)]) == want
    assert slo_map([("A", 0.1), ("B", 0.2)]) == want
    with pytest.raises(ValueError):
        slo_map([("A", 2.0)])
