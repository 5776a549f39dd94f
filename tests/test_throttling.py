"""Aggressiveness containment: throttled and two-faced flows."""

import pytest

from repro import fastpath
from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.core.throttling import ThrottledFlow, TwoFacedFlow, throttled_factory
from repro.fastpath.streams import StubFlow
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec


def spec():
    return PlatformSpec.westmere().scaled(64)


def syn_refs_per_sec(factory, packets=600):
    m = Machine(spec())
    m.add_flow(factory, core=0, label="f")
    return m.run(warmup_packets=100, measure_packets=packets)["f"]


def test_throttle_bounds_refs_per_sec():
    baseline = syn_refs_per_sec(syn_max_factory()).l3_refs_per_sec
    target = baseline / 3
    stats = syn_refs_per_sec(
        throttled_factory(syn_max_factory(), target_refs_per_sec=target,
                          adjust_every=16)
    )
    assert stats.l3_refs_per_sec < target * 1.25
    assert stats.l3_refs_per_sec < baseline / 2


def test_throttle_leaves_slow_flows_alone():
    gentle = syn_factory(cpu_ops_per_ref=400)
    baseline = syn_refs_per_sec(gentle).l3_refs_per_sec
    stats = syn_refs_per_sec(
        throttled_factory(gentle, target_refs_per_sec=baseline * 10)
    )
    assert stats.l3_refs_per_sec == pytest.approx(baseline, rel=0.15)


def test_throttled_flow_validation():
    with pytest.raises(ValueError):
        ThrottledFlow(object(), target_refs_per_sec=0)
    with pytest.raises(ValueError):
        ThrottledFlow(object(), target_refs_per_sec=1e6, adjust_every=0)


def test_two_faced_flow_switches_behaviour():
    m = Machine(spec())

    def factory(env):
        return TwoFacedFlow(
            innocent=syn_factory(cpu_ops_per_ref=600)(env),
            aggressive=syn_max_factory()(env),
            trigger_packets=200,
        )

    m.add_flow(factory, core=0, label="tf")
    stats = m.run(warmup_packets=400, measure_packets=400)["tf"]
    flow = m.flows[0].flow
    assert flow.triggered
    # Post-trigger (the measured window) it behaves like SYN_MAX: no gaps.
    aggressive_rate = stats.l3_refs_per_sec
    baseline = syn_refs_per_sec(syn_factory(cpu_ops_per_ref=600)).l3_refs_per_sec
    assert aggressive_rate > 2 * baseline


def test_two_faced_flow_contained_by_throttle():
    innocent_rate = syn_refs_per_sec(
        syn_factory(cpu_ops_per_ref=600)
    ).l3_refs_per_sec

    def factory(env):
        two_faced = TwoFacedFlow(
            innocent=syn_factory(cpu_ops_per_ref=600)(env),
            aggressive=syn_max_factory()(env),
            trigger_packets=150,
        )
        return ThrottledFlow(two_faced, target_refs_per_sec=innocent_rate,
                             adjust_every=16, gain=1.0)

    m = Machine(spec())
    m.add_flow(factory, core=0, label="contained")
    stats = m.run(warmup_packets=600, measure_packets=600)["contained"]
    # The paper's claim: the flow "performs no more than the profiled
    # number of cache refs/sec" (small control overshoot allowed).
    assert stats.l3_refs_per_sec < innocent_rate * 1.3


def test_two_faced_validation():
    with pytest.raises(ValueError):
        TwoFacedFlow(object(), object(), trigger_packets=-1)


# -- throttle-loop boundary behaviour (unit level) ----------------------------

class _InertFlow:
    name = "inert"

    def run_packet(self, ctx):
        return None


class _Ctx:
    def __init__(self):
        self.computed = []

    def compute(self, ops, refs):
        self.computed.append((ops, refs))


class _Counting:
    def __init__(self, name):
        self.name = name
        self.calls = 0

    def run_packet(self, ctx):
        self.calls += 1


def make_throttle(adjust_every=4, gain=0.6, target=1e6):
    from types import SimpleNamespace

    flow = ThrottledFlow(_InertFlow(), target_refs_per_sec=target,
                         adjust_every=adjust_every, gain=gain)
    fr = SimpleNamespace(counters=SimpleNamespace(l3_refs=0), clock=0.0)
    machine = SimpleNamespace(spec=SimpleNamespace(freq_hz=1e9))
    flow.attach_run(machine, fr)
    return flow, fr


def test_adjust_fires_only_on_period_boundaries():
    flow, fr = make_throttle(adjust_every=4)
    ctx = _Ctx()
    for i in range(1, 9):
        fr.counters.l3_refs += 10
        fr.clock += 1000.0
        flow.run_packet(ctx)
        assert flow.adjustments == i // 4


def test_adjust_without_clock_progress_is_a_no_op():
    flow, _ = make_throttle(adjust_every=1)
    flow.run_packet(_Ctx())  # d_clock == 0: feedback loop must not divide
    assert flow.adjustments == 0
    assert flow.extra_gap == 0.0


def test_extra_gap_never_negative():
    flow, fr = make_throttle(adjust_every=1)
    flow.extra_gap = 5.0
    ctx = _Ctx()
    for _ in range(50):
        fr.clock += 1000.0  # time passes, zero refs: far under target
        flow.run_packet(ctx)
        assert flow.extra_gap >= 0.0
    assert flow.extra_gap == 0.0


def test_fractional_gap_below_one_cycle_is_not_applied():
    flow, _ = make_throttle()
    ctx = _Ctx()
    flow.extra_gap = 0.9
    flow.run_packet(ctx)
    assert ctx.computed == []
    flow.extra_gap = 2.0
    flow.run_packet(ctx)
    assert ctx.computed == [(2, 2)]


def test_over_target_growth_and_quarter_gain_shrink():
    flow, fr = make_throttle(adjust_every=1, gain=0.6, target=1e6)
    ctx = _Ctx()
    # One interval at 10x the target rate: error = 9, 1000 cycles/packet.
    fr.counters.l3_refs += 10
    fr.clock += 1000.0
    flow.run_packet(ctx)
    assert flow.extra_gap == pytest.approx(0.6 * 9 * 1000)
    # One idle interval (rate 0, error = -1) shrinks at a quarter gain.
    before = flow.extra_gap
    fr.clock += 1000.0
    flow.run_packet(ctx)
    assert flow.extra_gap == pytest.approx(before - 0.25 * 0.6 * 1000)


def test_finish_run_flushes_partial_window():
    # adjust_every larger than the packets actually run: the periodic
    # loop never fires, so the end-of-run flush must engage it instead.
    flow, fr = make_throttle(adjust_every=1000, gain=0.6, target=1e6)
    ctx = _Ctx()
    for _ in range(5):
        fr.counters.l3_refs += 10
        fr.clock += 1000.0
        flow.run_packet(ctx)
    assert flow.adjustments == 0
    flow.finish_run()
    assert flow.adjustments == 1
    # Same arithmetic as the periodic loop, over the 5-packet window:
    # rate 1e7 refs/s vs target 1e6 -> error 9, 1000 cycles/packet.
    assert flow.extra_gap == pytest.approx(0.6 * 9 * 1000)


def test_finish_run_without_packets_is_a_no_op():
    flow, _ = make_throttle(adjust_every=1000)
    flow.finish_run()
    assert flow.adjustments == 0
    stats = flow.stats()
    assert stats["packets"] == 0
    assert stats["engaged"] is False


def test_finish_run_is_flush_once():
    flow, fr = make_throttle(adjust_every=1000)
    fr.counters.l3_refs += 10
    fr.clock += 1000.0
    flow.run_packet(_Ctx())
    flow.finish_run()
    adjustments = flow.adjustments
    flow.finish_run()  # no new packets since the flush: nothing to do
    assert flow.adjustments == adjustments


def test_finish_run_forwards_to_inner():
    calls = []

    class _FinishingInner(_InertFlow):
        def finish_run(self):
            calls.append(1)

    flow = ThrottledFlow(_FinishingInner(), target_refs_per_sec=1e6)
    flow.finish_run()
    assert calls == [1]


def test_stats_surface_dead_and_live_loops():
    flow, fr = make_throttle(adjust_every=4)
    ctx = _Ctx()
    assert flow.stats()["engaged"] is False
    for _ in range(4):
        fr.counters.l3_refs += 10
        fr.clock += 1000.0
        flow.run_packet(ctx)
    stats = flow.stats()
    assert stats["engaged"] is True
    assert stats["adjustments"] == 1
    assert stats["packets"] == 4
    assert stats["target_refs_per_sec"] == 1e6


def test_periodic_and_flush_paths_share_arithmetic():
    # A full periodic window and an equal-sized flushed window must
    # produce bit-identical gaps (the flush is the same _adjust call).
    periodic, fr_p = make_throttle(adjust_every=4)
    flushed, fr_f = make_throttle(adjust_every=1000)
    ctx = _Ctx()
    for fr, flow in ((fr_p, periodic), (fr_f, flushed)):
        for _ in range(4):
            fr.counters.l3_refs += 10
            fr.clock += 1000.0
            flow.run_packet(ctx)
    flushed.finish_run()
    assert flushed.extra_gap == periodic.extra_gap


def test_throttled_flow_is_never_stream_cached():
    # The wrapper's factory declares no signature: add_flow keys the
    # stream by the inner factory's and wraps the throttle around a
    # skeleton of the inner flow, so a warm run still throttles.
    assert ThrottledFlow(_InertFlow(), 1e6).timing_pure is False
    baseline = syn_refs_per_sec(syn_max_factory()).l3_refs_per_sec
    factory = throttled_factory(syn_max_factory(),
                                target_refs_per_sec=baseline / 3,
                                adjust_every=16)
    assert getattr(factory, "stream_signature", None) is None
    fastpath.clear_stream_cache()
    runs = []
    with fastpath.use_engine("batch"):
        for _ in range(2):
            m = Machine(spec())
            fr = m.add_flow(factory, core=0, label="f")
            runs.append((fr, m.run(warmup_packets=100,
                                   measure_packets=600)["f"]))
    (_, cold), (warm_fr, warm) = runs
    assert warm_fr.signature == syn_max_factory().stream_signature
    assert isinstance(warm_fr.flow, ThrottledFlow)
    assert isinstance(warm_fr.flow.inner, StubFlow)
    assert warm_fr.flow.adjustments > 0
    assert warm.l3_refs_per_sec == cold.l3_refs_per_sec
    assert warm.l3_refs_per_sec < baseline / 2


def test_two_faced_trigger_boundary_exact():
    innocent, aggressive = _Counting("i"), _Counting("a")
    flow = TwoFacedFlow(innocent, aggressive, trigger_packets=3)
    for _ in range(5):
        flow.run_packet(None)
    # Packets 1..3 run the innocent persona; the switch lands on packet 4.
    assert (innocent.calls, aggressive.calls) == (3, 2)
    assert flow.triggered


def test_two_faced_zero_trigger_is_aggressive_from_first_packet():
    innocent, aggressive = _Counting("i"), _Counting("a")
    flow = TwoFacedFlow(innocent, aggressive, trigger_packets=0)
    flow.run_packet(None)
    assert (innocent.calls, aggressive.calls) == (0, 1)
