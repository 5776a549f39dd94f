"""Unit tests of the runtime invariant engine itself.

Two obligations: the checker must stay *silent* on healthy runs (both
engines, with and without a metrics sampler observing the same run),
and it must *fire* — on the right invariant — when machine state is
corrupted. A checker is only trustworthy when both directions hold.
"""

from __future__ import annotations

import pytest

from repro.check.invariants import (InvariantChecker,
                                    InvariantViolationError, Violation)
from repro.check.scenarios import FlowConf, ScenarioConfig
from repro.hw.counters import CoreCounters
from repro.obs.metrics import MetricsSampler

pytestmark = pytest.mark.check

CONFIG = ScenarioConfig(
    seed=424242, scale=64, sockets=1, warmup=20, measure=80,
    flows=(FlowConf("app", 0, app="IP"),
           FlowConf("app", 2, app="MON"),
           FlowConf("syn", 4, cpu_ops=60)),
    name="unit")

TWO_SOCKET = ScenarioConfig(
    seed=99, scale=64, sockets=2, warmup=10, measure=60,
    flows=(FlowConf("app", 0, app="FW"),
           FlowConf("app", 7, app="RE", data_domain=0)),
    name="unit-numa")


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("config", [CONFIG, TWO_SOCKET],
                         ids=["local", "numa"])
def test_clean_runs_pass_strict(engine, config):
    checker = InvariantChecker(strict=True, interval_cycles=20_000.0)
    config.run(engine=engine, checker=checker)
    assert checker.ok
    assert checker.runs_checked == 1
    assert checker.windows_checked > 0


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_probe_is_transparent_to_metrics_sampling(engine):
    """A checker beside a sampler must not change the sampler's payload."""
    interval = 50_000.0

    machine = CONFIG.build(metrics=MetricsSampler(interval_cycles=interval))
    result = machine.run(warmup_packets=CONFIG.warmup,
                         measure_packets=CONFIG.measure, engine=engine)
    plain = result.metrics.payload()

    checker = InvariantChecker(strict=True)
    machine = CONFIG.build(metrics=MetricsSampler(interval_cycles=interval),
                           checker=checker)
    result = machine.run(warmup_packets=CONFIG.warmup,
                         measure_packets=CONFIG.measure, engine=engine)
    # The machine keeps, and RunResult carries, the real sampler.
    assert isinstance(result.metrics, MetricsSampler)
    assert result.metrics is machine.metrics
    assert result.metrics.payload() == plain
    assert checker.ok and checker.windows_checked > 0


def test_cache_validate_catches_planted_corruption():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar")
    cache = machine.l3[0]
    # Duplicate residency: copy a resident line into another set.
    donor = next(s for s in cache.sets if s)
    line = next(iter(donor))
    victim_idx = (line + 1) % cache.n_sets
    cache.sets[victim_idx][line] = None
    checker.check_caches(machine)
    assert any(v.invariant == "cache-structure" for v in checker.violations)


def test_cache_validate_catches_overflowed_set():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar")
    cache = machine.l3[0]
    donor = next(i for i, s in enumerate(cache.sets) if s)
    # Blow past the associativity with correctly-indexed lines.
    base = next(iter(cache.sets[donor]))
    cache.sets[donor].update(dict.fromkeys(
        base + cache.n_sets * (k + 1) for k in range(cache.ways + 1)))
    checker.check_caches(machine)
    assert any(v.invariant == "cache-structure" and "ways" in v.detail
               for v in checker.violations)


def test_check_counters_flags_broken_conservation():
    checker = InvariantChecker()
    c = CoreCounters()
    c.l3_refs = 10
    c.l3_hits = 7
    c.l3_misses = 2  # 7 + 2 != 10
    c.tag_refs[0] = 10
    c.tag_hits[0] = 7
    checker.check_counters(c, "unit")
    assert [v.invariant for v in checker.violations] == ["l3-conservation"]


def test_check_counters_flags_negative_and_remote_bound():
    checker = InvariantChecker()
    c = CoreCounters()
    c.l1_hits = -1
    c.remote_refs = 3  # > l3_misses == 0
    checker.check_counters(c, "unit")
    names = {v.invariant for v in checker.violations}
    assert "counter-sign" in names
    assert "remote-refs-bound" in names


def test_clock_accounting_detects_shifted_clock():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    fr = machine.flows[0]
    fr.clock += machine.spec.lat_l1  # one unaccounted L1 hit
    checker.check_machine(machine, result)
    assert any(v.invariant == "clock-accounting"
               for v in checker.violations)


def test_event_conservation_detects_tampered_events():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    result.events += 5
    checker.check_machine(machine, result)
    assert any(v.invariant == "event-conservation"
               for v in checker.violations)


def test_strict_mode_raises_with_context_label():
    checker = InvariantChecker(strict=True)
    checker.context = "unit/scalar"
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    fr = machine.flows[0]
    fr.counters.l3_hits += 1
    with pytest.raises(InvariantViolationError) as excinfo:
        checker.after_run(machine, result)
    assert "unit/scalar" in str(excinfo.value)
    assert excinfo.value.violations


MIXED = ScenarioConfig(
    seed=777, scale=64, sockets=1, warmup=10, measure=60,
    flows=(FlowConf("shared", 0, apps=("IP", "MON")),
           FlowConf("throttled", 2, app="RE", rate=2.0e7),
           FlowConf("twofaced", 4, app="FW", trigger=40)),
    name="mixed")


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_wrapper_flow_protocols_pass_clean(engine):
    # Shared-core turns, throttled gaps, and two-faced triggers all have
    # protocol invariants of their own; a healthy run satisfies them.
    checker = InvariantChecker(strict=True)
    MIXED.run(engine=engine, checker=checker)
    assert checker.ok


def test_flow_protocol_detects_tampered_turns():
    checker = InvariantChecker()
    machine, result = MIXED.run(engine="scalar", checker=checker)
    assert checker.ok
    shared = machine.flows[0].flow
    shared.turns[0] += 5  # round-robin spread AND conservation break
    checker.check_flow_protocol(machine.flows[0])
    names = {v.invariant for v in checker.violations}
    assert "turns-round-robin" in names
    assert "turns-conservation" in names


def test_flow_protocol_detects_tampered_trigger_state():
    checker = InvariantChecker()
    machine, result = MIXED.run(engine="scalar", checker=checker)
    assert checker.ok
    twofaced = machine.flows[2].flow
    twofaced.triggered = not twofaced.triggered
    checker.check_flow_protocol(machine.flows[2])
    assert any(v.invariant == "trigger-state" for v in checker.violations)


def test_flow_protocol_detects_forwarded_leak():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    flow = machine.flows[0].flow
    flow.forwarded -= 3
    checker.check_flow_protocol(machine.flows[0])
    assert any(v.invariant == "packet-conservation"
               for v in checker.violations)


def test_remote_clock_bounds_fire_both_ways():
    machine, result = TWO_SOCKET.run(engine="scalar")
    spec = machine.spec
    fr = next(f for f in machine.flows if f.counters.remote_refs > 0)
    c = fr.counters

    checker = InvariantChecker()
    checker._check_clock_accounting(spec, 1.0, c, fr.label)  # below floor
    assert any("below remote-access floor" in v.detail
               for v in checker.violations)

    checker = InvariantChecker()
    # gap_cycles alone already exceeds a clock of 1.0 — but use a clock
    # smaller than the local components to hit the other bound.
    local_only = (c.gap_cycles + c.l1_hits * spec.lat_l1
                  + c.l2_hits * spec.lat_l2 + c.l3_hits * spec.lat_l3
                  + c.l3_misses * (spec.lat_l3 + spec.lat_dram_extra)
                  + c.mc_wait_cycles)
    huge = local_only * 10 + 1e9
    checker._check_clock_accounting(spec, huge, c, fr.label)
    assert checker.ok  # far above the floor is fine (QPI waits unbounded)


def test_window_checks_catch_backwards_clock_and_counters():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    fr = machine.flows[0]
    c = fr.counters
    checker.begin(machine)
    checker.check_window(machine, 0, fr.clock, c)
    # Clock going backwards between boundaries.
    checker.check_window(machine, 0, fr.clock - 10.0, c)
    assert any(v.invariant == "clock-monotone" for v in checker.violations)
    # A counter decreasing between boundaries.
    checker.violations.clear()
    c.l1_hits -= 1
    checker.check_window(machine, 0, fr.clock, c)
    assert any(v.invariant == "counter-monotone"
               for v in checker.violations)


def test_occupancy_partition_detects_overlapping_regions():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    # Graft one flow's first region onto another flow: the partition
    # audit must flag the overlap.
    donor = machine.flows[0].regions[0]
    machine.flows[1].regions.append(donor)
    checker.check_occupancy_partition(machine)
    assert any(v.invariant == "region-overlap" for v in checker.violations)


def test_check_machine_flags_tampered_measured_window():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    label = result.flow_labels[0]
    d = result[label].counts
    # Claim more L3 hits than the window's cycles could possibly hold.
    extra = int(d.cycles / machine.spec.lat_l3) + 1000
    d.l3_hits += extra
    d.l3_refs += extra
    d.tag_refs[0] += extra
    d.tag_hits[0] += extra
    checker.check_machine(machine, result)
    names = {v.invariant for v in checker.violations}
    assert "window-cycle-floor" in names
    assert "refs-rate-bound" in names


def test_check_machine_flags_negative_window_span():
    checker = InvariantChecker()
    machine, result = CONFIG.run(engine="scalar", checker=checker)
    assert checker.ok
    fr = machine.flows[0]
    fr.snap_start, fr.snap_end = fr.snap_end, fr.snap_start
    fr.clock = -1.0
    checker.check_machine(machine, result)
    names = {v.invariant for v in checker.violations}
    assert "window-monotone" in names
    assert "clock-monotone" in names


def test_violation_str_includes_clock():
    v = Violation("x-check", "flow", "broke", phase="window", clock=12.5)
    assert "x-check" in str(v)
    assert "@clock=12.5" in str(v)


def test_checker_rejects_bad_interval():
    with pytest.raises(ValueError):
        InvariantChecker(interval_cycles=0.0)


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_flow_protocol_sees_through_guard_and_throttle(engine):
    # Packet conservation is checked on the flow a GuardedFlow wraps,
    # through a ThrottledFlow too, and guard state on every layer.
    from repro.guard.fuzz import run_guarded_scenario

    config = ScenarioConfig(
        seed=424242, scale=64, sockets=1, warmup=20, measure=80,
        flows=(FlowConf("app", 0, app="IP"),
               FlowConf("throttled", 2, app="MON", rate=2.0e7)),
        name="unit-guarded")
    checker = InvariantChecker()
    machine, _, _ = run_guarded_scenario(config, engine=engine, slos={},
                                         checker=checker)
    assert checker.ok
    ip = machine.flows[0].flow.inner
    ip.dropped += 2
    checker.check_flow_protocol(machine.flows[0])
    assert [v.invariant for v in checker.violations] == [
        "packet-conservation"]
    throttle = machine.flows[1].flow.inner
    assert throttle.timing_only and throttle.inner.forwarded > 0
    throttle.extra_gap = -1.0
    checker.check_flow_protocol(machine.flows[1])
    assert checker.violations[-1].invariant == "guard-state"
