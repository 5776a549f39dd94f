"""Differential suite: guarded and throttled flows on the replay path.

A throttle or guard wrapper changes only its inner flow's timing, so the
batch engine replays the inner flow's stream and runs the wrapper's
control decisions at packet boundaries (:mod:`repro.fastpath.engine`).
Every case here runs three ways — scalar, batch on a cold stream cache,
batch on a warm one (built under the batch engine, so wrapped inner
flows are construction-free skeletons) — and must match field-exactly
under :func:`~repro.fastpath.diff.compare_results`, which includes each
wrapper's control statistics and the inner flow's state, with equal
control event streams and a clean invariant checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

import repro.fastpath as fastpath
from repro.apps.registry import app_factory
from repro.apps.synthetic import syn_max_factory
from repro.apps.ipforward import DecIPTTL, RadixIPLookup
from repro.check.invariants import InvariantChecker
from repro.check.scenarios import generate_one
from repro.click.elements.checkipheader import CheckIPHeader
from repro.click.handoff import build_pipelined_flow
from repro.click.multiflow import shared_core_factory
from repro.core.throttling import throttled_factory, two_faced_factory
from repro.fastpath.diff import compare_results
from repro.fastpath.engine import run_batch
from repro.fastpath.streams import STREAM_CACHE, StubFlow
from repro.guard.fuzz import run_guarded_scenario
from repro.guard.supervisor import GuardConfig, SLOGuard
from repro.guard.wrappers import guarded_factory
from repro.hw.machine import Machine, flow_layers
from repro.hw.topology import PlatformSpec
from repro.net.flowgen import UniformRandomTraffic


def _limit(flow, refs_per_sec):
    """Throttle ``flow`` as the guard's tighten rung does."""
    flow.rung = 2
    flow.set_limit(refs_per_sec)


class Script:
    """An observer steering wrapper flows at fixed windows.

    ``actions`` maps ``(flow index, n)`` to ``action(machine, clock)``,
    run at that flow's ``n``-th window; each run is logged in ``events``.
    """

    interval_cycles = 20_000.0

    def __init__(self, actions):
        self.actions = actions
        self.events = []

    def begin(self, machine) -> None:
        self.machine = machine
        self.seen = [0] * len(machine.flows)

    def window(self, i, clock, counters) -> None:
        self.seen[i] += 1
        action = self.actions.get((i, self.seen[i]))
        if action is not None:
            self.events.append((i, clock, action.__name__,
                                action(self.machine, clock)))

    def after_run(self, machine, result) -> None:
        pass


SPEC = PlatformSpec.westmere().scaled(64).single_socket()
SEED = 2024

#: A guard that walks its ladder within a few windows.
FAST_LADDER = GuardConfig(interval_cycles=20_000.0, backoff_cycles=20_000.0,
                          quarantine_cycles=100_000.0, max_tightenings=1)


@dataclass
class Case:
    name: str
    build: Callable            # build(machine): add the flows
    steer: Callable            # steer(): a fresh Script or SLOGuard
    engaged: Callable          # engaged(machine): the scalar run did control
    #: Labels of flows the warm batch run may construct.
    built: Tuple[str, ...] = ()
    warmup: int = 30
    measure: int = 400


# -- flows --------------------------------------------------------------------

class _Sparse:
    """A timing-pure flow whose every third packet makes no reference."""

    timing_pure = True
    name = "sparse"

    def __init__(self, env):
        region = env.space.domain(env.domain).alloc(1 << 18, "sparse")
        self.base = region.base >> 6
        self.n = 0

    def run_packet(self, ctx):
        self.n += 1
        if self.n % 3 == 0:
            ctx.compute(300, 120)
        else:
            ctx.record((40, 12), [self.base + (self.n * 37) % 4096,
                                  self.base + (self.n * 101) % 4096])
            ctx.compute(25, 8)
        return None


def sparse_factory(env):
    return _Sparse(env)


sparse_factory.stream_signature = ("sparse",)


def _ip_two_faced():
    """IP that turns into SYN_MAX after 40 packets."""
    return two_faced_factory(app_factory("IP"), syn_max_factory(), 40)


# -- cases --------------------------------------------------------------------

def _stacked(machine):
    machine.add_flow(guarded_factory(throttled_factory(
        app_factory("MON"), 1.2e7, adjust_every=8)), core=0)
    machine.add_flow(guarded_factory(syn_max_factory()), core=1)
    machine.add_flow(guarded_factory(app_factory("IP")), core=2)


def _stacked_steer():
    def tighten(machine, clock):
        _limit(machine.flows[0].flow, 6e6)
        return machine.flows[0].counters.l3_refs

    def relax(machine, clock):
        _limit(machine.flows[0].flow, 2.4e7)
        return machine.flows[0].counters.l3_refs

    return Script({(2, 4): tighten, (1, 15): relax})


def _stacked_engaged(machine):
    guard = machine.flows[0].flow
    return guard.adjustments > 0 and guard.inner.adjustments > 0


def _quarantine(machine):
    machine.add_flow(guarded_factory(app_factory("IP")), core=0)
    machine.add_flow(guarded_factory(app_factory("MON")), core=1)


def _quarantine_steer():
    def quarantine(machine, clock):
        machine.flows[1].flow.suspend_until(clock + 60_000.0)
        return machine.flows[1].counters.packets

    return Script({(0, 5): quarantine})


def _quarantine_engaged(machine):
    target = machine.flows[1].flow
    return target.idle_packets > 0 and target.suspensions == 1


def _trailing(machine):
    machine.add_flow(guarded_factory(throttled_factory(
        sparse_factory, 2e6, adjust_every=4)), core=0)
    machine.add_flow(guarded_factory(app_factory("IP")), core=1)


def _trailing_engaged(machine):
    return machine.flows[0].flow.inner.stats()["extra_gap"] >= 1.0


def _two_faced(machine):
    machine.add_flow(guarded_factory(app_factory("MON")), core=0)
    for core in (1, 2, 3, 4):
        machine.add_flow(guarded_factory(_ip_two_faced()),
                         core=core, measured=False)


def _solo_guard(factory, label):
    """An SLOGuard over ``label`` with its solo run as the baseline."""
    machine = Machine(SPEC, seed=SEED)
    machine.add_flow(factory, core=0)
    stats = machine.run(warmup_packets=30, measure_packets=300,
                        engine="scalar")[machine.flows[0].label]
    return SLOGuard(
        slos={label: 0.05}, config=FAST_LADDER,
        baselines={label: (stats.packets_per_sec, stats.l3_refs_per_sec)})


def _two_faced_steer():
    return _solo_guard(app_factory("MON"), "guarded(MON)@0")


def _guard_acted(machine):
    return any(getattr(fr.flow, "limit_changes", 0) for fr in machine.flows)


def _mix():
    return shared_core_factory([app_factory("IP"), app_factory("MON")],
                               name="mix-IP-MON")


def _shared(machine):
    machine.add_flow(guarded_factory(_mix()), core=0)
    for core in (1, 2, 3):
        machine.add_flow(guarded_factory(_ip_two_faced()),
                         core=core, measured=False)


def _shared_steer():
    return _solo_guard(_mix(), "guarded(mix-IP-MON)@0")


def _pipeline(machine):
    machine.add_flow(guarded_factory(app_factory("IP")), core=0)

    class Guarding:
        """Adds every pipeline stage wrapped in a GuardedFlow."""

        def add_flow(self, factory, **kwargs):
            return machine.add_flow(guarded_factory(factory), **kwargs)

    def init_all(env, elements):
        for element in elements:
            element.initialize(env)
        return elements

    build_pipelined_flow(
        Guarding(), "pipe",
        lambda env: UniformRandomTraffic(env.rng, payload_bytes=64,
                                         addr_bits=env.spec.address_bits),
        [lambda env: init_all(env, [CheckIPHeader()]),
         lambda env: init_all(env, [RadixIPLookup(), DecIPTTL()])],
        cores=[2, 3])


def _pipeline_steer():
    def tighten(machine, clock):
        for fr in machine.flows:
            _limit(fr.flow, 8e6)

    return Script({(0, 3): tighten})


def _pipeline_engaged(machine):
    return all(fr.flow.adjustments > 0 for fr in machine.flows)


CASES = [
    Case("stacked-guard-throttle", _stacked, _stacked_steer,
         _stacked_engaged),
    Case("quarantine-mid-block", _quarantine, _quarantine_steer,
         _quarantine_engaged),
    Case("throttle-gap-no-references", _trailing, lambda: Script({}),
         _trailing_engaged, measure=600),
    Case("guarded-two-faced", _two_faced, _two_faced_steer, _guard_acted,
         measure=800),
    Case("guarded-shared-core", _shared, _shared_steer, _guard_acted,
         measure=800),
    Case("guarded-handoff-stages", _pipeline, _pipeline_steer,
         _pipeline_engaged, built=("pipe.s0", "pipe.s1"), measure=300),
]


# -- the harness --------------------------------------------------------------

def _run(case, engine, prepare=None, batch=None):
    """One run of ``case`` built and run under ``engine``; ``batch``
    runs the batch engine with blocks of that many packets."""
    steer = case.steer()
    checker = InvariantChecker()
    machine = Machine(SPEC, seed=SEED, guard=steer, checker=checker)
    with fastpath.use_engine(engine):
        case.build(machine)
        if prepare is not None:
            prepare(machine)
        if batch is None:
            result = machine.run(warmup_packets=case.warmup,
                                 measure_packets=case.measure)
        else:
            result = run_batch(machine, case.warmup, case.measure,
                               batch=batch)
    assert checker.ok, "\n".join(str(v) for v in checker.violations)
    events = [getattr(e, "to_dict", lambda e=e: e)() for e in steer.events]
    return machine, result, events


def _core(fr):
    return flow_layers(fr.flow)[-1]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_wrapped_replay_matches_scalar(case):
    ref_machine, ref_result, ref_events = _run(case, "scalar")
    assert case.engaged(ref_machine), "the case exercises no control"
    fastpath.clear_stream_cache()
    for label in ("batch-cold", "batch-warm"):
        machine, result, events = _run(case, "batch")
        divergences = compare_results(ref_machine, ref_result,
                                      machine, result, label)
        assert not divergences, "\n".join(divergences)
        assert events == ref_events, label
    # The warm run constructed only the flows without a cached stream,
    # and replayed every other one from its skeleton.
    for fr in machine.flows:
        core = _core(fr)
        if fr.label in case.built:
            assert not isinstance(core, StubFlow)
            assert fr.core not in machine.prefiltered_cores
        else:
            assert isinstance(core, StubFlow) and core._flow is None, \
                fr.label
            assert fr.core in machine.prefiltered_cores


#: The block size the quarantine case is replayed at: its quarantine
#: starts and ends inside one block of this many packets.
QUARANTINE_BLOCK = 256


def test_quarantine_starts_and_ends_mid_block():
    case = CASES[1]
    ref_machine, ref_result, ref_events = _run(case, "scalar")
    [(_, clock, _, packets)] = ref_events
    assert 0 < packets % QUARANTINE_BLOCK < QUARANTINE_BLOCK - 1
    target = ref_machine.flows[1]
    assert target.flow.suspended_until == clock + 60_000.0
    # The stream packet after the quarantine is in the same block.
    assert (target.flow.idle_packets
            < QUARANTINE_BLOCK - packets % QUARANTINE_BLOCK)
    fastpath.clear_stream_cache()
    for label in ("batch-cold", "batch-warm"):
        machine, result, events = _run(case, "batch",
                                       batch=QUARANTINE_BLOCK)
        divergences = compare_results(ref_machine, ref_result,
                                      machine, result, label)
        assert not divergences, "\n".join(divergences)
        assert events == ref_events, label


def test_touched_inner_stub_runs_live():
    case = CASES[0]
    ref_machine, ref_result, ref_events = _run(case, "scalar")
    fastpath.clear_stream_cache()
    _run(case, "batch")
    stubs = []

    def touch(machine):
        core = _core(machine.flows[2])
        assert isinstance(core, StubFlow)
        core.elements                 # reaching through materializes it
        assert core.touched
        stubs.append(core)

    hits = STREAM_CACHE.hits
    machine, result, events = _run(case, "batch", prepare=touch)
    divergences = compare_results(ref_machine, ref_result, machine, result,
                                  "batch-touched")
    assert not divergences, "\n".join(divergences)
    assert events == ref_events
    # The touched flow generated its own stream; the other two replayed
    # theirs from the cache.
    assert STREAM_CACHE.hits == hits + 2
    assert not isinstance(_core(machine.flows[2]), StubFlow)
    assert _core(machine.flows[2]) is stubs[0].materialize()


@pytest.mark.parametrize("index", [13, 14])
def test_warm_guard_fuzz_batch_half_builds_no_flow(index):
    # Scenarios 13 and 14 of the guard-fuzz mix hold a two-faced, a
    # throttled and a shared-core flow, all with signatured factories:
    # on a warm cache the batch half wraps a skeleton of every one.
    config = generate_one(0x5EED, index)
    fastpath.clear_stream_cache()
    _, cold, _ = run_guarded_scenario(config, "batch")
    machine, warm, _ = run_guarded_scenario(config, "batch")
    assert [e.to_dict() for e in warm.events] == [
        e.to_dict() for e in cold.events]
    for fr in machine.flows:
        core = _core(fr)
        assert isinstance(core, StubFlow) and core._flow is None, fr.label
        assert fr.core in machine.prefiltered_cores
