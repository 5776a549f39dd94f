"""Differential testing of the batch engine's replay against the live loop.

Both engines run on one driver (``Machine._drive``) and differ only in
each flow's window loop: ``engine="scalar"`` puts every flow on the live
per-packet loop, which is the oracle here, while the batch engine
(:mod:`repro.fastpath.engine`) replays pregenerated streams for
timing-pure flows and promises *exact* equivalence with the live loop —
same integer counters, same floating-point clocks, same drop counts —
across pregeneration, cached replay, and skeleton (construction-skipped)
builds. The driver itself is pinned by the goldens and the regression
corpus. This module turns the promise into an executable check: a
:class:`Scenario` describes one seeded (platform, flow placement, packet
budget) configuration; a :class:`DifferentialRunner` runs it on the
scalar engine and then on the batch engine (cold cache, warm cache, and
warm-with-skeleton machines) and reports every divergence.

:func:`generate_scenarios` spans the registry's application set, both
platform topologies, remote-domain placement, shared-core multiplexing,
throttling, two-faced adversaries, and cross-core handoff — the flow
shapes the experiment suite actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.registry import APP_NAMES, app_factory
from ..apps.synthetic import syn_factory, syn_max_factory
from ..click.multiflow import shared_core_factory
from ..core.throttling import ThrottledFlow, TwoFacedFlow, throttled_factory
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from . import clear_stream_cache, use_engine

#: CoreCounters fields compared exactly (integers and — because the batch
#: engine preserves float operation order — accumulated cycle floats).
COUNTER_FIELDS = (
    "cycles", "instructions", "packets", "l1_hits", "l2_hits",
    "l3_refs", "l3_hits", "l3_misses", "remote_refs",
    "mc_wait_cycles", "gap_cycles",
)

#: FlowStats-derived rates compared to relative tolerance REL_TOL (they
#: are pure functions of the exact counters, so this is belt-and-braces).
DERIVED_FIELDS = (
    "packets_per_sec", "cycles_per_packet", "l3_refs_per_sec",
    "l3_hits_per_sec", "l3_misses_per_sec", "l3_hit_rate",
    "l3_refs_per_packet", "l3_misses_per_packet", "l2_hits_per_packet",
)

REL_TOL = 1e-9


def _spec(scale: int = 64, sockets: int = 1) -> PlatformSpec:
    spec = PlatformSpec.westmere().scaled(scale)
    return spec.single_socket() if sockets == 1 else spec


@dataclass(frozen=True)
class FlowSpec:
    """One flow placement inside a scenario."""

    factory: Callable
    core: int
    data_domain: Optional[int] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """A seeded, fully reproducible machine configuration.

    ``build()`` constructs a fresh :class:`Machine` each time it is
    called; the differential runner builds one per engine/pass so no run
    state leaks between engines (factories are stateless closures).
    """

    name: str
    flows: Tuple[FlowSpec, ...]
    seed: int = 12345
    scale: int = 64
    sockets: int = 1
    warmup: int = 60
    measure: int = 200
    #: Extra machine wiring (e.g. handoff pipelines) applied after the
    #: regular flows are added.
    extra: Optional[Callable[[Machine], None]] = None

    def build(self) -> Machine:
        machine = Machine(_spec(self.scale, self.sockets), seed=self.seed)
        for fs in self.flows:
            machine.add_flow(fs.factory, core=fs.core,
                             data_domain=fs.data_domain, label=fs.label)
        if self.extra is not None:
            self.extra(machine)
        return machine

    def run(self, engine: str):
        machine = self.build()
        result = machine.run(warmup_packets=self.warmup,
                             measure_packets=self.measure, engine=engine)
        return machine, result


def _caches(machine) -> List:
    """Every cache of ``machine`` in a fixed order: L1s, L2s, then L3s."""
    return ([machine._l1[core] for core in sorted(machine._l1)]
            + [machine._l2[core] for core in sorted(machine._l2)]
            + list(machine.l3))


def _flow_state(fr) -> Dict[str, object]:
    """Engine-visible end-of-run flow state, beyond the counters."""
    flow = fr.flow
    state: Dict[str, object] = {"clock": fr.clock}
    state["dropped"] = getattr(flow, "dropped", None)
    state["forwarded"] = getattr(flow, "forwarded", None)
    turns = getattr(flow, "turns", None)
    if turns is not None:
        state["turns"] = list(turns)
    if hasattr(flow, "triggered"):
        state["triggered"] = flow.triggered
        state["packets"] = flow.packets
    return state


def compare_results(ref_machine, ref_result, alt_machine, alt_result,
                    label: str = "batch") -> List[str]:
    """Every divergence between a reference and an alternate run.

    Counters, tag breakdowns, clocks, events, drop state, and end-of-run
    cache contents (every core's L1/L2 and every socket's L3, set by set
    in LRU order) must match exactly; derived per-flow rates must agree
    to ``REL_TOL`` relative. Returns human-readable divergence strings
    (empty means equivalent).
    """
    divergences: List[str] = []

    def diverge(what: str, ref, alt) -> None:
        divergences.append(f"[{label}] {what}: scalar={ref!r} {label}={alt!r}")

    if ref_result.events != alt_result.events:
        diverge("events", ref_result.events, alt_result.events)
    if ref_result.end_clock != alt_result.end_clock:
        diverge("end_clock", ref_result.end_clock, alt_result.end_clock)

    if len(ref_machine.flows) != len(alt_machine.flows):
        diverge("n_flows", len(ref_machine.flows), len(alt_machine.flows))
        return divergences

    for ref_fr, alt_fr in zip(ref_machine.flows, alt_machine.flows):
        where = f"flow {ref_fr.label!r}"
        for fname in COUNTER_FIELDS:
            ref_v = getattr(ref_fr.counters, fname)
            alt_v = getattr(alt_fr.counters, fname)
            if ref_v != alt_v:
                diverge(f"{where} counters.{fname}", ref_v, alt_v)
        if list(ref_fr.counters.tag_refs) != list(alt_fr.counters.tag_refs):
            diverge(f"{where} tag_refs", list(ref_fr.counters.tag_refs),
                    list(alt_fr.counters.tag_refs))
        if list(ref_fr.counters.tag_hits) != list(alt_fr.counters.tag_hits):
            diverge(f"{where} tag_hits", list(ref_fr.counters.tag_hits),
                    list(alt_fr.counters.tag_hits))
        ref_state = _flow_state(ref_fr)
        alt_state = _flow_state(alt_fr)
        for key in sorted(set(ref_state) | set(alt_state)):
            if ref_state.get(key) != alt_state.get(key):
                diverge(f"{where} {key}", ref_state.get(key),
                        alt_state.get(key))

    for ref_cache, alt_cache in zip(_caches(ref_machine),
                                    _caches(alt_machine)):
        for idx, (ref_set, alt_set) in enumerate(zip(ref_cache.sets,
                                                     alt_cache.sets)):
            if ref_set != alt_set:
                # First differing set only: one bad install shows once.
                diverge(f"cache {ref_cache.name} set {idx}", ref_set,
                        alt_set)
                break

    if sorted(ref_result.stats) != sorted(alt_result.stats):
        diverge("measured flow labels", sorted(ref_result.stats),
                sorted(alt_result.stats))
        return divergences
    for flabel in ref_result.stats:
        ref_stats = ref_result.stats[flabel]
        alt_stats = alt_result.stats[flabel]
        for fname in DERIVED_FIELDS:
            ref_v = float(getattr(ref_stats, fname))
            alt_v = float(getattr(alt_stats, fname))
            denom = max(abs(ref_v), abs(alt_v), 1e-300)
            if abs(ref_v - alt_v) / denom > REL_TOL:
                diverge(f"stats[{flabel!r}].{fname}", ref_v, alt_v)
    return divergences


@dataclass
class DifferentialReport:
    """Outcome of one scenario: per-pass divergences (empty = pass)."""

    scenario: str
    divergences: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.divergences.values())

    def summary(self) -> str:
        if self.ok:
            return f"{self.scenario}: OK"
        lines = [f"{self.scenario}: DIVERGED"]
        for run_label, divs in self.divergences.items():
            lines.extend(f"  {d}" for d in divs)
        return "\n".join(lines)


class DifferentialRunner:
    """Run scenarios on both engines and collect divergences.

    Each scenario is executed four ways:

    * ``scalar`` — every flow on the live loop (the oracle);
    * ``batch-cold`` — batch engine, stream cache cleared first
      (pregeneration path);
    * ``batch-warm`` — batch engine again (cached-replay path; machines
      built under the ambient batch engine, so signatured flows come up
      as construction-skipped skeletons);
    * ``batch-scalar-dispatch`` (optional) — a machine *built* under the
      ambient batch engine but *run* with ``engine="scalar"``, proving
      skeleton machines materialize back to real flows losslessly.
    """

    def __init__(self, clear_cache: bool = True,
                 scalar_dispatch: bool = False):
        self.clear_cache = clear_cache
        self.scalar_dispatch = scalar_dispatch

    def run(self, scenario: Scenario) -> DifferentialReport:
        report = DifferentialReport(scenario.name)
        ref_machine, ref_result = scenario.run("scalar")
        if self.clear_cache:
            clear_stream_cache()
        with use_engine("batch"):
            for pass_label in ("batch-cold", "batch-warm"):
                machine, result = scenario.run(engine=None)
                report.divergences[pass_label] = compare_results(
                    ref_machine, ref_result, machine, result, pass_label)
            if self.scalar_dispatch:
                machine = scenario.build()
                result = machine.run(warmup_packets=scenario.warmup,
                                     measure_packets=scenario.measure,
                                     engine="scalar")
                report.divergences["batch-scalar-dispatch"] = \
                    compare_results(ref_machine, ref_result, machine,
                                    result, "batch-scalar-dispatch")
        return report

    def run_all(self, scenarios: Sequence[Scenario]
                ) -> List[DifferentialReport]:
        return [self.run(sc) for sc in scenarios]


# -- scenario generation ----------------------------------------------------


def _twofaced_factory(trigger_packets: int):
    def build(env):
        return TwoFacedFlow(app_factory("FW")(env), syn_max_factory()(env),
                            trigger_packets=trigger_packets)

    return build


def _handoff_extra(machine: Machine) -> None:
    from ..click.handoff import build_pipelined_flow
    from ..click.elements.checkipheader import CheckIPHeader
    from ..apps.ipforward import DecIPTTL, RadixIPLookup
    from ..net.flowgen import UniformRandomTraffic

    def source_factory(env):
        return UniformRandomTraffic(env.rng, payload_bytes=64,
                                    addr_bits=env.spec.address_bits)

    def init_all(env, elements):
        for element in elements:
            element.initialize(env)
        return elements

    build_pipelined_flow(
        machine, "pipe",
        source_factory,
        [lambda env: init_all(env, [CheckIPHeader()]),
         lambda env: init_all(env, [RadixIPLookup(), DecIPTTL()])],
        cores=[2, 3],
    )


def generate_scenarios() -> List[Scenario]:
    """The differential suite: ≥25 scenarios spanning the registry."""
    scenarios: List[Scenario] = []

    # 1) Every registry application solo on a single socket (8).
    for app in APP_NAMES:
        scenarios.append(Scenario(
            name=f"solo-{app}",
            flows=(FlowSpec(app_factory(app), core=0),),
            warmup=50, measure=150,
        ))

    # 2) Pairwise co-runs covering distinct contention mixes (4).
    for a, b in (("IP", "MON"), ("FW", "VPN"), ("RE", "DPI"),
                 ("IP", "SYN_MAX")):
        scenarios.append(Scenario(
            name=f"corun-{a}-{b}",
            flows=(FlowSpec(app_factory(a), core=0),
                   FlowSpec(app_factory(b), core=1)),
        ))

    # 3) The full five-app realistic mix on one socket (1).
    scenarios.append(Scenario(
        name="corun-all-realistic",
        flows=tuple(FlowSpec(app_factory(app), core=i)
                    for i, app in enumerate(("IP", "MON", "FW", "RE", "VPN"))),
        warmup=40, measure=120,
    ))

    # 4) SYN sweep levels against MON (the sensitivity-curve shape) (3).
    for cpu_ops in (1440, 360, 0):
        scenarios.append(Scenario(
            name=f"syn-sweep-{cpu_ops}",
            flows=(FlowSpec(app_factory("MON"), core=0),
                   FlowSpec(syn_factory(cpu_ops_per_ref=cpu_ops), core=1)),
        ))

    # 5) Two-socket topologies: cross-socket co-run, remote data
    #    placement, and both-sockets loading (3).
    scenarios.append(Scenario(
        name="dual-cross-socket",
        flows=(FlowSpec(app_factory("MON"), core=0),
               FlowSpec(app_factory("IP"), core=6)),
        sockets=2,
    ))
    scenarios.append(Scenario(
        name="dual-remote-domain",
        flows=(FlowSpec(app_factory("VPN"), core=0, data_domain=1),
               FlowSpec(syn_factory(cpu_ops_per_ref=20), core=6)),
        sockets=2,
    ))
    scenarios.append(Scenario(
        name="dual-both-loaded",
        flows=(FlowSpec(app_factory("IP"), core=0),
               FlowSpec(app_factory("MON"), core=1),
               FlowSpec(app_factory("IP"), core=6, data_domain=0),
               FlowSpec(app_factory("FW"), core=7)),
        sockets=2, warmup=40, measure=120,
    ))

    # 6) Shared-core multiplexing, two and three members (2).
    scenarios.append(Scenario(
        name="shared-core-2",
        flows=(FlowSpec(shared_core_factory(
            [app_factory("MON"), app_factory("IP")], name="mix2"), core=0),),
    ))
    scenarios.append(Scenario(
        name="shared-core-3-vs-syn",
        flows=(FlowSpec(shared_core_factory(
            [app_factory("IP"), app_factory("MON"), app_factory("FW")],
            name="mix3"), core=0),
            FlowSpec(syn_factory(cpu_ops_per_ref=60), core=1)),
    ))

    # 7) Throttling: solo, and containing a SYN_MAX aggressor (2).
    scenarios.append(Scenario(
        name="throttled-solo",
        flows=(FlowSpec(throttled_factory(app_factory("MON"), 2e7), core=0),),
    ))
    scenarios.append(Scenario(
        name="throttled-aggressor",
        flows=(FlowSpec(app_factory("MON"), core=0),
               FlowSpec(throttled_factory(syn_max_factory(), 1.5e7), core=1)),
    ))

    # 8) Two-faced adversary triggering mid-run (trigger < warmup+measure)
    #    next to a victim (1).
    scenarios.append(Scenario(
        name="twofaced-mid-run",
        flows=(FlowSpec(app_factory("MON"), core=0),
               FlowSpec(_twofaced_factory(trigger_packets=120), core=1)),
    ))

    # 9) Cross-core handoff pipeline (impure flows, live path) beside a
    #    signatured flow (1).
    scenarios.append(Scenario(
        name="handoff-pipeline",
        flows=(FlowSpec(app_factory("IP"), core=0),),
        extra=_handoff_extra,
    ))

    # 10) Seed sensitivity: the same mixes under different seeds (2).
    for seed in (7, 991):
        scenarios.append(Scenario(
            name=f"seed-{seed}",
            flows=(FlowSpec(app_factory("IP"), core=0),
                   FlowSpec(app_factory("RE"), core=1)),
            seed=seed,
        ))

    # 11) Window-shape extremes: tiny windows (snapshot boundaries close
    #     together) and a larger-than-block measurement window crossing
    #     several pregeneration blocks (2).
    scenarios.append(Scenario(
        name="tiny-windows",
        flows=(FlowSpec(app_factory("IP"), core=0),
               FlowSpec(app_factory("MON"), core=1)),
        warmup=1, measure=5,
    ))
    scenarios.append(Scenario(
        name="multi-block-windows",
        flows=(FlowSpec(app_factory("IP"), core=0),),
        warmup=300, measure=900,
    ))

    # 12) Platform-scale variation (different cache geometry) (1).
    scenarios.append(Scenario(
        name="scale-16",
        flows=(FlowSpec(app_factory("IP"), core=0),
               FlowSpec(app_factory("MON"), core=1)),
        scale=16, warmup=40, measure=120,
    ))

    return scenarios
