"""The engine-equality comparator: batch replay against the live loop.

Both engines run on one driver (``Machine._drive``) and differ only in
each flow's window loop: ``engine="scalar"`` puts every flow on the live
per-packet loop, which is the oracle here, while the batch engine
(:mod:`repro.fastpath.engine`) replays pregenerated streams for
timing-pure flows and promises *exact* equivalence with the live loop —
same integer counters, same floating-point clocks, same drop counts —
across pregeneration, cached replay, and skeleton (construction-skipped)
builds. The driver itself is pinned by the goldens and the regression
corpus. :func:`compare_results` turns the promise into an executable
check: it lists every divergence between a reference run and an
alternate one. The differential suite (``tests/differential``) runs
:class:`~repro.check.scenarios.ScenarioConfig` scenarios through it, and
so do ``repro-check --engine both`` and perfbench's engine cross-check.
"""

from __future__ import annotations

from typing import Dict, List

from ..hw.machine import flow_layers

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

#: UtilizationQueue fields compared exactly on every memory controller
#: and the QPI link: both window loops run the queue's common step
#: inline, and a slip there can leave the waits unchanged for a while.
QUEUE_FIELDS = ("requests", "rho", "wait", "window_start", "window_busy")


def _caches(machine) -> List:
    """Every cache of ``machine`` in a fixed order: L1s, L2s, then L3s."""
    return ([machine._l1[core] for core in sorted(machine._l1)]
            + [machine._l2[core] for core in sorted(machine._l2)]
            + list(machine.l3))


def _queues(machine) -> List:
    """Every shared queue of ``machine``: the memory controllers, then QPI."""
    return [(f"mc{mc.domain}", mc) for mc in machine.mcs] + [
        ("qpi", machine.qpi)]


def _flow_state(fr) -> Dict[str, object]:
    """Engine-visible end-of-run flow state, beyond the counters.

    Covers every layer of the flow: a throttle or guard wrapper's
    control statistics and the wrapped flow's state (keys prefixed
    ``inner.`` once per level).
    """
    state: Dict[str, object] = {"clock": fr.clock}
    *wrappers, flow = flow_layers(fr.flow)
    for depth, wrapper in enumerate(wrappers):
        stats = getattr(wrapper, "stats", None)
        if stats is not None:
            state["inner." * depth + "control"] = stats()
    at = "inner." * len(wrappers)
    state[at + "dropped"] = getattr(flow, "dropped", None)
    state[at + "forwarded"] = getattr(flow, "forwarded", None)
    turns = getattr(flow, "turns", None)
    if turns is not None:
        state[at + "turns"] = list(turns)
    if hasattr(flow, "triggered"):
        state[at + "triggered"] = flow.triggered
        state[at + "packets"] = flow.packets
    return state


def compare_results(ref_machine, ref_result, alt_machine, alt_result,
                    label: str = "batch") -> List[str]:
    """Every divergence between a reference and an alternate run.

    Counters, tag breakdowns, clocks, events, drop state, end-of-run
    cache contents (every core's L1/L2 and every socket's L3, set by set
    in LRU order) and the queue state of every memory controller and
    the QPI link (:data:`QUEUE_FIELDS`) must match exactly; derived
    per-flow rates must agree to ``REL_TOL`` relative. Returns
    human-readable divergence strings (empty means equivalent).
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
            # As lists: dict equality ignores the LRU order of an L3 set.
            ref_set = list(ref_set)
            alt_set = list(alt_set)
            if ref_set != alt_set:
                # First differing set only: one bad install shows once.
                diverge(f"cache {ref_cache.name} set {idx}", ref_set,
                        alt_set)
                break

    for (name, ref_q), (_, alt_q) in zip(_queues(ref_machine),
                                         _queues(alt_machine)):
        for fname in QUEUE_FIELDS:
            ref_v = getattr(ref_q, fname)
            alt_v = getattr(alt_q, fname)
            if ref_v != alt_v:
                diverge(f"{name}.{fname}", ref_v, alt_v)

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
