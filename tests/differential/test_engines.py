"""Differential suite: the batch engine's replay vs. the live loop.

Both engines share one driver; ``engine="scalar"`` runs every flow on
the live per-packet loop and is the oracle here (the driver itself is
pinned by the goldens and the corpus). Every
:class:`~repro.check.scenarios.ScenarioConfig` in
``tests/differential/scenarios.py`` runs four ways: on the scalar
engine; on the batch engine twice (cold stream cache, then warm cache —
machines are built under the ambient batch engine, so signatured flows
exercise the construction-skipped skeleton path too); and built under
batch but run with ``engine="scalar"``, so skeleton machines must
materialize back to real flows losslessly. End-of-run CoreCounters, tag
breakdowns, clocks, events, per-flow drop counts, cache contents and the
queue state of every memory controller and the QPI link must match
*exactly*; derived rates to 1e-9 relative
(:func:`repro.fastpath.diff.compare_results`).
"""

from __future__ import annotations

import pytest

import repro.fastpath as fastpath
from repro.apps.registry import APP_NAMES
from repro.check.scenarios import FLOW_KINDS, ScenarioConfig
from repro.fastpath.diff import compare_results
from repro.fastpath.streams import BATCH_PACKETS
from tests.differential.scenarios import SCENARIOS, app, scenario

#: One IP flow on core 0 (the comparator and cache checks below).
IP_SOLO = scenario("ip-solo", app("IP", 0))


def test_scenario_coverage():
    """The suite keeps the breadth the engines are held to."""
    assert len(SCENARIOS) == 29
    names = [config.name for config in SCENARIOS]
    assert len(set(names)) == len(names), "scenario names must be unique"
    digests = [config.digest() for config in SCENARIOS]
    assert len(set(digests)) == len(digests), "duplicate configurations"
    for config in SCENARIOS:
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    flows = [fc for config in SCENARIOS for fc in config.flows]
    assert {fc.kind for fc in flows} == set(FLOW_KINDS)
    solo_apps = {config.flows[0].app for config in SCENARIOS
                 if len(config.flows) == 1 and config.flows[0].kind == "app"}
    assert solo_apps == set(APP_NAMES)

    assert {config.sockets for config in SCENARIOS} == {1, 2}
    assert any(fc.data_domain is not None
               and fc.data_domain != fc.core // config.spec().cores_per_socket
               for config in SCENARIOS for fc in config.flows), \
        "no flow with remote data placement"
    assert any(config.scale == 16 for config in SCENARIOS)
    measures = [config.measure for config in SCENARIOS]
    assert min(measures) < BATCH_PACKETS < max(measures)


@pytest.mark.parametrize("config", SCENARIOS, ids=lambda config: config.name)
def test_engines_equivalent(config):
    ref_machine, ref_result = config.run("scalar")
    fastpath.clear_stream_cache()
    divergences = []
    with fastpath.use_engine("batch"):
        for label in ("batch-cold", "batch-warm"):
            machine, result = config.run()
            divergences += compare_results(ref_machine, ref_result,
                                           machine, result, label)
        machine = config.build()
        result = machine.run(warmup_packets=config.warmup,
                             measure_packets=config.measure, engine="scalar")
    divergences += compare_results(ref_machine, ref_result, machine, result,
                                   "batch-scalar-dispatch")
    assert not divergences, "\n".join([config.describe()] + divergences)


def test_compare_results_detects_divergence():
    """The comparator itself must not be a rubber stamp."""
    ref_machine, ref_result = IP_SOLO.run("scalar")
    alt_machine, alt_result = IP_SOLO.run("scalar")
    assert not compare_results(ref_machine, ref_result,
                               alt_machine, alt_result)
    alt_machine.flows[0].counters.l3_refs += 1
    divergences = compare_results(ref_machine, ref_result,
                                  alt_machine, alt_result)
    assert any("l3_refs" in d for d in divergences)
    # A wrong end-of-run install: one line differs in one private set.
    alt_machine.flows[0].counters.l3_refs -= 1
    l2_set = next(s for s in alt_machine._l2[0].sets if s)
    l2_set[-1] += alt_machine._l2[0].n_sets
    divergences = compare_results(ref_machine, ref_result,
                                  alt_machine, alt_result)
    assert len(divergences) == 1
    assert "cache L2.0 set" in divergences[0]
    # An LRU-order slip: the same lines in one L3 set, two of them
    # swapped. The L3 sets are dicts, whose equality ignores order.
    l2_set[-1] -= alt_machine._l2[0].n_sets
    l3_set = next(s for s in alt_machine.l3[0].sets if len(s) >= 2)
    first, second, *rest = l3_set
    l3_set.clear()
    l3_set.update(dict.fromkeys([second, first, *rest]))
    divergences = compare_results(ref_machine, ref_result,
                                  alt_machine, alt_result)
    assert len(divergences) == 1
    assert "cache L3.0 set" in divergences[0]
    l3_set.clear()
    l3_set.update(dict.fromkeys([first, second, *rest]))
    # A queue-step slip: one request's service time lost from the open
    # window, which the waits would show only at the next roll.
    alt_machine.mcs[0].window_busy -= alt_machine.mcs[0].service_cycles
    divergences = compare_results(ref_machine, ref_result,
                                  alt_machine, alt_result)
    assert divergences == [
        f"[batch] mc0.window_busy: scalar={ref_machine.mcs[0].window_busy!r}"
        f" batch={alt_machine.mcs[0].window_busy!r}"]


def test_warm_pass_hits_cache():
    """The warm pass must actually replay from the stream cache."""
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        IP_SOLO.run()
        before = fastpath.stream_cache_stats()
        IP_SOLO.run()
        after = fastpath.stream_cache_stats()
    assert after["hits"] > before["hits"]


def test_warm_pass_skips_construction():
    """A warm-cache machine built under ambient batch installs stubs."""
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        IP_SOLO.run()
        machine = IP_SOLO.build()
        assert type(machine.flows[0].flow).__name__ == "StubFlow"
        # The skeleton still produces scalar-exact results.
        result = machine.run(warmup_packets=IP_SOLO.warmup,
                             measure_packets=IP_SOLO.measure)
    ref_machine, ref_result = IP_SOLO.run("scalar")
    assert not compare_results(ref_machine, ref_result, machine, result)
