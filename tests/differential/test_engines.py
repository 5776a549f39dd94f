"""Differential suite: the batch engine's replay vs. the live loop.

Both engines share one driver; ``engine="scalar"`` runs every flow on
the live per-packet loop and is the oracle here (the driver itself is
pinned by the goldens and the corpus). Every scenario from
:func:`repro.fastpath.diff.generate_scenarios` runs on the scalar engine
and on the batch engine twice (cold stream cache, then warm cache — the
warm pass builds machines under the ambient batch engine, so signatured
flows exercise the construction-skipped skeleton path too). End-of-run
CoreCounters, tag breakdowns, clocks, events, and per-flow drop counts
must match *exactly*; derived rates to 1e-9 relative.
"""

from __future__ import annotations

import pytest

import repro.fastpath as fastpath
from repro.fastpath.diff import (
    DifferentialRunner,
    FlowSpec,
    Scenario,
    compare_results,
    generate_scenarios,
)

SCENARIOS = generate_scenarios()


def test_scenario_coverage():
    """The generator spans the ISSUE's required breadth."""
    assert len(SCENARIOS) >= 25
    names = [sc.name for sc in SCENARIOS]
    assert len(set(names)) == len(names), "scenario names must be unique"
    # Every registry app appears solo.
    from repro.apps.registry import APP_NAMES

    for app in APP_NAMES:
        assert f"solo-{app}" in names
    # Both topologies are present.
    assert any(sc.sockets == 2 for sc in SCENARIOS)
    assert any(sc.sockets == 1 for sc in SCENARIOS)
    # Throttling configurations are present.
    assert any("throttled" in n for n in names)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
def test_engines_equivalent(scenario):
    runner = DifferentialRunner(clear_cache=True, scalar_dispatch=True)
    report = runner.run(scenario)
    assert report.ok, "\n" + report.summary()


def test_compare_results_detects_divergence():
    """The comparator itself must not be a rubber stamp."""
    scenario = Scenario(
        name="comparator-check",
        flows=(FlowSpec(_ip_factory(), core=0),),
    )
    ref_machine, ref_result = scenario.run("scalar")
    alt_machine, alt_result = scenario.run("scalar")
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


def _ip_factory():
    from repro.apps.registry import app_factory

    return app_factory("IP")


def test_warm_pass_hits_cache():
    """The warm pass must actually replay from the stream cache."""
    scenario = Scenario(
        name="cache-check",
        flows=(FlowSpec(_ip_factory(), core=0),),
    )
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        scenario.run(engine=None)
        before = fastpath.stream_cache_stats()
        scenario.run(engine=None)
        after = fastpath.stream_cache_stats()
    assert after["hits"] > before["hits"]


def test_warm_pass_skips_construction():
    """A warm-cache machine built under ambient batch installs stubs."""
    scenario = Scenario(
        name="skeleton-check",
        flows=(FlowSpec(_ip_factory(), core=0),),
    )
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        scenario.run(engine=None)
        machine = scenario.build()
        assert type(machine.flows[0].flow).__name__ == "StubFlow"
        # The skeleton still produces scalar-exact results.
        result = machine.run(warmup_packets=scenario.warmup,
                             measure_packets=scenario.measure)
    ref_machine, ref_result = scenario.run("scalar")
    assert not compare_results(ref_machine, ref_result, machine, result)
