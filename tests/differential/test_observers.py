"""Observer-axis differential: observing a run never changes it.

The driver runs a machine's observers (guard, checker, metrics sampler)
as one ordered list, each on per-flow deadlines of its own. Four
differential-suite configurations (``tests/differential/scenarios.py``)
run bare and then under each observer set, on both engines; the
observed runs must match the bare run exactly
(:func:`~repro.fastpath.diff.compare_results`). The guard acts on what
it sees, so its event stream must also be independent of whatever else
observes the run: a sampler or checker at another cadence leaves it
byte-identical, and so does sampling the containment demo.
"""

from __future__ import annotations

import functools
import json
import os

import pytest

from repro.check.invariants import InvariantChecker
from repro.check.scenarios import generate_one
from repro.fastpath.diff import compare_results
from repro.guard.demo import DemoConfig, run_demo
from repro.guard.fuzz import run_guarded_scenario
from repro.obs import ListSink, Tracer, observe
from tests.differential.scenarios import BY_NAME

ENGINES = ("scalar", "batch")

SCENARIOS = {name: BY_NAME[name] for name in (
    "corun-IP-MON", "dual-remote-domain", "throttled-aggressor",
    "twofaced-mid-run")}

#: name -> (metrics interval in us, checker interval in cycles, traced)
OBSERVER_SETS = {
    "sampler-1us": (1.0, None, False),
    "sampler-7us": (7.0, None, False),
    "sampler-50us": (50.0, None, False),
    "checker": (None, 30_000.0, False),
    "tracer": (None, None, True),
    "all": (7.0, 30_000.0, True),
}

#: repro.check scenarios (guard-fuzz master seed) the guard runs on.
GUARD_SEED = 0x5EED
GUARD_SCENARIOS = (3, 8, 21)


def _run(scenario, engine, interval_us=None, check_interval=None,
         traced=False):
    tracer = Tracer(ListSink()) if traced else None
    checker = (InvariantChecker(interval_cycles=check_interval)
               if check_interval is not None else None)
    with observe(tracer=tracer, metrics_interval_us=interval_us):
        machine = scenario.build()
    machine.checker = checker
    result = machine.run(warmup_packets=scenario.warmup,
                         measure_packets=scenario.measure, engine=engine)
    return machine, result, checker, tracer


@functools.lru_cache(maxsize=None)
def _bare(name, engine):
    machine, result, _, _ = _run(SCENARIOS[name], engine)
    assert machine.metrics is None and machine.checker is None
    return machine, result


def test_scenarios_exist():
    assert len(SCENARIOS) == 4


@pytest.mark.parametrize("observers", sorted(OBSERVER_SETS))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observers_leave_the_run_unchanged(name, engine, observers):
    interval_us, check_interval, traced = OBSERVER_SETS[observers]
    machine, result, checker, tracer = _run(
        SCENARIOS[name], engine, interval_us, check_interval, traced)
    ref_machine, ref_result = _bare(name, engine)
    divergences = compare_results(ref_machine, ref_result, machine, result,
                                  label=f"{engine}+{observers}")
    assert not divergences, "\n".join(divergences)
    # The observers really observed.
    if interval_us is not None:
        assert result.metrics is machine.metrics
        for label in result.flow_labels:
            assert len(result.timeseries(label)) > 2
    if checker is not None:
        assert checker.windows_checked > 0 and checker.runs_checked == 1
        assert checker.ok, [str(v) for v in checker.violations]
    if traced:
        assert tracer.sink.events


def _guard_run(index, engine, interval_us=None, check_interval=None):
    checker = (InvariantChecker(interval_cycles=check_interval)
               if check_interval is not None else None)
    with observe(metrics_interval_us=interval_us):
        machine, guard, result = run_guarded_scenario(
            generate_one(GUARD_SEED, index), engine=engine, checker=checker)
    return machine, result, [e.to_dict() for e in guard.events]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("index", GUARD_SCENARIOS)
def test_guard_events_independent_of_other_observers(index, engine):
    ref_machine, ref_result, ref_events = _guard_run(index, engine)
    assert ref_events
    for interval_us, check_interval in ((None, 30_000.0),
                                        (None, 250_000.0),
                                        (5.0, None), (50.0, 30_000.0)):
        machine, result, events = _guard_run(index, engine, interval_us,
                                             check_interval)
        assert events == ref_events, (interval_us, check_interval)
        assert not compare_results(ref_machine, ref_result, machine, result)


GOLDEN_GUARDED = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "guard", "golden_demo_guarded.json")


@pytest.mark.guard
@pytest.mark.parametrize("interval_us", (5.0, 50.0))
def test_sampled_demo_reproduces_the_guarded_golden(interval_us):
    with open(GOLDEN_GUARDED) as fh:
        golden = fh.read()
    with observe(metrics_interval_us=interval_us) as session:
        _, guard, result, report = run_demo(DemoConfig(guarded=True))
    assert session.samplers and result.metrics is session.samplers[-1]
    events = json.loads(golden)["results"]["events"]
    assert len(events) == 38
    assert [e.to_dict() for e in guard.events] == events
    assert report.to_json() + "\n" == golden
