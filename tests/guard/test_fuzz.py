"""Random-SLO guard fuzz: determinism and the no-unhandled contract."""

import json

import pytest

from repro.check.scenarios import generate_one
from repro.guard.fuzz import (
    SLO_LEVELS,
    GuardFuzzOptions,
    assign_slos,
    fuzz_one,
    run_fuzz,
)

pytestmark = pytest.mark.guard

SEED = 0x5EED


def test_small_campaign_is_clean():
    result = run_fuzz(GuardFuzzOptions(scenarios=4, seed=SEED))
    assert len(result.outcomes) == 4
    assert result.ok, result.summary()
    assert result.failures == []
    # The campaign did actually observe windows and assign SLOs.
    assert sum(o.windows for o in result.outcomes) > 0
    assert any(o.slos for o in result.outcomes)
    for o in result.outcomes:
        assert o.unhandled == []
        assert o.crash is None and o.mismatch is None
        assert o.engines == ("scalar", "batch")


def test_campaign_is_deterministic():
    a = run_fuzz(GuardFuzzOptions(scenarios=3, seed=SEED))
    b = run_fuzz(GuardFuzzOptions(scenarios=3, seed=SEED))
    assert [o.to_dict() for o in a.outcomes] == \
        [o.to_dict() for o in b.outcomes]
    assert a.summary() == b.summary()


def test_campaign_report_shape():
    result = run_fuzz(GuardFuzzOptions(scenarios=2, seed=SEED))
    report = result.report(command="unit test")
    assert report.kind == "guard"
    doc = json.loads(report.to_json())
    assert doc["results"]["schema"] == "repro.guard_report/1"
    assert doc["results"]["mode"] == "fuzz"
    assert doc["results"]["ok"] is True
    assert len(doc["results"]["scenarios"]) == 2
    assert doc["config"]["scenarios"] == 2


def test_assign_slos_is_deterministic_and_bounded():
    config = generate_one(SEED, 0)
    labels = [f"F{i}" for i in range(12)]
    a = assign_slos(config, labels)
    b = assign_slos(config, labels)
    assert a == b
    assert set(a) <= set(labels)
    assert all(v in SLO_LEVELS for v in a.values())
    # A different scenario seed draws a different assignment stream.
    other = assign_slos(generate_one(SEED, 5), labels)
    assert other != a or generate_one(SEED, 5).seed == config.seed


def test_fuzz_one_single_engine_skips_cross_check():
    outcome = fuzz_one(generate_one(SEED, 1), engines=("scalar",))
    assert outcome.ok
    assert outcome.mismatch is None
