"""Golden regression tests: seed-pinned figure reports must not drift.

The committed ``golden_<name>.json`` files are RunReport documents for
table1, fig2, fig5, fig6, fig8, fig9 and multiflow at a pinned small
configuration. Any engine or model
change that shifts the paper's curves — even in the last float digit —
fails here and forces a deliberate regen (``tests/golden/regen.py``)
whose diff is reviewed like any other code change.

Both engines share one execution driver and are held to the same
goldens: each must land on the byte-identical committed reports. The
batch engine is held to them twice: on a cold stream cache, and again
replaying every stream from the cache the cold build filled.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.fastpath as fastpath

from . import builders

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"golden_{name}.json")


@pytest.fixture(scope="module")
def fresh_reports():
    return builders.build_reports()


@pytest.fixture(scope="module")
def fresh_reports_batch():
    fastpath.clear_stream_cache()
    with fastpath.use_engine("batch"):
        return builders.build_reports()


@pytest.fixture(scope="module")
def fresh_reports_batch_warm(fresh_reports_batch):
    """The batch build again, on the stream cache the cold build filled:
    (reports, stream-cache hits and misses during this build)."""
    before = fastpath.stream_cache_stats()
    with fastpath.use_engine("batch"):
        reports = builders.build_reports()
    after = fastpath.stream_cache_stats()
    return reports, {key: after[key] - before[key]
                     for key in ("hits", "misses")}


def test_goldens_exist_and_parse():
    for name in builders.GOLDEN_NAMES:
        path = golden_path(name)
        assert os.path.exists(path), (
            f"missing {path}; run PYTHONPATH=src python tests/golden/regen.py")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["kind"] == f"golden-{name}"
        assert doc["seed"] == builders.GOLDEN_CONFIG.seed
        assert doc["scale"] == builders.GOLDEN_CONFIG.scale
        assert doc["results"], f"{name}: empty results payload"


@pytest.mark.parametrize("name", builders.GOLDEN_NAMES)
def test_report_byte_stable(name, fresh_reports):
    with open(golden_path(name)) as fh:
        committed = fh.read()
    fresh = fresh_reports[name]
    assert builders.normalize(fresh) == builders.normalize(committed), (
        f"{name} drifted from its golden; if intentional, regenerate with "
        f"PYTHONPATH=src python tests/golden/regen.py and review the diff")
    # Normalization currently strips nothing (no timestamps in RunReport),
    # so the raw bytes must agree too.
    assert fresh == committed


@pytest.mark.parametrize("name", builders.GOLDEN_NAMES)
def test_batch_engine_matches_goldens(name, fresh_reports_batch):
    with open(golden_path(name)) as fh:
        committed = fh.read()
    assert builders.normalize(fresh_reports_batch[name]) == \
        builders.normalize(committed), (
        f"{name}: batch engine diverged from the scalar-produced golden")


@pytest.mark.parametrize("name", builders.GOLDEN_NAMES)
def test_batch_warm_engine_matches_goldens(name, fresh_reports_batch_warm):
    reports, delta = fresh_reports_batch_warm
    assert delta["misses"] == 0 and delta["hits"] > 0, (
        f"warm build did not replay from the stream cache: {delta}")
    with open(golden_path(name)) as fh:
        committed = fh.read()
    assert builders.normalize(reports[name]) == \
        builders.normalize(committed), (
        f"{name}: batch engine on a warm stream cache diverged from the "
        f"scalar-produced golden")
