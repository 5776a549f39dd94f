"""Shared state for the benchmark harness.

Each ``bench_*.py`` regenerates one table/figure of the paper. Every
experiment resolves its shards on the session's cached sweep runner, so
expensive prerequisites (solo profiles, the Figure 2 co-run matrix, the
sensitivity curves) are computed once per session and shared; each
benchmark times its own experiment's remaining work.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — platform scale-down factor (default 8).
* ``REPRO_BENCH_FAST=1`` — quarter the packet counts (quick smoke pass).

Timings come from pytest-benchmark itself (``--benchmark-json PATH``).
"""

from __future__ import annotations

import os

import pytest

from repro.apps.registry import REALISTIC_APPS
from repro.core.prediction import ContentionPredictor
from repro.core.profiler import profile_apps
from repro.experiments import fig2, fig5
from repro.experiments.common import ExperimentConfig
from repro.sweep import MemoryCache, SweepOptions, SweepRunner


def pytest_configure(config):
    """Register the repo's marks for standalone ``pytest benchmarks/``
    invocations (whose rootdir may miss pyproject's registrations), so
    the suite runs warning-clean either way."""
    config.addinivalue_line(
        "markers",
        "sweep: sharded sweep orchestrator suite "
        "(determinism + fault injection)")
    config.addinivalue_line(
        "markers",
        "benchmark: paper-figure benchmark (requires pytest-benchmark)")


def _make_config() -> ExperimentConfig:
    scale = int(os.environ.get("REPRO_BENCH_SCALE", "8"))
    config = ExperimentConfig(scale=scale)
    if os.environ.get("REPRO_BENCH_FAST"):
        config = config.quicker(4)
    return config


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return _make_config()


@pytest.fixture(scope="session")
def runner() -> SweepRunner:
    """The session's sweep runner: its in-memory cache shares prerequisite
    shards (solo profiles, Figure 2 co-runs, SYN curves) across
    benchmarks by content key."""
    return SweepRunner(SweepOptions(cache=MemoryCache()))


@pytest.fixture(scope="session")
def profiles(config, runner):
    """Solo profiles of the five realistic flow types (Table 1 input)."""
    return profile_apps(
        REALISTIC_APPS, config.socket_spec(), seed=config.seed,
        warmup_packets=config.solo_warmup,
        measure_packets=config.solo_measure, runner=runner,
    )


@pytest.fixture(scope="session")
def fig2_result(config, runner):
    """The Figure 2 pairwise co-run matrix (reused by Figures 5 and 8)."""
    return fig2.run(config, runner=runner)


@pytest.fixture(scope="session")
def curves(config, runner):
    """Per-app SYN sensitivity curves (prediction step 2)."""
    return fig5.run(config, runner=runner).curves


@pytest.fixture(scope="session")
def predictor(profiles, curves):
    return ContentionPredictor(profiles=profiles, curves=curves)


@pytest.fixture(scope="session")
def strict() -> bool:
    """Shape assertions are enforced only in full-fidelity runs.

    ``REPRO_BENCH_FAST`` runs are smoke passes: they exercise every code
    path with a fraction of the packets, but the shortened warm-up
    distorts cache-residency shapes, so the paper-shape assertions are
    reported but not enforced.
    """
    return not os.environ.get("REPRO_BENCH_FAST")


@pytest.fixture
def run_once():
    """Run a thunk exactly once under the benchmark timer."""

    def _run(benchmark, fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
