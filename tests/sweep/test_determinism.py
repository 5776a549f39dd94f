"""Determinism tests: a figure's merged result is independent of how
its shards were executed.

For any job count, shard completion order, and cache state, the merged
figure results — and the run reports built from them — serialize to
exactly the same bytes as the serial run: the inline ``jobs=1`` sweep,
on both execution engines. Only the ``execution`` key of a report
(parallelism, cache counters, wall-clock) may differ. The absolute
numbers are pinned by the golden reports in ``tests/golden``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from repro.experiments import fig2, fig6, multiflow, table1
from repro.experiments.common import ExperimentConfig
from repro.obs.report import jsonable
from repro.sweep import MemoryCache, SweepOptions, SweepRunner

pytestmark = pytest.mark.sweep

#: Small-but-real configuration: full code paths, few packets.
CONFIG = ExperimentConfig(scale=64, solo_warmup=150, solo_measure=150,
                          corun_warmup=120, corun_measure=120)
APPS = ("MON", "FW")
MIXES = (("MON", "FW"),)

ENGINES = ("scalar", "batch")


def canon(obj) -> str:
    """Byte-exact serialized form used for equality (sorted, lossless)."""
    return json.dumps(jsonable(obj), sort_keys=True, default=str)


def figure(name: str, engine: str, jobs: int, cache=None):
    runner = SweepRunner(SweepOptions(jobs=jobs, engine=engine, cache=cache))
    if name == "table1":
        return table1.run(CONFIG, apps=APPS, runner=runner)
    if name == "fig2":
        return fig2.run(CONFIG, apps=APPS, runner=runner)
    if name == "fig6":
        return fig6.run(CONFIG, apps=APPS, runner=runner)
    if name == "multiflow":
        return multiflow.run(CONFIG, mixes=MIXES, runner=runner)
    raise KeyError(name)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ("table1", "fig2", "fig6", "multiflow"))
def test_jobs4_matches_serial(name, engine):
    serial = canon(figure(name, engine, jobs=1))
    parallel = canon(figure(name, engine, jobs=4))
    assert parallel == serial


@pytest.mark.parametrize("name", ("fig6", "multiflow"))
def test_cached_rerun_matches_serial(name):
    """A warm cache changes nothing but the work done."""
    cache = MemoryCache()
    serial = canon(figure(name, "scalar", jobs=1))
    cold = canon(figure(name, "scalar", jobs=2, cache=cache))
    warm = canon(figure(name, "scalar", jobs=2, cache=cache))
    assert cold == serial
    assert warm == serial
    assert cache.stats["hits"] > 0


def test_jobs1_sharded_matches_serial():
    """The inline sweep reproduces the committed Figure 6 golden, which
    was generated by the former serial experiment loop."""
    from tests.golden import builders

    with open(os.path.join(os.path.dirname(builders.__file__),
                           "golden_fig6.json")) as fh:
        golden = json.load(fh)["results"]
    result = fig6.run(builders.GOLDEN_CONFIG, apps=builders.GOLDEN_APPS)
    assert jsonable(result.app_points) == golden["app_points"]
    assert jsonable(result.curves) == golden["curves"]


def _sweep_report(extra_args) -> dict:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["sweep", "MON", "--scale", "64", "--warmup", "150",
                         "--measure", "150", "--json"] + extra_args)
    assert rc == 0
    return json.loads(out.getvalue())


def test_cli_run_report_identical_modulo_execution():
    """``repro sweep --jobs 4 --json`` == ``--jobs 1`` except ``execution``."""
    serial = _sweep_report([])
    parallel = _sweep_report(["--jobs", "4", "--no-cache"])
    # Serial reports carry no execution key at all (byte-stable schema).
    assert "execution" not in serial
    assert parallel.pop("execution")["sweep"]["jobs"] == 4
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)
