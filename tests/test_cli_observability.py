"""End-to-end observability-flag coverage for every CLI, both engines.

Each of the four analysis subcommands runs once per engine with the
full flag set — ``--json --trace PATH --trace-sample N
--metrics-interval US`` — and the test asserts the three artifacts line
up: a parseable RunReport on stdout stamped with the engine, a valid
Chrome ``trace_event`` document at PATH, and an embedded counter time
series. An unwritable ``--trace`` or ``--report`` path must fail fast
with ``SystemExit(2)`` (argparse's error exit) *before* any simulation
runs, on every subcommand taking it.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.hw.machine import Machine

FAST = ["--scale", "64", "--warmup", "100", "--measure", "200"]

#: analysis subcommand -> positional argv
CLIS = {
    "profile": ["IP"],
    "predict": ["FW", "FW"],
    "schedule": ["6xMON", "6xFW"],
    "sweep": ["FW"],
}

#: Every subcommand taking an output path -> the argv it runs with.
RUNS = {**{name: [name] + positional + FAST
           for name, positional in CLIS.items()},
        "check": ["check", "--scenarios", "1", "--no-corpus"],
        "guard": ["guard", "--inject", "two-faced"] + FAST}


def run_cli(name, extra, capsys):
    rc = main([name] + CLIS[name] + FAST + extra)
    captured = capsys.readouterr()
    return rc, captured.out


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize("name", sorted(CLIS))
def test_full_flag_set(name, engine, tmp_path, capsys):
    trace_path = tmp_path / f"{name}-{engine}.trace.json"
    rc, out = run_cli(
        name,
        ["--engine", engine, "--json",
         "--trace", str(trace_path), "--trace-sample", "4",
         "--metrics-interval", "10"],
        capsys)
    assert rc == 0

    # stdout is one RunReport document stamped with the engine.
    report = json.loads(out)
    assert report["schema"].startswith("repro.")
    assert report["results"]["engine"] == engine
    assert report["scale"] == 64

    # The time series was sampled and embedded.
    assert report["timeseries"], f"{name}: --metrics-interval produced nothing"
    some_series = next(iter(report["timeseries"].values()))
    assert some_series, f"{name}: empty sampled run"

    # The Chrome trace is valid JSON with events in it.
    with open(trace_path) as fh:
        trace = json.load(fh)
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert events, f"{name}: trace file has no events"


@pytest.mark.parametrize("name", sorted(CLIS))
def test_json_engine_stamp_default_scalar(name, capsys):
    rc, out = run_cli(name, ["--json"], capsys)
    assert rc == 0
    assert json.loads(out)["results"]["engine"] == "scalar"


def _no_simulation(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    monkeypatch.setattr(Machine, "run", run)


@pytest.mark.parametrize("name", sorted(CLIS) + ["guard"])
def test_unwritable_trace_path_fails_fast(name, tmp_path, capsys,
                                          monkeypatch):
    _no_simulation(monkeypatch)
    missing_dir = tmp_path / "no_such_dir" / "trace.json"
    with pytest.raises(SystemExit) as excinfo:
        main(RUNS[name] + ["--trace", str(missing_dir)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--trace" in err and "cannot write" in err


@pytest.mark.parametrize("name", ["check", "guard"])
def test_unwritable_report_path_fails_fast(name, tmp_path, capsys,
                                           monkeypatch):
    _no_simulation(monkeypatch)
    missing_dir = tmp_path / "no_such_dir" / "report.json"
    with pytest.raises(SystemExit) as excinfo:
        main(RUNS[name] + ["--report", str(missing_dir)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--report" in err and "cannot write" in err


def test_trace_sample_thins_events(tmp_path, capsys):
    dense = tmp_path / "dense.json"
    sparse = tmp_path / "sparse.json"
    rc, _ = run_cli("profile", ["--trace", str(dense)], capsys)
    assert rc == 0
    rc, _ = run_cli("profile", ["--trace", str(sparse),
                                "--trace-sample", "16"], capsys)
    assert rc == 0
    with open(dense) as fh:
        n_dense = len(json.load(fh)["traceEvents"])
    with open(sparse) as fh:
        n_sparse = len(json.load(fh)["traceEvents"])
    assert n_sparse < n_dense


def test_batch_and_scalar_reports_agree(capsys):
    """The JSON report's flow statistics must be engine-independent."""
    reports = {}
    for engine in ("scalar", "batch"):
        rc, out = run_cli("profile", ["--engine", engine, "--json"], capsys)
        assert rc == 0
        reports[engine] = json.loads(out)
    for report in reports.values():
        report["results"].pop("engine")
    assert reports["scalar"] == reports["batch"]
