"""Run reports, Chrome trace export, and CLI ``--json`` schema checks."""

import csv
import io
import json

import pytest

from repro.apps.registry import app_factory
from repro.cli import main
from repro.core.reporting import summarize_report
from repro.experiments.common import TEST_CONFIG
from repro.hw.machine import Machine
from repro.obs import (
    ChromeTraceSink,
    ListSink,
    MetricsSampler,
    RunReport,
    Tracer,
    to_chrome_trace,
    validate_report,
)

CLI_ARGS = ["--scale", "64", "--warmup", "300", "--measure", "300"]


def _run(tracer=None, metrics=None):
    machine = Machine(TEST_CONFIG.socket_spec(), seed=3, tracer=tracer,
                      metrics=metrics)
    machine.add_flow(app_factory("MON"), core=0)
    machine.add_flow(app_factory("IP"), core=1)
    return machine.run(warmup_packets=300, measure_packets=300)


def test_run_report_validates_and_round_trips():
    result = _run(metrics=MetricsSampler(interval_us=50.0))
    report = result.report(kind="run", config=TEST_CONFIG)
    data = json.loads(report.to_json())
    assert validate_report(data) == []
    assert data["schema"] == "repro.run_report/1"
    assert {f["label"] for f in data["flows"]} == {"MON@0", "IP@1"}
    assert data["timeseries"]  # sampler was attached
    for flow in data["flows"]:
        assert flow["packets"] > 0
        assert flow["packets_per_sec"] > 0


def test_run_report_write_and_csv(tmp_path):
    result = _run(metrics=MetricsSampler(interval_us=50.0))
    report = result.report(config=TEST_CONFIG)
    path = tmp_path / "report.json"
    report.write(str(path))
    assert validate_report(json.loads(path.read_text())) == []

    flows_csv = report.flows_csv()
    rows = list(csv.DictReader(io.StringIO(flows_csv)))
    assert len(rows) == 2
    assert float(rows[0]["packets_per_sec"]) > 0

    ts_csv = report.timeseries_csv()
    ts_rows = list(csv.DictReader(io.StringIO(ts_csv)))
    assert ts_rows
    assert {"flow", "t0_s", "t1_s", "pps"} <= set(ts_rows[0])


def test_validate_report_flags_problems():
    assert validate_report({"schema": "bogus"})  # wrong schema + missing keys
    result = _run()
    data = result.report(config=TEST_CONFIG).to_dict()
    del data["flows"]
    problems = validate_report(data)
    assert any("flows" in p for p in problems)


def test_summarize_report_renders_headline_facts():
    result = _run(metrics=MetricsSampler(interval_us=50.0))
    data = result.report(config=TEST_CONFIG).to_dict()
    text = summarize_report(data)
    assert "MON@0" in text
    assert "time series" in text


def test_chrome_trace_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    tracer = Tracer(ChromeTraceSink(str(path)), packet_sample=4)
    _run(tracer=tracer)
    tracer.close()
    with open(path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i"} <= phases
    # Thread metadata names each core; spans carry element children.
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert any("core" in n for n in names)
    spans = [e for e in events if e["ph"] == "X"]
    assert all(s["dur"] >= 0 for s in spans)
    element_spans = [s for s in spans if s["name"] != "packet"]
    assert element_spans  # per-element attribution became child spans
    packet_spans = [s for s in spans if s["name"] == "packet"]
    assert packet_spans


def test_chrome_trace_timestamps_are_microseconds():
    sink = ListSink()
    tracer = Tracer(sink, packet_sample=4)
    result = _run(tracer=tracer)
    doc = to_chrome_trace(sink.events)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    freq_hz = TEST_CONFIG.socket_spec().freq_hz
    end_us = result.end_clock / freq_hz * 1e6
    assert all(0 <= s["ts"] <= end_us * 1.01 for s in spans)


def test_cli_profile_json_schema(capsys):
    assert main(["profile", "MON", "--json"] + CLI_ARGS) == 0
    data = json.loads(capsys.readouterr().out)
    assert validate_report(data) == []
    assert data["kind"] == "profile"
    assert data["results"]["profiles"]["MON"]["throughput"] > 0


def test_cli_predict_validate_json_schema(capsys):
    rc = main(["predict", "MON", "2xVPN", "FW", "--validate", "--json"]
                      + CLI_ARGS)
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert validate_report(data) == []
    assert data["kind"] == "predict"
    assert data["results"]["deployment"] == ["MON", "VPN", "VPN", "FW"]
    assert len(data["results"]["predictions"]) == 4
    for entry in data["results"]["predictions"]:
        assert {"flow", "core", "predicted_drop", "predicted_pps",
                "measured_drop", "error"} <= set(entry)
    # --validate embeds the co-run's measured flow stats.
    assert len(data["flows"]) == 4


def test_cli_sweep_json_schema(capsys):
    rc = main(["sweep", "IP", "--competitors", "2", "--json"] + CLI_ARGS)
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert validate_report(data) == []
    assert data["kind"] == "sweep"
    points = data["results"]["points"]
    assert len(points) >= 3
    assert points[0] == [0.0, 0.0]  # zero competition -> zero drop
    assert data["results"]["turning_point_refs_per_sec"] > 0


def test_cli_metrics_interval_embeds_timeseries(capsys):
    rc = main(["profile", "FW", "--json", "--metrics-interval", "50"]
                      + CLI_ARGS)
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert validate_report(data) == []
    assert data["timeseries"]
    run0 = next(iter(data["timeseries"].values()))
    flow_points = next(iter(run0.values()))
    assert {"t0_s", "t1_s", "pps", "l3_hit_rate"} <= set(flow_points[0])


def test_cli_trace_writes_chrome_file(tmp_path, capsys):
    path = tmp_path / "cli_trace.json"
    rc = main(["profile", "IP", "--trace", str(path), "--trace-sample", "8"]
                      + CLI_ARGS)
    assert rc == 0
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    err = capsys.readouterr().err
    assert str(path) in err
