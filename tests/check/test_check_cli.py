"""The ``repro check`` command line, end to end (in process)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.check.corpus import corpus_paths
from repro.obs.report import validate_report

pytestmark = pytest.mark.check

FAST = ["--scenarios", "1", "--seed", "0x5EED", "--no-corpus"]


def test_clean_run_exits_zero(capsys):
    rc = main(["check"] + FAST + ["--engine", "scalar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 scenarios" in out and "ok" in out


def test_hex_and_decimal_seeds_agree(capsys):
    assert main(["check"] + FAST + ["--engine", "scalar"]) == 0
    hex_out = capsys.readouterr().out
    assert main(["check", "--scenarios", "1", "--seed", str(0x5EED),
                 "--no-corpus", "--engine", "scalar"]) == 0
    dec_out = capsys.readouterr().out
    # Same scenarios, same verdict (only the wall-clock suffix may vary).
    assert hex_out.rsplit("(", 1)[0] == dec_out.rsplit("(", 1)[0]


def test_injected_fault_fails_with_nonzero_exit(tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus")
    rc = main(["check", "--scenarios", "1", "--seed", "7",
               "--engine", "scalar", "--inject-fault", "event-undercount",
               "--corpus-dir", corpus_dir])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "shrunk to:" in out
    assert corpus_paths(corpus_dir)


def test_json_report_is_valid(capsys):
    rc = main(["check"] + FAST + ["--engine", "scalar", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate_report(doc) == []
    assert doc["kind"] == "check"
    assert doc["config"]["seed"] == 0x5EED


def test_report_file_written(tmp_path, capsys):
    path = tmp_path / "check_report.json"
    rc = main(["check"] + FAST + ["--engine", "scalar", "--report", str(path)])
    assert rc == 0
    with open(path) as fh:
        doc = json.load(fh)
    assert validate_report(doc) == []


def test_list_faults(capsys):
    assert main(["check", "--list-faults"]) == 0
    out = capsys.readouterr().out.split()
    assert "l3-snapshot-leak" in out
    assert "event-undercount" in out


def test_replay_round_trip(tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus")
    # Record a failure with a fault...
    assert main(["check", "--scenarios", "1", "--seed", "7",
                 "--engine", "scalar", "--inject-fault", "event-undercount", "--no-shrink",
                 "--corpus-dir", corpus_dir, "-q"]) == 1
    capsys.readouterr()
    # ...replaying it without the fault is clean (exit 0).
    assert main(["check", "--replay", corpus_dir, "--engine", "both",
                 "-q"]) == 0
    assert "0 still failing" in capsys.readouterr().out


def test_replay_empty_dir(tmp_path, capsys):
    assert main(["check", "--replay", str(tmp_path)]) == 0
    assert "no corpus entries" in capsys.readouterr().out


def test_replay_missing_dir_is_a_usage_error(tmp_path, capsys):
    # A misspelt path must not pass as an empty corpus.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--replay", str(tmp_path / "no-such-dir")])
    assert exc.value.code == 2
    assert "no such directory" in capsys.readouterr().err


def test_replay_still_failing_entry_exits_one(tmp_path, capsys):
    # An entry whose config cannot even build (unknown app) counts as a
    # crash finding: replay must report it and exit nonzero.
    from repro.check.corpus import ReproEntry, save_repro
    from repro.check.scenarios import FlowConf, ScenarioConfig

    broken = ScenarioConfig(seed=1, warmup=1, measure=30,
                            flows=(FlowConf("app", 0, app="NOPE"),),
                            name="still-broken")
    save_repro(str(tmp_path), ReproEntry(config=broken,
                                         violations=["[x] crash"],
                                         engines=["scalar"]))
    assert main(["check", "--replay", str(tmp_path),
                 "--engine", "scalar"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1 still failing" in out


def test_replay_reports_unreadable_entries_and_keeps_going(tmp_path, capsys):
    from repro.check.corpus import ReproEntry, save_repro
    from repro.check.scenarios import FlowConf, ScenarioConfig

    good = ScenarioConfig(seed=1, warmup=1, measure=30,
                          flows=(FlowConf("app", 0, app="IP"),), name="good")
    good_path = save_repro(str(tmp_path), ReproEntry(
        config=good, violations=["[x] once"], engines=["scalar"]))
    bad = {"repro_schema.json": '{"schema": "nope"}',
           "repro_noconfig.json": '{"schema": "repro.check_repro/1"}',
           "repro_notjson.json": "{not json"}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    assert main(["check", "--replay", str(tmp_path),
                 "--engine", "scalar"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for name in bad:
        [line] = [ln for ln in lines if name in ln]
        assert ": FAIL (unreadable: " in line
    assert f"repro-check: replay {good_path}: ok" in lines
    assert "replayed 4 corpus entries, 3 still failing" in lines[-1]


def test_bad_usage_rejected():
    with pytest.raises(SystemExit):
        main(["check", "--scenarios", "-3"])
    with pytest.raises(SystemExit):
        main(["check", "--seed", "zebra"])
    with pytest.raises(SystemExit):
        main(["check", "--engine", "warp"])
    with pytest.raises(SystemExit):
        main(["check", "--probe-interval", "0"])
    # A misspelt fault is bad usage (2), not a detected violation (1).
    with pytest.raises(SystemExit) as exc:
        main(["check", "--inject-fault", "nope"])
    assert exc.value.code == 2
