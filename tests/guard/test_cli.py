"""The ``repro guard`` subcommand: parsing, mode selection, exit codes."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.guard.fuzz import FUZZ_GUARD_CONFIG

pytestmark = pytest.mark.guard

SEED = 0x5EED


def test_parser_rejects_bad_values():
    parser = build_parser()
    for argv in (
        ["--slo", "IP@0"],          # missing fraction
        ["--slo", "IP@0=2.0"],      # out of range
        ["--mix", "IP"],            # missing core
        ["--mix", "IP:x"],          # non-integer core
        ["--mix", ""],              # empty
        ["--fuzz", "0"],            # not positive
        ["--seed", "zz"],           # not a number
        ["--interval", "-5"],       # not positive
        ["--engine", "warp"],       # unknown engine
        ["--inject", "three-faced"],  # unknown injection
    ):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(["guard"] + argv)
        assert err.value.code == 2, argv


def test_parser_accepts_hex_seed_and_mix():
    args = build_parser().parse_args(
        ["guard", "--mix", "IP:0,MON:1", "--slo", "IP@0=0.1",
         "--seed", "0x5EED"])
    assert args.mix == [("IP", 0), ("MON", 1)]
    assert args.seed == 0x5EED
    assert args.slo[0].label == "IP@0"


def test_modes_are_mutually_exclusive(capsys):
    assert main(["guard", "--mix", "IP:0", "--fuzz", "1"]) == 2
    assert main(["guard", "--fuzz", "1", "--inject", "two-faced"]) == 2
    assert "choose one of" in capsys.readouterr().err
    # Fuzz mode rejects the options it has no use for.
    for extra in (["--interval", "5000"], ["--scale", "16"],
                  ["--warmup", "10"], ["--warmup", "0"], ["--measure", "10"],
                  ["--trigger", "5"], ["--unguarded"],
                  ["--slo", "IP@0=0.1"], ["--admit-only"],
                  ["--trace", "t.jsonl"]):
        assert main(["guard", "--fuzz", "1"] + extra) == 2, extra
        assert f"--fuzz does not take {extra[0]}" in capsys.readouterr().err


def test_mix_rejects_slo_for_unknown_flow(capsys):
    assert main(["guard", "--mix", "IP:0", "--slo", "FW@3=0.1"]) == 2
    err = capsys.readouterr().err
    assert "FW@3" in err and "IP@0" in err


@pytest.mark.parametrize("mix, message", [
    ("NAT:0", "unknown application 'NAT'"),
    ("IP:0,FW:99", "core 99 outside the platform"),
    ("IP:-1", "core -1 outside the platform"),
    ("IP:0,MON:0", "two flows on core 0"),
])
def test_mix_rejects_unknown_apps_and_cores(mix, message, capsys):
    # A usage error (2) before any simulation, not a traceback (1).
    assert main(["guard", "--mix", mix]) == 2
    assert message in capsys.readouterr().err


def test_fuzz_mode_end_to_end(tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    code = main(["guard", "--fuzz", "1", "--seed", hex(SEED),
                 "--engine", "scalar", "--report", str(out)])
    assert code == 0
    assert "guard fuzz: 1 scenario(s)" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["kind"] == "guard"
    assert doc["seed"] == SEED
    assert doc["results"]["mode"] == "fuzz"
    assert doc["results"]["ok"] is True
    # The report states the cadence the guard observed at.
    guard_config = doc["results"]["guard_config"]
    assert guard_config["interval_cycles"] == 100_000.0
    assert guard_config == dataclasses.asdict(FUZZ_GUARD_CONFIG)
    assert doc["command"].startswith("repro guard --fuzz 1")


def test_fuzz_mode_json_output(capsys):
    code = main(["guard", "--fuzz", "1", "--seed", hex(SEED),
                 "--engine", "scalar", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["schema"] == "repro.guard_report/1"
