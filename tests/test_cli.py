"""CLI entry points (fast, tiny-scale invocations)."""

import pytest

from repro.cli import _parse_flows, build_parser, main


def test_parse_flows_expands_counts():
    assert _parse_flows(["2xMON", "FW"]) == ["MON", "MON", "FW"]
    assert _parse_flows(["IP"]) == ["IP"]


def test_parse_flows_rejects_unknown(capsys):
    # A usage error (2) before any simulation, not exit 1.
    assert main(["predict", "2xNAT"]) == 2
    assert "unknown flow type 'NAT'" in capsys.readouterr().err


def test_profile_main_runs(capsys):
    rc = main(["profile", "IP", "--scale", "64", "--warmup", "300",
               "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IP" in out
    assert "pkts/sec" in out


def test_predict_main_runs(capsys):
    rc = main(["predict", "FW", "FW", "--scale", "64", "--warmup", "300",
               "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FW@0" in out
    assert "predicted drop" in out


def test_predict_main_rejects_oversubscription(capsys):
    assert main(["predict", "7xFW", "--scale", "64"]) == 2
    assert "at most 6 flows per socket" in capsys.readouterr().err


def test_schedule_main_rejects_wrong_count(capsys):
    assert main(["schedule", "3xMON", "--scale", "64"]) == 2
    assert "need exactly 12 flows" in capsys.readouterr().err


def test_sweep_main_runs(capsys):
    rc = main(["sweep", "FW", "--scale", "64", "--warmup", "300",
               "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sensitivity curve" in out
    assert "turning point" in out
    assert "drop %" in out


# -- value parsing ------------------------------------------------------------

TINY = ["--scale", "64", "--warmup", "100", "--measure", "100", "--json"]


def test_hex_seed_matches_decimal(capsys):
    main(["profile", "IP", "--seed", "0x5EED"] + TINY)
    hex_report = capsys.readouterr().out
    main(["profile", "IP", "--seed", str(0x5EED)] + TINY)
    assert capsys.readouterr().out == hex_report


@pytest.mark.parametrize("sub", ["profile", "predict", "schedule"],
                         ids=lambda sub: f"{sub}_main")
@pytest.mark.parametrize("bad, message", [
    (["--seed", "0xZZ"], "invalid seed"),
    (["--scale", "0"], "must be >= 1"),
    (["--scale", "100000"], "collapses"),
    (["--warmup", "-5"], "must be >= 0"),
    (["--measure", "0"], "must be >= 1"),
    (["--jobs", "0"], "must be >= 1"),
    (["NAT"], "unknown flow type 'NAT'"),
])
def test_bad_values_exit_2(sub, bad, message, capsys):
    # argparse exits 2 itself; usage checks past parsing return 2.
    try:
        status = main([sub, "FW"] + bad)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    assert message in capsys.readouterr().err


def test_sweep_main_rejects_zero_competitors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "FW", "--competitors", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_engine_both_only_where_engines_are_compared(capsys):
    assert main(["profile", "IP", "--engine", "both"]) == 2
    assert main(["guard", "--inject", "two-faced", "--engine", "both"]) == 2
    assert "--engine both" in capsys.readouterr().err


def test_subcommand_defaults_stay_apart():
    parser = build_parser()
    profile = parser.parse_args(["profile"])
    assert (profile.engine, profile.scale, profile.seed) == ("scalar", 8,
                                                             0x5EED)
    assert parser.parse_args(["check"]).engine == "both"
    guard = parser.parse_args(["guard"])
    assert (guard.engine, guard.scale, guard.seed) == (None, None, None)
