"""CLI entry points (fast, tiny-scale invocations)."""

import pytest

from repro.cli import _parse_flows, predict_main, profile_main, schedule_main


def test_parse_flows_expands_counts():
    assert _parse_flows(["2xMON", "FW"]) == ["MON", "MON", "FW"]
    assert _parse_flows(["IP"]) == ["IP"]


def test_parse_flows_rejects_unknown():
    with pytest.raises(SystemExit):
        _parse_flows(["2xNAT"])


def test_profile_main_runs(capsys):
    rc = profile_main(["IP", "--scale", "64", "--warmup", "300",
                       "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "IP" in out
    assert "pkts/sec" in out


def test_predict_main_runs(capsys):
    rc = predict_main(["FW", "FW", "--scale", "64", "--warmup", "300",
                       "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FW@0" in out
    assert "predicted drop" in out


def test_predict_main_rejects_oversubscription():
    with pytest.raises(SystemExit):
        predict_main(["7xFW", "--scale", "64"])


def test_schedule_main_rejects_wrong_count():
    with pytest.raises(SystemExit):
        schedule_main(["3xMON", "--scale", "64"])


def test_sweep_main_runs(capsys):
    from repro.cli import sweep_main

    rc = sweep_main(["FW", "--scale", "64", "--warmup", "300",
                     "--measure", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sensitivity curve" in out
    assert "turning point" in out
    assert "drop %" in out


# -- value parsing ------------------------------------------------------------

TINY = ["--scale", "64", "--warmup", "100", "--measure", "100", "--json"]


def test_hex_seed_matches_decimal(capsys):
    profile_main(["IP", "--seed", "0x5EED"] + TINY)
    hex_report = capsys.readouterr().out
    profile_main(["IP", "--seed", str(0x5EED)] + TINY)
    assert capsys.readouterr().out == hex_report


@pytest.mark.parametrize("main", [profile_main, predict_main, schedule_main])
@pytest.mark.parametrize("bad, message", [
    (["--seed", "0xZZ"], "invalid seed"),
    (["--scale", "0"], "must be >= 1"),
    (["--scale", "100000"], "collapses"),
    (["--warmup", "-5"], "must be >= 0"),
    (["--measure", "0"], "must be >= 1"),
    (["--jobs", "0"], "must be >= 1"),
])
def test_bad_values_exit_2(main, bad, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["FW"] + bad)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_sweep_main_rejects_zero_competitors(capsys):
    from repro.cli import sweep_main

    with pytest.raises(SystemExit) as exc:
        sweep_main(["FW", "--competitors", "0"])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
