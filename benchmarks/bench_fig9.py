"""Figure 9: prediction for the mixed 12-flow workload.

The paper's mix (2 MON, 2 VPN, 1 FW, 1 RE per socket) predicted with a
maximum error of ~1.3pp. Checked: small mean error, bounded worst error,
and symmetric sockets producing consistent measurements.
"""

from repro.experiments import fig9


def test_fig9_mixed_workload(benchmark, config, runner, run_once,
                             strict):
    result = run_once(benchmark, lambda: fig9.run(config, runner=runner))
    print()
    print(result.render())
    print(f"\nmean |error| {100 * result.mean_abs_error():.2f}pp, "
          f"max |error| {100 * result.max_abs_error():.2f}pp "
          f"(paper: max ~1.3pp)")

    assert len(result.rows) == 12
    if not strict:
        return
    assert result.mean_abs_error() < 0.04
    assert result.max_abs_error() < 0.08
    # Per-app consistency: both MON flows on a socket suffer alike.
    mon_drops = [m for _, app, m, _ in result.rows if app == "MON"]
    assert max(mon_drops) - min(mon_drops) < 0.06
    # The mix's measured drops are all modest (paper: everything < ~25%).
    assert all(m < 0.3 for _, _, m, _ in result.rows)
