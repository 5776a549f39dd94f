"""Section 6 boundary: small competitor working sets break refs/sec.

Checked: competitors with sliver-sized working sets generate *at least*
as many cache refs/sec as standard SYN_MAX competitors (their accesses
hit, so they run fast) while causing far less damage, so the refs/sec
prediction overestimates them badly — the regime the paper explicitly
scopes out.
"""

from repro.experiments import limits


def test_limits_small_working_sets(benchmark, config, profiles, curves,
                                   run_once, strict):
    result = run_once(
        benchmark,
        lambda: limits.run(config, solo=profiles["MON"],
                           curve=curves["MON"]),
    )
    print()
    print(result.render())

    if not strict:
        return
    rows = {fraction: (refs, measured, predicted)
            for fraction, refs, measured, predicted in result.rows}
    smallest = min(rows)
    largest = max(rows)
    refs_small, drop_small, pred_small = rows[smallest]
    refs_large, drop_large, _ = rows[largest]
    # The sliver competitors reference the cache at a comparable-or-higher
    # rate, yet cause a fraction of the damage.
    assert refs_small > 0.8 * refs_large
    assert drop_small < 0.5 * drop_large
    # And the refs/sec prediction overestimates them badly (the paper's
    # stated limit of the method).
    assert result.overestimate(smallest) > 2 * abs(
        result.overestimate(largest))
