"""Figure 4: contention for the cache vs. the memory controller.

Reproduces the three Figure 3 placements. Paper shapes checked: the
shared cache is the dominant contention factor for every flow type
(cache-only max drop >> MC-only max drop); MC-only contention stays in
single digits; the combined configuration is at least as bad as
cache-only; drops grow with competing refs/sec.
"""

from repro.experiments import fig4

#: A reduced sweep keeps the 3 x 5-app x levels grid affordable.
BENCH_LEVELS = (720, 160, 60, 0)


def test_fig4_contended_resources(benchmark, config, profiles, run_once,
                                  strict):
    result = run_once(
        benchmark,
        lambda: fig4.run(config, cpu_ops_levels=BENCH_LEVELS,
                         profiles=profiles),
    )
    print()
    print(result.render())

    if not strict:
        return
    assert result.cache_dominates()
    for app in ("IP", "MON", "RE", "VPN"):
        cache_drop = result.max_drop("cache", app)
        mc_drop = result.max_drop("mc", app)
        assert cache_drop > 2 * mc_drop, (app, cache_drop, mc_drop)
        assert mc_drop < 0.10
        # Combined contention is at least cache-level (tolerance for noise).
        assert result.max_drop("both", app) > cache_drop * 0.8
    # MON is the most cache-sensitive flow, in the paper's 15-40% regime.
    assert 0.15 < result.max_drop("cache", "MON") < 0.40
    # Monotone-ish growth with competition for the sensitive flows.
    mon_curve = result.series[("cache", "MON")]
    assert mon_curve[-1][1] > mon_curve[0][1]
