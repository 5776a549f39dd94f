"""Figure 6: Equation 1's worst-case drop bound.

Checked: the analytic curves are monotone in delta and hits/sec; each
measured flow's worst-case point follows the hits/sec ordering (MON's
bound highest, FW's lowest); and every drop actually measured in the
Figure 2 matrix respects its target's Equation-1 bound.
"""

from repro.constants import DELTA_NS
from repro.core.equation1 import worst_case_drop
from repro.experiments import fig6


def test_fig6_worst_case_bound(benchmark, config, runner, profiles,
                               fig2_result, run_once, strict):
    result = run_once(benchmark, lambda: fig6.run(config, runner=runner))
    print()
    print(result.render())

    if not strict:
        return
    points = result.app_points
    assert points["MON"][1] == max(v for _, v in points.values())
    assert points["FW"][1] == min(v for _, v in points.values())
    # Curves: delta=60ns dominates delta=30ns pointwise.
    for (_, lo), (_, hi) in zip(result.curves[30.0], result.curves[60.0]):
        assert hi >= lo
    # Every measured drop respects its flow's worst-case bound.
    for (target, _), drop in fig2_result.drops.items():
        bound = worst_case_drop(profiles[target].l3_hits_per_sec, DELTA_NS)
        assert drop <= bound + 0.03, (target, drop, bound)
