"""Figure 2: pairwise contention between realistic flow types.

Paper shapes checked: MON is the most sensitive target type and RE (with
MON close behind) the most damaging competitor class; FW barely suffers
and barely hurts; the per-target average ordering follows solo hits/sec
(MON > IP > {RE, VPN} > FW). Paper magnitudes for reference: worst pair
drop ~27% (MON vs 5 RE), FW always under ~6%.
"""

from repro.experiments import fig2
from repro.experiments.fig2 import PAPER_FIG2B


def test_fig2_pairwise_drops(benchmark, config, runner, run_once, strict):
    result = run_once(benchmark, lambda: fig2.run(config, runner=runner))
    print()
    print(result.render())
    print("\npaper Figure 2(b) averages: " + ", ".join(
        f"{k}={v:.1f}%" for k, v in PAPER_FIG2B.items()))

    if not strict:
        return
    averages = result.averages()
    # Sensitivity ordering (Figure 2(b)).
    assert result.most_sensitive() == "MON"
    assert averages["MON"] > averages["IP"] > averages["FW"]
    assert averages["FW"] == min(averages.values())
    # FW suffers little in every scenario (paper: < 6%).
    assert all(result.drops[("FW", c)] < 0.08 for c in result.apps)
    # Aggressiveness: MON/RE-class competitors dominate, FW is benign.
    def caused(comp):
        return sum(result.drops[(t, comp)] for t in result.apps)

    assert result.most_aggressive() in ("RE", "MON")
    assert caused("FW") < caused("IP")
    assert caused("FW") < caused("RE")
    # The worst observed pair lands in the paper's regime (10-35%).
    assert 0.10 < result.max_drop() < 0.40
