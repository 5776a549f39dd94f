"""Section 6 boundary: multiple flows per core (L1/L2 interference).

Checked: two cache-hungry flows (MON+MON) time-sharing a core lose a
measurable fraction of the time-slicing ideal to private-cache
interference — with *zero* L3 competitors, so an L3-only predictor would
predict no loss at all. A compute-dominated partner (FW) shows almost no
such loss.
"""

from repro.experiments import multiflow


def test_multiflow_l1l2_interference(benchmark, config, run_once, strict):
    result = run_once(benchmark, lambda: multiflow.run(config))
    print()
    print(result.render())

    if not strict:
        return
    hungry = result.shortfall("MON+MON")
    mixed = result.shortfall("MON+IP")
    benign = result.shortfall("MON+FW")
    # Cache-hungry pairs lose noticeably to private-cache interference...
    assert hungry > 0.04
    assert mixed > 0.02
    # ...while the FW pair (compute-dominated turns) barely does.
    assert benign < hungry / 2
    assert benign < 0.05
