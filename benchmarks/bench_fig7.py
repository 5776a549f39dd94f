"""Figure 7: hit-to-miss conversion, measured vs. the Appendix A model.

Paper shapes checked: conversion rises sharply then flattens; the simple
model reproduces the shape but overestimates the value (it assumes the
target accesses its data uniformly); per function, ``flow_statistics``
(uniform table) converts the most, ``radix_ip_lookup`` partially (hot top
levels), and the per-packet bookkeeping (``check_ip_header``,
``skb_recycle``) barely at all.
"""

from repro.experiments import fig7


def test_fig7_conversion_rates(benchmark, config, run_once, strict):
    result = run_once(benchmark, lambda: fig7.run(config))
    print()
    print(result.render())

    if not strict:
        return
    assert result.working_set_lines > 0
    measured = dict(result.measured)
    top_competition = max(measured)
    # Conversion grows with competition...
    assert measured[top_competition] > next(
        v for k, v in sorted(measured.items())
    )
    # ...and flattens: the first half of the range covers most of the rise.
    xs = sorted(measured)
    mid = xs[len(xs) // 2]
    assert measured[mid] > 0.5 * measured[top_competition]

    # The analytical model captures the shape but overestimates the value.
    model = dict(result.model)
    assert result.model_overestimates()
    assert model[top_competition] >= measured[top_competition] - 0.05

    # Per-function breakdown at the highest competition level.
    at_top = {fn: dict(pts)[top_competition]
              for fn, pts in result.per_function.items()}
    assert at_top["flow_statistics"] > at_top["radix_ip_lookup"]
    assert at_top["radix_ip_lookup"] > at_top["skb_recycle"]
    assert at_top["skb_recycle"] < 0.15
    assert at_top["flow_statistics"] > 0.4
