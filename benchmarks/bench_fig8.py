"""Figure 8: prediction errors for the two-flow-type workloads.

Paper shapes checked: the method's errors are small on average; the
"perfect knowledge" variant is at least as accurate on average (the
solo-refs overestimate is the second error source); the worst errors are
over-predictions for sensitive-competitor scenarios. Paper magnitudes:
avg < 2pp, worst < 3pp; our simulator's documented deviation (IP/MON
competitors retain more cache hits than the paper's, see EXPERIMENTS.md)
widens the worst case while the average stays in the paper's regime.
"""

from repro.experiments import fig8


def test_fig8_prediction_errors(benchmark, fig2_result, predictor,
                                run_once, strict):
    result = run_once(benchmark, lambda: fig8.run(fig2_result, predictor))
    print()
    print(result.render())

    avg_errors = [result.average_abs_error(t) for t in result.apps]
    avg_perfect = [result.average_abs_error(t, perfect=True)
                   for t in result.apps]
    overall = sum(avg_errors) / len(avg_errors)
    overall_perfect = sum(avg_perfect) / len(avg_perfect)
    print(f"\noverall avg |error|: {100 * overall:.2f}pp "
          f"(perfect knowledge: {100 * overall_perfect:.2f}pp); "
          f"worst: {100 * result.worst_abs_error():.2f}pp")

    if not strict:
        return
    # Average accuracy in the paper's regime.
    assert overall < 0.045
    assert result.worst_abs_error() < 0.11
    # FW (insensitive) is predicted almost exactly.
    assert result.average_abs_error("FW") < 0.02
    # Perfect knowledge of the competition can only help on average.
    assert overall_perfect <= overall + 0.005
