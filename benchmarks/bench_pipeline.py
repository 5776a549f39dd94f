"""Section 2.2: parallel vs. pipelined parallelization.

Checked shapes: for the realistic workload (MON), run-to-completion beats
the pipeline in per-core throughput and pipelining costs extra shared-
cache references per packet (the paper measured 10-15 extra misses); the
crafted adversarial workload (per-stage tables that individually fit an
L3 but jointly thrash one) is the exception where the pipeline wins.
"""

from repro.experiments import pipeline_vs_parallel


def test_pipeline_vs_parallel(benchmark, config, run_once, strict):
    result = run_once(
        benchmark,
        lambda: pipeline_vs_parallel.run(config.quicker(2)),
    )
    print()
    print(result.render())

    if not strict:
        return
    by_name = {c.workload: c for c in result.comparisons}
    mon = by_name["MON"]
    # The parallel approach wins per core for realistic workloads.
    assert mon.per_core_ratio < 0.95
    # Pipelining costs extra shared-cache references per packet.
    assert mon.extra_refs_per_packet > 2.0
    # The crafted workload inverts the outcome (paper Section 2.2 / [14]).
    scan = by_name["adversarial-scan"]
    assert scan.per_core_ratio > 1.0
