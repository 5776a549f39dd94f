#!/usr/bin/env python
"""Standalone benchmark recorder: regenerate ``BENCH_<name>.json`` files.

Runs the paper's figure experiments directly (no pytest/pytest-benchmark
required) and writes one machine-readable record per figure via
:class:`repro.obs.BenchRecorder` — the same schema the benchmark suite
emits, so CI can produce artifacts with::

    PYTHONPATH=src python benchmarks/record.py --quick

``--quick`` shrinks the platform (scale 1/64) and packet counts to a
smoke pass; the default configuration matches the benchmark harness
(scale 1/8, full packet counts — slow). Select a subset of figures by
name, e.g. ``record.py --quick table1 fig2``.

``--engine`` selects the execution engine: ``scalar`` (the default:
every flow on the live per-packet loop), or ``batch``/``both`` which time every
figure on the scalar engine *and* on the batch engine (cold stream
cache, then warm), verify the payloads are identical, and record the
speedups alongside the figure data. A payload divergence between
engines makes the run exit non-zero.

Every figure resolves its grid through one :mod:`repro.sweep` runner per
engine pass: inline by default, on N worker processes with ``--jobs N``
(the figure payloads are identical either way). Shard results are cached
in memory across figures (or on disk with ``--cache-dir``), so
prerequisites shared between figures — the solo profiles, the Figure 2
co-run grid — cost one execution per content key.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict

import repro.fastpath as fastpath
from repro.experiments import fig2, fig5, fig6, fig9, multiflow, table1
from repro.experiments.common import ExperimentConfig
from repro.obs.recorder import BenchRecorder, _jsonable
from repro.sweep import MemoryCache, ResultCache, SweepOptions, SweepRunner


def _record_table1(config, runner) -> dict:
    result = table1.run(config, runner=runner)
    return {"profiles": result.profiles}


def _record_fig2(config, runner) -> dict:
    result = fig2.run(config, runner=runner)
    return {
        "drops": result.drops,
        "averages": result.averages(),
        "max_drop": result.max_drop(),
        "most_sensitive": result.most_sensitive(),
        "most_aggressive": result.most_aggressive(),
    }


def _record_fig5(config, runner) -> dict:
    result = fig5.run(config, runner=runner)
    return {
        "curves": {t: c.points for t, c in result.curves.items()},
        "realistic_points": result.realistic_points,
        "deviations": {t: result.deviation(t) for t in result.curves},
    }


def _record_fig6(config, runner) -> dict:
    result = fig6.run(config, runner=runner)
    return {"curves": result.curves, "app_points": result.app_points}


def _record_fig9(config, runner) -> dict:
    result = fig9.run(config, runner=runner)
    return {
        "rows": result.rows,
        "mean_abs_error": result.mean_abs_error(),
        "max_abs_error": result.max_abs_error(),
    }


def _record_multiflow(config, runner) -> dict:
    result = multiflow.run(config, runner=runner)
    return {
        "rows": [list(row) for row in result.rows],
        "shortfalls": {label: result.shortfall(label)
                       for label, _ideal, _measured in result.rows},
    }


#: name -> payload builder ``(config, runner)``. Later figures reuse the
#: shards of earlier ones through the runner's cache.
FIGURES: Dict[str, Callable[[ExperimentConfig, SweepRunner], dict]] = {
    "table1": _record_table1,
    "fig2": _record_fig2,
    "fig5": _record_fig5,
    "fig6": _record_fig6,
    "fig9": _record_fig9,
    "multiflow": _record_multiflow,
}

#: The --quick subset: cheap enough for a CI smoke pass, still covering a
#: throughput table (table1), a drop matrix (fig2), and the shared-core
#: study (multiflow).
QUICK_FIGURES = ("table1", "fig2", "fig6", "multiflow")


def _canonical(payload: dict) -> str:
    """Engine-comparison form of a figure payload."""
    return json.dumps(_jsonable(payload), sort_keys=True, default=str)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate BENCH_<name>.json benchmark records.")
    parser.add_argument("figures", nargs="*",
                        help=f"figures to record (default: all; "
                             f"known: {', '.join(FIGURES)})")
    parser.add_argument("--quick", action="store_true",
                        help="smoke pass: scale 1/64, reduced packets, "
                             f"subset {'+'.join(QUICK_FIGURES)}")
    parser.add_argument("--scale", type=int, default=None,
                        help="override the platform scale-down factor")
    parser.add_argument("--out", default="bench_reports",
                        help="output directory (default bench_reports/)")
    parser.add_argument("--engine", choices=("scalar", "batch", "both"),
                        default="scalar",
                        help="'scalar' records the reference engine only; "
                             "'batch'/'both' time scalar vs. batch "
                             "(cold+warm stream cache), verify identical "
                             "payloads, and record the speedups")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run each figure as a sharded sweep on N "
                             "worker processes (payloads identical to "
                             "--jobs 1; scalar engine only)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="persist sweep shard results under PATH "
                             "(default: in-memory for the run; entries "
                             "are keyed by config+seed+engine+code "
                             "version)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable shard result caching entirely "
                             "(shared shards recompute per figure)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if (args.jobs > 1 or args.cache_dir) and args.engine != "scalar":
        parser.error("--jobs/--cache-dir support the scalar engine only "
                     "(the batch-vs-scalar timing comparison must run "
                     "unsharded)")

    if args.quick:
        config = ExperimentConfig(
            scale=args.scale or 64,
            solo_warmup=500, solo_measure=500,
            corun_warmup=300, corun_measure=300,
        )
        names = list(args.figures or QUICK_FIGURES)
    else:
        config = ExperimentConfig(scale=args.scale or 8)
        names = list(args.figures or FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}; "
                     f"known: {', '.join(FIGURES)}")

    recorder = BenchRecorder(args.out, config=config)

    def new_runner() -> SweepRunner:
        """One engine pass's runner; its cache shares shards across
        figures (solo profiles et al. run once per content key)."""
        if args.no_cache:
            cache = None
        elif args.cache_dir:
            cache = ResultCache(args.cache_dir)
        else:
            cache = MemoryCache()
        return SweepRunner(SweepOptions(jobs=args.jobs, cache=cache))

    if args.engine == "scalar":
        runner = new_runner()
        for name in names:
            start = time.perf_counter()
            payload = FIGURES[name](config, runner)
            elapsed = time.perf_counter() - start
            payload["engine"] = "scalar"
            payload["seconds"] = elapsed
            path = recorder.record(name, payload)
            print(f"[{elapsed:7.2f}s] {name:9s} -> {path}", file=sys.stderr)
        print(f"{len(recorder.written)} record(s) in {args.out}/",
              file=sys.stderr)
        stats = runner.execution_stats()
        print(f"sweep: {stats['shards']} shard(s), "
              f"{stats['executed']} executed, "
              f"{stats['cache_hits']} cache hit(s), "
              f"{stats['quarantined']} quarantined "
              f"on {stats['jobs']} job(s)", file=sys.stderr)
        return 0

    # batch / both: one scalar reference pass, one cold-cache batch pass,
    # one warm-cache batch pass — figure by figure so each record carries
    # its own three timings. Each pass has its own runner (and shard
    # cache), exactly like three independent record.py invocations.
    scalar_runner, cold_runner, warm_runner = (new_runner(), new_runner(),
                                               new_runner())
    fastpath.clear_stream_cache()
    diverged = []
    for name in names:
        start = time.perf_counter()
        ref_payload = FIGURES[name](config, scalar_runner)
        t_scalar = time.perf_counter() - start
        with fastpath.use_engine("batch"):
            start = time.perf_counter()
            cold_payload = FIGURES[name](config, cold_runner)
            t_cold = time.perf_counter() - start
            start = time.perf_counter()
            warm_payload = FIGURES[name](config, warm_runner)
            t_warm = time.perf_counter() - start
        ref_c = _canonical(ref_payload)
        matches = {
            "batch_cold": _canonical(cold_payload) == ref_c,
            "batch_warm": _canonical(warm_payload) == ref_c,
        }
        payload = dict(ref_payload)
        payload["engine"] = "both"
        payload["engines"] = {
            "scalar_seconds": t_scalar,
            "batch_cold_seconds": t_cold,
            "batch_warm_seconds": t_warm,
            "payload_match": matches,
        }
        payload["speedup_cold"] = t_scalar / t_cold if t_cold else 0.0
        payload["speedup"] = t_scalar / t_warm if t_warm else 0.0
        path = recorder.record(name, payload)
        print(f"[scalar {t_scalar:6.2f}s | batch {t_cold:6.2f}s cold "
              f"{t_warm:6.2f}s warm | x{payload['speedup_cold']:.2f}/"
              f"x{payload['speedup']:.2f}] {name:9s} -> {path}",
              file=sys.stderr)
        for pass_label, ok in matches.items():
            if not ok:
                diverged.append(f"{name}:{pass_label}")
    print(f"{len(recorder.written)} record(s) in {args.out}/",
          file=sys.stderr)
    if diverged:
        print("ENGINE DIVERGENCE: payload mismatch in "
              + ", ".join(diverged), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
