"""Command-line tools.

* ``repro-profile`` — solo-profile flow types (Table 1 rows).
* ``repro-predict`` — build the predictor and predict a deployment's
  per-flow drops (optionally validating against a simulation).
* ``repro-schedule`` — best/worst placement study for a flow combination.
* ``repro-sweep`` — sensitivity curve of one flow type vs. SYN competitors,
  with an ASCII rendering of the curve.

Every tool supports the observability flags: ``--json`` emits a
machine-readable :class:`~repro.obs.RunReport` instead of ASCII tables,
``--trace PATH`` writes a Chrome ``trace_event`` file of every simulated
run (open in ``about:tracing`` or Perfetto), and ``--metrics-interval US``
samples per-flow counter time series every US simulated microseconds
(embedded in the JSON report). ``--engine {scalar,batch}`` selects the
execution engine — results are identical, the batch engine is faster on
sweeps (see :mod:`repro.fastpath`).

Every tool resolves its independent simulations (solo profiles,
sensitivity-sweep levels, placement co-runs) as one :mod:`repro.sweep`
grid: inline by default, on N worker processes with ``--jobs N`` —
results are bit-identical either way. ``--jobs N`` (N > 1) or
``--cache-dir`` also caches shard results (default directory
``~/.cache/repro-sweep``, keyed by config + seed + engine + code
version; ``--no-cache`` disables), and the JSON report then records the
cache/quarantine counters under its volatile ``execution`` key.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from . import argtypes
from .apps.registry import APP_NAMES, REALISTIC_APPS, describe_apps
from .core.asciiplot import plot_curve
from .core.prediction import ContentionPredictor, sweep_sensitivity
from .core.profiler import profile_apps
from .core.reporting import format_table, pct
from .core.scheduling import PlacementStudy
from .core.validation import run_corun
from .experiments.common import ExperimentConfig
from .hw.counters import performance_drop
from .obs import ChromeTraceSink, RunReport, Tracer, observe


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=argtypes.scale, default=8,
                        help="platform scale-down factor (default 8)")
    parser.add_argument("--seed", type=argtypes.seed, default=0x5EED,
                        help="seed, decimal or 0x-hex (default 0x5EED)")
    parser.add_argument("--warmup", type=argtypes.non_negative_int,
                        default=5000, help="warm-up packets per flow")
    parser.add_argument("--measure", type=argtypes.positive_int,
                        default=1500, help="measured packets per flow")
    parser.add_argument("--json", action="store_true",
                        help="emit a RunReport JSON document instead of "
                             "ASCII tables")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_event file of the "
                             "simulated runs to PATH")
    parser.add_argument("--trace-sample", type=argtypes.positive_int,
                        default=1, metavar="N",
                        help="keep one traced packet in N "
                             "(default 1: every packet)")
    parser.add_argument("--metrics-interval", type=argtypes.positive_float,
                        default=None,
                        metavar="US", help="sample per-flow counter time "
                        "series every US simulated microseconds")
    parser.add_argument("--engine", choices=("scalar", "batch"),
                        default="scalar",
                        help="execution engine: 'scalar' (reference event "
                             "loop) or 'batch' (pregenerating engine, "
                             "identical results, faster)")
    parser.add_argument("--jobs", type=argtypes.positive_int, default=1,
                        metavar="N",
                        help="run independent simulations as N parallel "
                             "worker processes (results are identical to "
                             "--jobs 1; default 1)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="sweep result cache directory (default: "
                             "~/.cache/repro-sweep when sweeping in "
                             "parallel; entries are keyed by config, "
                             "seed, engine, and code version)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the sweep result cache")


def _sweeping(args) -> bool:
    """Whether the run asked for the pool or a cache (``--jobs > 1`` or
    ``--cache-dir``); only then does the report carry ``execution``."""
    return args.jobs > 1 or args.cache_dir is not None


def _sweep_runner(args):
    """The :class:`~repro.sweep.SweepRunner` every grid of the tool
    resolves on: inline and uncached unless :func:`_sweeping`."""
    from .sweep import (ResultCache, SweepOptions, SweepRunner,
                        default_cache_dir)

    cache = None
    if _sweeping(args) and not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepRunner(SweepOptions(jobs=args.jobs, engine=args.engine,
                                    cache=cache))


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(
        scale=args.scale, seed=args.seed,
        solo_warmup=args.warmup, solo_measure=args.measure,
        corun_warmup=args.warmup, corun_measure=args.measure,
    )


def _observe(args, parser: argparse.ArgumentParser):
    """The obs+engine session for one CLI invocation, from its flags.

    Combines the observability session with the ambient-engine context,
    so every Machine the tools build internally runs on ``--engine``.
    """
    tracer = None
    if args.trace:
        try:
            tracer = Tracer(ChromeTraceSink(args.trace),
                            packet_sample=args.trace_sample)
        except OSError as exc:
            parser.error(f"--trace: cannot write {args.trace}: {exc}")

    @contextmanager
    def _session():
        from . import fastpath

        with observe(tracer=tracer,
                     metrics_interval_us=args.metrics_interval) as session:
            with fastpath.use_engine(args.engine):
                yield session

    return _session()


def _finish(args, session, report: RunReport, runner) -> None:
    """Common tail: attach time series, emit JSON, announce the trace."""
    report.results.setdefault("engine", args.engine)
    if _sweeping(args) and runner.stats_history:
        report.execution["sweep"] = runner.execution_stats()
    if args.metrics_interval is not None:
        report.timeseries.update(session.timeseries_payload())
    if args.json:
        print(report.to_json())
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)


def _parse_flows(flows: List[str]) -> List[str]:
    """Expand ``2xMON``-style arguments into flow-name lists."""
    out: List[str] = []
    for token in flows:
        if "x" in token and token.split("x", 1)[0].isdigit():
            count, name = token.split("x", 1)
            out.extend([name] * int(count))
        else:
            out.append(token)
    for name in out:
        if name not in APP_NAMES:
            raise SystemExit(
                f"unknown flow type {name!r}; known: {', '.join(APP_NAMES)}"
            )
    return out


def profile_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-profile``."""
    parser = argparse.ArgumentParser(
        description="Solo-profile packet-processing flow types (Table 1).",
        epilog="Flow types: " + "; ".join(
            f"{k}: {v}" for k, v in describe_apps().items()),
    )
    parser.add_argument("apps", nargs="*", default=list(REALISTIC_APPS),
                        help="flow types to profile (default: all realistic)")
    _add_common(parser)
    args = parser.parse_args(argv)
    apps = args.apps or list(REALISTIC_APPS)
    config = _config(args)
    spec = config.socket_spec()
    runner = _sweep_runner(args)
    with _observe(args, parser) as session:
        profiles = profile_apps(apps, spec, seed=config.seed,
                                warmup_packets=config.solo_warmup,
                                measure_packets=config.solo_measure,
                                runner=runner)
    if args.json:
        report = RunReport.new("profile", spec=spec, config=config,
                               command="repro-profile")
        report.results["profiles"] = {
            app: {
                "throughput": p.throughput,
                "cycles_per_packet": p.cycles_per_packet,
                "cycles_per_instruction": p.cycles_per_instruction,
                "l3_refs_per_sec": p.l3_refs_per_sec,
                "l3_hits_per_sec": p.l3_hits_per_sec,
                "l3_refs_per_packet": p.l3_refs_per_packet,
                "l3_misses_per_packet": p.l3_misses_per_packet,
                "l2_hits_per_packet": p.l2_hits_per_packet,
            }
            for app, p in profiles.items()
        }
    else:
        rows = [
            [app, f"{p.throughput:,.0f}", f"{p.cycles_per_packet:.0f}",
             f"{p.cycles_per_instruction:.2f}",
             f"{p.l3_refs_per_sec / 1e6:.1f}M", f"{p.l3_hits_per_sec / 1e6:.1f}M"]
            for app, p in profiles.items()
        ]
        print(format_table(
            ["flow", "pkts/sec", "cyc/pkt", "CPI", "L3 refs/s", "L3 hits/s"],
            rows, title=f"Solo profiles (scale 1/{args.scale})",
        ))
        report = RunReport.new("profile", spec=spec, config=config)
    _finish(args, session, report, runner)
    return 0


def predict_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-predict``."""
    parser = argparse.ArgumentParser(
        description="Predict per-flow contention drops for a deployment "
                    "sharing one socket.",
    )
    parser.add_argument("flows", nargs="+",
                        help="deployment, e.g. MON 2xVPN FW RE (max 6)")
    parser.add_argument("--validate", action="store_true",
                        help="also simulate the deployment and report errors")
    _add_common(parser)
    args = parser.parse_args(argv)
    flows = _parse_flows(args.flows)
    config = _config(args)
    spec = config.socket_spec()
    if len(flows) > spec.cores_per_socket:
        raise SystemExit(f"at most {spec.cores_per_socket} flows per socket")
    types = sorted(set(flows))
    print(f"profiling {', '.join(types)} and sweeping sensitivity curves...",
          file=sys.stderr)
    runner = _sweep_runner(args)
    with _observe(args, parser) as session:
        predictor = ContentionPredictor.build(
            types, spec, seed=config.seed,
            warmup_packets=config.solo_warmup,
            measure_packets=config.solo_measure, runner=runner,
        )
        measured = {}
        corun = None
        if args.validate:
            placement = [(app, core) for core, app in enumerate(flows)]
            corun = run_corun(placement, spec, seed=config.seed,
                              warmup_packets=config.corun_warmup,
                              measure_packets=config.corun_measure)
            for app, core in placement:
                label = f"{app}@{core}"
                measured[core] = performance_drop(
                    predictor.profiles[app].throughput, corun.throughput[label]
                )
    report = RunReport.new("predict", spec=spec, config=config,
                           command="repro-predict")
    predictions = []
    rows = []
    for core, app in enumerate(flows):
        competitors = flows[:core] + flows[core + 1:]
        predicted = predictor.predict_drop(app, competitors)
        predicted_pps = predictor.predict_throughput(app, competitors)
        entry = {"flow": app, "core": core, "predicted_drop": predicted,
                 "predicted_pps": predicted_pps}
        row = [f"{app}@{core}", pct(predicted), f"{predicted_pps:,.0f}"]
        if args.validate:
            entry["measured_drop"] = measured[core]
            entry["error"] = predicted - measured[core]
            row.extend([pct(measured[core]), pct(predicted - measured[core])])
        predictions.append(entry)
        rows.append(row)
    report.results["deployment"] = flows
    report.results["predictions"] = predictions
    if corun is not None:
        report.add_result_flows(corun.result)
    if not args.json:
        headers = ["flow", "predicted drop", "predicted pkts/sec"]
        if args.validate:
            headers.extend(["measured drop", "error"])
        print(format_table(headers, rows, title="Deployment prediction"))
    _finish(args, session, report, runner)
    return 0


def schedule_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-schedule``."""
    parser = argparse.ArgumentParser(
        description="Best/worst flow-to-core placement for a 12-flow "
                    "combination (Section 5 study).",
    )
    parser.add_argument("flows", nargs="+",
                        help="12 flows, e.g. 6xMON 6xFW")
    _add_common(parser)
    args = parser.parse_args(argv)
    flows = _parse_flows(args.flows)
    config = _config(args)
    spec = config.spec()
    if len(flows) != spec.total_cores:
        raise SystemExit(f"need exactly {spec.total_cores} flows")
    types = sorted(set(flows))
    print(f"profiling {', '.join(types)}...", file=sys.stderr)
    runner = _sweep_runner(args)
    with _observe(args, parser) as session:
        profiles = profile_apps(types, spec, seed=config.seed,
                                warmup_packets=config.solo_warmup,
                                measure_packets=config.solo_measure,
                                runner=runner)
        study = PlacementStudy(spec, profiles, seed=config.seed,
                               warmup_packets=config.corun_warmup,
                               measure_packets=config.corun_measure)
        result = study.run(flows, method="simulate", runner=runner)
    report = RunReport.new("schedule", spec=spec, config=config,
                           command="repro-schedule")
    report.results["deployment"] = flows
    report.results["scheduling_gain"] = result.scheduling_gain
    for name, outcome in (("best", result.best), ("worst", result.worst)):
        report.results[name] = {
            "split": [list(group) for group in outcome.split],
            "average_drop": outcome.average_drop,
            "per_flow_drop": dict(outcome.per_flow_drop),
        }
    if not args.json:
        print(format_table(
            ["placement", "avg drop"],
            [["best:  " + " | ".join("+".join(g) for g in result.best.split),
              pct(result.best.average_drop)],
             ["worst: " + " | ".join("+".join(g) for g in result.worst.split),
              pct(result.worst.average_drop)]],
            title="Contention-aware scheduling study",
        ))
        print(f"\nmaximum overall gain from placement: "
              f"{pct(result.scheduling_gain)}")
    _finish(args, session, report, runner)
    return 0


def sweep_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-sweep``."""
    parser = argparse.ArgumentParser(
        description="Sweep a flow type against SYN competitors of rising "
                    "refs/sec and print its sensitivity curve "
                    "(prediction method, step 2).",
    )
    parser.add_argument("app", choices=sorted(APP_NAMES),
                        help="flow type to sweep")
    parser.add_argument("--competitors", type=argtypes.positive_int,
                        default=5,
                        help="number of SYN co-runners (default 5)")
    _add_common(parser)
    args = parser.parse_args(argv)
    config = _config(args)
    spec = config.socket_spec()
    print(f"profiling {args.app} and sweeping {args.competitors} SYN "
          "competitors...", file=sys.stderr)
    runner = _sweep_runner(args)
    with _observe(args, parser) as session:
        curve = sweep_sensitivity(
            args.app, spec, seed=config.seed,
            n_competitors=args.competitors,
            warmup_packets=config.solo_warmup,
            measure_packets=config.solo_measure, runner=runner,
        )
    report = RunReport.new("sweep", spec=spec, config=config,
                           command="repro-sweep")
    report.results["app"] = args.app
    report.results["n_competitors"] = args.competitors
    report.results["points"] = [[refs, drop] for refs, drop in curve.points]
    report.results["turning_point_refs_per_sec"] = curve.turning_point()
    if not args.json:
        rows = [[f"{refs / 1e6:.1f}M", pct(drop)] for refs, drop in curve.points]
        print(format_table(["competing refs/s", "drop"], rows,
                           title=f"{args.app} sensitivity curve"))
        print()
        print(plot_curve(
            [(refs / 1e6, 100 * drop) for refs, drop in curve.points],
            name=args.app, x_label="competing Mrefs/s", y_label="drop %",
        ))
        print(f"\nturning point (80% of max drop): "
              f"{curve.turning_point() / 1e6:.1f}M refs/s")
    _finish(args, session, report, runner)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(profile_main())
