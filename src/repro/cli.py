"""The ``repro`` command: ``repro <sub>`` or ``python -m repro <sub>``.

``profile`` solo-profiles flow types (Table 1 rows); ``sweep`` prints a
flow type's sensitivity curve against SYN competitors; ``predict``
predicts a deployment's per-flow drops (``--validate`` also simulates
it); ``schedule`` runs the best/worst placement study; ``check`` fuzzes
scenarios through the invariant suite (:mod:`repro.check.cli`);
``guard`` runs the online SLO guard (:mod:`repro.guard.cli`).

Each flag is defined once, in a parent parser that every subcommand
taking it composes; :func:`main` is the tail they share. Results are
identical on either ``--engine`` and any ``--jobs``: the analysis
subcommands resolve their simulations as :mod:`repro.sweep` grids.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from . import argtypes
from .apps.registry import APP_NAMES, REALISTIC_APPS, describe_apps
from .check import cli as check_cli
from .constants import DEFAULT_SEED
from .core.asciiplot import plot_curve
from .core.prediction import ContentionPredictor, sweep_sensitivity
from .core.profiler import profile_apps
from .core.reporting import format_table, pct
from .core.scheduling import PlacementStudy
from .core.validation import run_corun
from .experiments.common import ExperimentConfig
from .guard import cli as guard_cli
from .hw.counters import performance_drop
from .obs import ChromeTraceSink, RunReport, Tracer, observe


# -- the shared flags: one parent parser per group -------------------------
# Each call builds fresh actions, so one subcommand's ``set_defaults``
# cannot leak into another's.

def _common_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seed", type=argtypes.seed, default=DEFAULT_SEED,
                        metavar="S", help="seed, decimal or 0x-hex")
    parser.add_argument("--engine", choices=("scalar", "batch", "both"),
                        default="scalar",
                        help="execution engine: 'scalar' (reference event "
                             "loop) or 'batch' (pregenerating engine, "
                             "identical results, faster); 'both' (check, "
                             "guard --fuzz) runs each scenario on both and "
                             "cross-checks the results")
    parser.add_argument("--json", action="store_true",
                        help="print the run report JSON to stdout instead "
                             "of text")
    return parser


def _run_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--scale", type=argtypes.scale, default=8,
                        metavar="F", help="platform scale-down factor")
    parser.add_argument("--warmup", type=argtypes.non_negative_int,
                        default=5000, metavar="N",
                        help="warm-up packets per flow")
    parser.add_argument("--measure", type=argtypes.positive_int,
                        default=1500, metavar="N",
                        help="measured packets per flow")
    parser.add_argument("--trace", type=argtypes.output_path,
                        metavar="PATH",
                        help="write a Chrome trace_event file of the "
                             "simulated runs to PATH")
    return parser


def _analysis_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace-sample", type=argtypes.positive_int,
                        default=1, metavar="N",
                        help="keep one traced packet in N "
                             "(default 1: every packet)")
    parser.add_argument("--metrics-interval", type=argtypes.positive_float,
                        default=None,
                        metavar="US", help="sample per-flow counter time "
                        "series every US simulated microseconds")
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
    return parser


def _output_flags() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--report", type=argtypes.output_path,
                        metavar="PATH",
                        help="write the run report JSON to PATH")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-failure and per-event progress "
                             "lines")
    return parser


# -- the analysis subcommands ---------------------------------------------

def _sweeping(args) -> bool:
    """Whether the report carries ``execution`` (a pool or a cache)."""
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


def _analysis(work):
    """A subcommand handler running ``work(args, config, runner)`` in the
    analysis session: every Machine built inside inherits the tracer,
    the metrics sampler and ``--engine``."""

    def run(args, tracer):
        from . import fastpath

        runner = _sweep_runner(args)
        config = ExperimentConfig(
            scale=args.scale, seed=args.seed,
            solo_warmup=args.warmup, solo_measure=args.measure,
            corun_warmup=args.warmup, corun_measure=args.measure)
        with observe(tracer=tracer,
                     metrics_interval_us=args.metrics_interval) as session:
            with fastpath.use_engine(args.engine):
                report = work(args, config, runner)
        report.results.setdefault("engine", args.engine)
        if _sweeping(args) and runner.stats_history:
            report.execution["sweep"] = runner.execution_stats()
        if args.metrics_interval is not None:
            report.timeseries.update(session.timeseries_payload())
        return 0, report

    return run


def _single_engine(args) -> Optional[str]:
    if args.engine == "both":
        return "--engine both runs only under check and guard --fuzz"


def _parse_flows(flows: List[str]) -> List[str]:
    """Expand ``2xMON``-style arguments into flow-name lists."""
    out: List[str] = []
    for token in flows:
        if "x" in token and token.split("x", 1)[0].isdigit():
            count, name = token.split("x", 1)
            out.extend([name] * int(count))
        else:
            out.append(token)
    return out


def _flows_error(args) -> Optional[str]:
    """What is wrong with the flow types (and, for predict and schedule,
    the deployment size) on the command line, or None."""
    problem = _single_engine(args)
    if problem:
        return problem
    flows = args.apps if args.sub == "profile" else _parse_flows(args.flows)
    unknown = [name for name in flows if name not in APP_NAMES]
    if unknown:
        return (f"unknown flow type {unknown[0]!r}; "
                f"known: {', '.join(APP_NAMES)}")
    spec = ExperimentConfig(scale=args.scale).spec()
    if args.sub == "predict" and len(flows) > spec.cores_per_socket:
        return f"at most {spec.cores_per_socket} flows per socket"
    if args.sub == "schedule" and len(flows) != spec.total_cores:
        return f"need exactly {spec.total_cores} flows"
    return None


def _profile(args, config, runner) -> RunReport:
    spec = config.socket_spec()
    profiles = profile_apps(args.apps, spec, seed=config.seed,
                            warmup_packets=config.solo_warmup,
                            measure_packets=config.solo_measure,
                            runner=runner)
    report = RunReport.new("profile", spec=spec, config=config)
    report.results["profiles"] = {
        app: {k: v for k, v in dataclasses.asdict(p).items() if k != "app"}
        for app, p in profiles.items()}
    if not args.json:
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
    return report


def _predict(args, config, runner) -> RunReport:
    flows = _parse_flows(args.flows)
    spec = config.socket_spec()
    types = sorted(set(flows))
    print(f"profiling {', '.join(types)} and sweeping sensitivity curves...",
          file=sys.stderr)
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
    report = RunReport.new("predict", spec=spec, config=config)
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
    return report


def _schedule(args, config, runner) -> RunReport:
    flows = _parse_flows(args.flows)
    spec = config.spec()
    types = sorted(set(flows))
    print(f"profiling {', '.join(types)}...", file=sys.stderr)
    profiles = profile_apps(types, spec, seed=config.seed,
                            warmup_packets=config.solo_warmup,
                            measure_packets=config.solo_measure,
                            runner=runner)
    study = PlacementStudy(spec, profiles, seed=config.seed,
                           warmup_packets=config.corun_warmup,
                           measure_packets=config.corun_measure)
    result = study.run(flows, method="simulate", runner=runner)
    report = RunReport.new("schedule", spec=spec, config=config)
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
    return report


def _sweep(args, config, runner) -> RunReport:
    spec = config.socket_spec()
    print(f"profiling {args.app} and sweeping {args.competitors} SYN "
          "competitors...", file=sys.stderr)
    curve = sweep_sensitivity(
        args.app, spec, seed=config.seed,
        n_competitors=args.competitors,
        warmup_packets=config.solo_warmup,
        measure_packets=config.solo_measure, runner=runner,
    )
    report = RunReport.new("sweep", spec=spec, config=config)
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
    return report


# -- the parser and the shared tail ---------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Toward Predictable Performance in Software "
                    "Packet-Processing Platforms': profile, sweep, predict, "
                    "place, check and guard.")
    subs = parser.add_subparsers(dest="sub", metavar="SUBCOMMAND",
                                 required=True)

    def add(name, run, groups, description, usage_error=_single_engine,
            **kwargs):
        sub = subs.add_parser(name, parents=[group() for group in groups],
                              help=description, description=description,
                              **kwargs)
        sub.set_defaults(run=run, usage_error=usage_error)
        return sub

    analysis = (_common_flags, _run_flags, _analysis_flags)
    sub = add("profile", _analysis(_profile), analysis,
              "Solo-profile packet-processing flow types (Table 1).",
              usage_error=_flows_error,
              epilog="Flow types: " + "; ".join(
                  f"{k}: {v}" for k, v in describe_apps().items()))
    sub.add_argument("apps", nargs="*", default=list(REALISTIC_APPS),
                     help="flow types to profile (default: all realistic)")

    sub = add("predict", _analysis(_predict), analysis,
              "Predict per-flow contention drops for a deployment sharing "
              "one socket.", usage_error=_flows_error)
    sub.add_argument("flows", nargs="+",
                     help="deployment, e.g. MON 2xVPN FW RE (max 6)")
    sub.add_argument("--validate", action="store_true",
                     help="also simulate the deployment and report errors")

    sub = add("schedule", _analysis(_schedule), analysis,
              "Best/worst flow-to-core placement for a 12-flow combination "
              "(Section 5 study).", usage_error=_flows_error)
    sub.add_argument("flows", nargs="+", help="12 flows, e.g. 6xMON 6xFW")

    sub = add("sweep", _analysis(_sweep), analysis,
              "Sweep a flow type against SYN competitors of rising "
              "refs/sec and print its sensitivity curve (prediction "
              "method, step 2).")
    sub.add_argument("app", choices=sorted(APP_NAMES),
                     help="flow type to sweep")
    sub.add_argument("--competitors", type=argtypes.positive_int, default=5,
                     help="number of SYN co-runners (default 5)")

    check_cli.add_arguments(add(
        "check", check_cli.run, (_common_flags, _output_flags),
        check_cli.DESCRIPTION, None))
    guard_cli.add_arguments(add(
        "guard", guard_cli.run, (_common_flags, _run_flags, _output_flags),
        guard_cli.DESCRIPTION, guard_cli.usage_error))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro``; returns the exit status.

    The shared tail of every subcommand: usage checks (exit 2, output
    paths included) before any simulation, the ``--trace`` tracer, and
    the report's ``command``, ``--report`` file and ``--json`` output.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    problem = args.usage_error(args) if args.usage_error else None
    if problem:
        print(f"repro {args.sub}: {problem}", file=sys.stderr)
        return 2
    tracer = None
    if getattr(args, "trace", None):
        tracer = Tracer(ChromeTraceSink(args.trace),
                        packet_sample=getattr(args, "trace_sample", 1))
    status, report = args.run(args, tracer)
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace}", file=sys.stderr)
    if report is not None:
        # Run records (check, guard: the subcommands with --report) hold
        # the whole invocation. Analysis reports name only the subcommand
        # so that they stay a function of the results alone: seed
        # spelling, --engine and --jobs do not show.
        run_record = hasattr(args, "report")
        report.command = " ".join(["repro"] + (argv if run_record
                                               else [args.sub]))
        if run_record and args.report:
            report.write(args.report)
        if args.json:
            print(report.to_json())
    return status
