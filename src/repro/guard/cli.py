"""``repro guard`` — the online SLO guard subcommand.

Examples::

    # The Section 4 two-faced containment demo (guarded by default):
    repro guard --inject two-faced --json
    repro guard --inject two-faced --unguarded      # exits 1: SLO violated

    # Admission + guarded run of a declared mix:
    repro guard --mix IP:0,MON:1,FW:2 --slo IP@0=0.10 --slo MON@1=0.15
    repro guard --mix IP:0,IP:1 --slo IP@0=0.05 --admit-only

    # Random-SLO fuzz over repro.check scenarios:
    repro guard --fuzz 50 --seed 0x5EED --report guard_fuzz.json

Exit status 0 means admitted and every SLO held (post-containment when
the guard had to act); 1 means a rejected mix, a violated SLO, or an
unhandled violation; 2 means bad usage. The shared flags are
:mod:`repro.cli`'s; this module adds the rest. Size and seed defaults
depend on the mode, so the shared ones default to None here.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Dict, List, Optional

from .. import argtypes
from ..apps.registry import APP_NAMES, app_factory
from ..check.runner import ENGINE_SETS
from ..core.prediction import ContentionPredictor
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from ..obs.report import RunReport
from .admission import AdmissionController, FlowRequest
from .demo import DEMO_SWEEP_LEVELS, DemoConfig, run_demo, victim_verdict
from .fuzz import GuardFuzzOptions, run_fuzz
from .slo import GUARD_SCHEMA, parse_slo
from .supervisor import GuardConfig, SLOGuard
from .wrappers import guarded_factory

DESCRIPTION = ("Online SLO guard: predictive admission control, runtime "
               "monitoring, and escalating containment.")


def _slo_arg(text: str) -> object:
    try:
        return parse_slo(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _mix_arg(text: str) -> List[tuple]:
    """Parse ``APP:CORE,APP:CORE,...`` into ``[(app, core), ...]``."""
    out = []
    for part in text.split(","):
        app, sep, core = part.strip().partition(":")
        if not sep or not app:
            raise argparse.ArgumentTypeError(
                f"invalid mix entry {part!r}; expected APP:CORE")
        try:
            out.append((app, int(core)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid core in {part!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty mix")
    return out


def add_arguments(parser) -> None:
    """The ``guard`` subcommand's own flags and defaults."""
    parser.set_defaults(seed=None, engine=None, scale=None, warmup=None,
                        measure=None)
    mode = parser.add_argument_group("mode")
    mode.add_argument("--mix", type=_mix_arg, metavar="APP:CORE,...",
                      default=None, help="evaluate and run this flow mix "
                      "under the guard")
    mode.add_argument("--inject", choices=("two-faced",), default=None,
                      help="run the Section 4 containment demo (a "
                      "two-faced aggressor pack vs an SLO'd victim)")
    mode.add_argument("--fuzz", type=argtypes.positive_int, metavar="N",
                      default=None, help="fuzz N repro.check scenarios "
                      "with random SLOs under the guard")
    parser.add_argument("--slo", type=_slo_arg, action="append",
                        default=[], metavar="LABEL=FRAC",
                        help="declare one flow's SLO, e.g. IP@0=0.10 "
                        "(repeatable)")
    parser.add_argument("--admit-only", action="store_true",
                        help="stop after the admission decision")
    parser.add_argument("--unguarded", action="store_true",
                        help="monitor and record violations but never "
                        "contain (the comparison run)")
    parser.add_argument("--trigger", type=argtypes.positive_int, metavar="N",
                        default=None, help="two-faced trigger packet "
                        "count (demo mode)")
    parser.add_argument("--interval", type=argtypes.positive_float,
                        default=None, metavar="CYCLES",
                        help="guard window cadence in simulated cycles")
    parser.add_argument("--fail-fast", action="store_true",
                        help="fuzz: stop at the first failing scenario")


#: Options fuzz mode has no use for: each scenario fixes its own
#: platform, packet counts and SLOs, and the guard runs
#: ``FUZZ_GUARD_CONFIG``. Passing one is a usage error, not a no-op.
_NOT_FUZZ = ("interval", "scale", "warmup", "measure", "trigger",
             "unguarded", "slo", "admit_only", "trace")


def usage_error(args) -> Optional[str]:
    """What is wrong with this combination of flags, or None."""
    if sum(x is not None for x in (args.mix, args.inject, args.fuzz)) > 1:
        return "choose one of --mix / --inject / --fuzz"
    if args.fuzz is not None:
        ignored = ["--" + name.replace("_", "-") for name in _NOT_FUZZ
                   if (value := getattr(args, name)) is not None
                   and value is not False and value != []]
        if ignored:
            return f"--fuzz does not take {', '.join(ignored)}"
        return None
    if args.engine == "both":
        return "--engine both runs only with --fuzz"
    if args.mix is None:
        if len(args.slo) > 1:
            return "demo mode takes at most one --slo (the victim's)"
        return None
    cores = PlatformSpec.westmere().total_cores
    used = set()
    for app, core in args.mix:
        if app not in APP_NAMES:
            return (f"--mix: unknown application {app!r} "
                    f"(known: {', '.join(APP_NAMES)})")
        if not 0 <= core < cores:
            return f"--mix: core {core} outside the platform (0-{cores - 1})"
        if core in used:
            return f"--mix: two flows on core {core}"
        used.add(core)
    labels = [f"{app}@{core}" for app, core in args.mix]
    unknown = sorted({s.label for s in args.slo} - set(labels))
    if unknown:
        return (f"--slo for unknown flow(s): {', '.join(unknown)} "
                f"(mix has {', '.join(labels)})")
    return None


def run(args, tracer=None):
    """The ``guard`` handler: (exit status, run report or None)."""
    if args.fuzz is not None:
        return _run_fuzz(args)
    if args.mix is not None:
        return _run_mix(args, tracer)
    # Default (and --inject two-faced): the containment demo.
    return _run_demo(args, tracer)


def _run_fuzz(args):
    options = GuardFuzzOptions(scenarios=args.fuzz, fail_fast=args.fail_fast,
                               engines=ENGINE_SETS[args.engine or "both"])
    if args.seed is not None:
        options.seed = args.seed
    result = run_fuzz(options)
    if not args.json:
        print(result.summary())
    return (0 if result.ok else 1), result.report()


def _run_demo(args, tracer):
    config = DemoConfig(guarded=not args.unguarded)
    overrides = {"scale": args.scale, "seed": args.seed,
                 "warmup": args.warmup, "measure": args.measure,
                 "engine": args.engine,
                 "trigger_packets": args.trigger,
                 "interval_cycles": args.interval,
                 "slo": args.slo[0].max_drop if args.slo else None}
    config = dataclasses.replace(
        config, **{k: v for k, v in overrides.items() if v is not None})

    decision, guard, _result, report = run_demo(config, tracer=tracer)
    verdict = victim_verdict(guard, config)
    if not args.json:
        print(decision.describe())
        if not args.quiet:
            for event in guard.events:
                print(str(event))
        mode = "guarded" if config.guarded else "unguarded"
        post = verdict["drop_post_containment"]
        print(f"repro-guard: {mode} run — victim overall drop "
              f"{verdict['drop_overall']:.1%}"
              + (f", post-containment {post:.1%}" if post is not None
                 else "")
              + f" vs SLO {config.slo:.1%}")
    if config.guarded:
        return (0 if verdict["within_slo"] else 1), report
    # The unguarded comparison is *expected* to violate: report failure
    # whenever the victim's measured drop exceeds its SLO.
    overall = verdict["drop_overall"]
    return (1 if overall is not None and overall > config.slo else 0), report


def _run_mix(args, tracer):
    scale = args.scale if args.scale is not None else 64
    seed = args.seed if args.seed is not None else 42
    warmup = args.warmup if args.warmup is not None else 40
    measure = args.measure if args.measure is not None else 400
    spec = PlatformSpec.westmere().scaled(scale)
    if all(core < spec.cores_per_socket for _, core in args.mix):
        spec = spec.single_socket()
    slos: Dict[str, float] = {s.label: s.max_drop for s in args.slo}
    labels = [f"{app}@{core}" for app, core in args.mix]

    apps = sorted({app for app, _ in args.mix})
    predictor = ContentionPredictor.build(
        apps, spec, seed=seed, cpu_ops_levels=DEMO_SWEEP_LEVELS,
        n_competitors=2, warmup_packets=warmup, measure_packets=measure)
    controller = AdmissionController(predictor, spec)
    requests = [
        FlowRequest(app, core, slo=slos.get(label), label=label)
        for (app, core), label in zip(args.mix, labels)]
    decision = controller.evaluate(requests)
    if not args.json:
        print(decision.describe())
    if args.admit_only or not decision.admitted:
        report = RunReport.new("guard", spec=spec, seed=seed)
        report.results = {"schema": GUARD_SCHEMA,
                          "admission": decision.to_dict()}
        return (0 if decision.admitted else 1), report

    baselines = {
        label: (predictor.profiles[app].throughput,
                predictor.profiles[app].l3_refs_per_sec)
        for (app, _), label in zip(args.mix, labels)}
    guard_config = GuardConfig(enforce=not args.unguarded)
    if args.interval is not None:
        guard_config = dataclasses.replace(
            guard_config, interval_cycles=args.interval)
    guard = SLOGuard(slos=slos, baselines=baselines, config=guard_config,
                     admission=decision)
    machine = Machine(spec, seed=seed, guard=guard, tracer=tracer)
    for (app, core), label in zip(args.mix, labels):
        machine.add_flow(guarded_factory(app_factory(app)), core=core,
                         label=label)
    machine.run(warmup_packets=warmup, measure_packets=measure,
                engine=args.engine)
    if not args.json and not args.quiet:
        for event in guard.events:
            print(str(event))
    ok = guard.ok
    if not args.json:
        print(f"repro-guard: mix run — "
              f"{'every SLO held' if ok else 'SLO VIOLATED'} "
              f"({len(guard.events)} guard event(s))")
    return (0 if ok else 1), guard.report(spec=spec)
