"""``repro check`` — the scenario fuzzer / invariant-suite subcommand.

Examples::

    repro check --scenarios 200 --seed 0x5EED --engine both
    repro check --scenarios 20 --inject-fault l3-snapshot-leak --no-corpus
    repro check --replay tests/corpus
    python -m repro check --scenarios 5 --json

Exit status 0 means every scenario passed every invariant (and, with
``--engine both``, that the engines agreed exactly); 1 means at least
one violation (reproductions are shrunk and written to the corpus
unless ``--no-corpus``); 2 means bad usage. The shared flags are
:mod:`repro.cli`'s; this module adds the rest.
"""

from __future__ import annotations

from .. import argtypes
from .corpus import DEFAULT_CORPUS_DIR, corpus_paths, load_repro
from .faults import fault_names
from .invariants import DEFAULT_PROBE_INTERVAL
from .runner import CheckOptions, CheckRunner, ENGINE_SETS, run_config

DESCRIPTION = ("Fuzz randomized scenarios through the simulator's runtime "
               "invariant checks.")


def add_arguments(parser) -> None:
    """The ``check`` subcommand's own flags and defaults."""
    parser.set_defaults(engine="both")
    parser.add_argument("--scenarios", type=argtypes.non_negative_int,
                        default=50, metavar="N",
                        help="scenarios to generate and check "
                        "(default: %(default)s)")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="record failures unshrunk (default: shrink "
                        "them to a minimal reproduction)")
    parser.add_argument("--corpus-dir", default=DEFAULT_CORPUS_DIR,
                        metavar="DIR", help="where failure repros are "
                        "written (default: %(default)s)")
    parser.add_argument("--no-corpus", dest="corpus_dir",
                        action="store_const", const=None,
                        help="do not record failures")
    parser.add_argument("--probe-interval", type=argtypes.positive_float,
                        default=DEFAULT_PROBE_INTERVAL, metavar="CYCLES",
                        help="cadence of the windowed invariant probe "
                        "(default: %(default)s)")
    parser.add_argument("--sweep-equality", type=argtypes.non_negative_int,
                        default=0, metavar="N",
                        help="also run the first N scenarios through the "
                        "sharded sweep orchestrator and require payload "
                        "equality with serial execution (default: off)")
    parser.add_argument("--inject-fault", choices=fault_names(),
                        metavar="NAME", help="self-test: apply a named fault from "
                        "repro.check.faults to every run (the suite is "
                        "then expected to FAIL)")
    parser.add_argument("--list-faults", action="store_true",
                        help="list known injectable faults and exit")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing scenario")
    parser.add_argument("--replay", type=argtypes.existing_dir,
                        metavar="DIR", default=None,
                        help="replay every corpus entry in DIR instead of "
                        "fuzzing (regression mode)")


def _replay(args) -> int:
    """Regression mode: every corpus entry must now run clean."""
    paths = corpus_paths(args.replay)
    if not paths:
        print(f"repro-check: no corpus entries under {args.replay}")
        return 0
    engines = ENGINE_SETS[args.engine]
    failed = 0
    for path in paths:
        try:
            entry = load_repro(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # One unreadable file must not hide what the others show.
            failed += 1
            print(f"repro-check: replay {path}: FAIL (unreadable: "
                  f"{type(exc).__name__}: {exc})")
            continue
        violations = run_config(entry.config, engines,
                                probe_interval=args.probe_interval)
        status = "FAIL" if violations else "ok"
        if violations:
            failed += 1
        if violations or not args.quiet:
            print(f"repro-check: replay {path}: {status}")
        for line in violations[:10]:
            print(f"  {line}")
    print(f"repro-check: replayed {len(paths)} corpus entries, "
          f"{failed} still failing")
    return 1 if failed else 0


def run(args, tracer=None):
    """The ``check`` handler: (exit status, run report or None)."""
    if args.list_faults:
        for name in fault_names():
            print(name)
        return 0, None
    if args.replay is not None:
        return _replay(args), None

    options = CheckOptions(
        scenarios=args.scenarios,
        seed=args.seed,
        engines=ENGINE_SETS[args.engine],
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        probe_interval=args.probe_interval,
        inject_fault=args.inject_fault,
        sweep_equality=args.sweep_equality,
        fail_fast=args.fail_fast,
    )

    def progress(i, total, outcome):
        if outcome.ok or args.quiet:
            return
        print(f"repro-check: FAIL {outcome.config.describe()}")
        for line in outcome.violations[:10]:
            print(f"  {line}")
        if outcome.shrunk is not None:
            print(f"  shrunk to: {outcome.shrunk.describe()}")
        if outcome.corpus_path is not None:
            print(f"  recorded: {outcome.corpus_path}")

    result = CheckRunner(options, progress=progress).run()
    if not args.json:
        verdict = "ok" if result.ok else "FAILED"
        print(f"repro-check: {len(result.outcomes)} scenarios, "
              f"{result.runs_checked} runs, "
              f"{result.windows_checked} windows checked, "
              f"{len(result.failures)} failing — {verdict} "
              f"({result.seconds:.1f}s)")
    return (0 if result.ok else 1), result.report()
