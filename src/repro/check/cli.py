"""``repro-check`` — the scenario fuzzer / invariant-suite CLI.

Examples::

    repro-check --scenarios 200 --seed 0x5EED --engine both
    repro-check --scenarios 20 --inject-fault l3-snapshot-leak --no-corpus
    repro-check --replay tests/corpus
    python -m repro.check --scenarios 5 --json

Exit status 0 means every scenario passed every invariant (and, with
``--engine both``, that the engines agreed exactly); 1 means at least
one violation (reproductions are shrunk and written to the corpus
unless ``--no-corpus``); 2 means bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import argtypes
from .corpus import DEFAULT_CORPUS_DIR, corpus_paths, load_repro
from .invariants import DEFAULT_PROBE_INTERVAL
from .runner import (CheckOptions, CheckRunner, DEFAULT_SEED, ENGINE_SETS,
                     run_config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Fuzz randomized scenarios through the simulator's "
                    "runtime invariant checks.")
    parser.add_argument("--scenarios", type=argtypes.non_negative_int,
                        default=50, metavar="N",
                        help="scenarios to generate and check "
                        "(default: %(default)s)")
    parser.add_argument("--seed", type=argtypes.seed, default=DEFAULT_SEED,
                        metavar="S", help="master seed, decimal or 0x-hex "
                        "(default: 0x%(default)X)")
    parser.add_argument("--engine", choices=sorted(ENGINE_SETS),
                        default="both",
                        help="engine(s) to run each scenario on; 'both' "
                        "also cross-checks exact result equality "
                        "(default: %(default)s)")
    parser.add_argument("--shrink", dest="shrink", action="store_true",
                        default=True, help="shrink failing scenarios to a "
                        "minimal reproduction (default)")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="record failures unshrunk")
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
    parser.add_argument("--inject-fault", metavar="NAME", default=None,
                        help="self-test: apply a named fault from "
                        "repro.check.faults to every run (the suite is "
                        "then expected to FAIL)")
    parser.add_argument("--list-faults", action="store_true",
                        help="list known injectable faults and exit")
    parser.add_argument("--no-occupancy", dest="occupancy",
                        action="store_false", default=True,
                        help="skip the per-probe L3 occupancy partition "
                        "audit (faster on huge sweeps)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing scenario")
    parser.add_argument("--replay", metavar="DIR", default=None,
                        help="replay every corpus entry in DIR instead of "
                        "fuzzing (regression mode)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the run report JSON to PATH")
    parser.add_argument("--json", action="store_true",
                        help="print the run report JSON to stdout")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-failure progress lines")
    return parser


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
                                probe_interval=args.probe_interval,
                                check_occupancy=args.occupancy)
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_faults:
        from .faults import fault_names
        for name in fault_names():
            print(name)
        return 0
    if args.replay is not None:
        return _replay(args)

    options = CheckOptions(
        scenarios=args.scenarios,
        seed=args.seed,
        engines=ENGINE_SETS[args.engine],
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        probe_interval=args.probe_interval,
        inject_fault=args.inject_fault,
        sweep_equality=args.sweep_equality,
        check_occupancy=args.occupancy,
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

    runner = CheckRunner(options, progress=progress)
    result = runner.run()

    command = "repro-check " + " ".join(argv if argv is not None
                                        else sys.argv[1:])
    report = result.report(command=command.strip())
    if args.report:
        report.write(args.report)
    if args.json:
        print(report.to_json())
    else:
        verdict = "ok" if result.ok else "FAILED"
        print(f"repro-check: {len(result.outcomes)} scenarios, "
              f"{result.runs_checked} runs, "
              f"{result.windows_checked} windows checked, "
              f"{len(result.failures)} failing — {verdict} "
              f"({result.seconds:.1f}s)")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
