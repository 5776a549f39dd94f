"""Run the benchmark from the repository root.

    python3 perfbench/run.py --workload corun-scalar --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload prints a diagnostics line (provenance, raw seconds,
reference-loop drift, simulated counters, result digest) and then, as
the last line of standard output, the result object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones. ``--workload
all`` runs every workload in its own process, one after another, and
prints each metric by name and unit. Full reports (and, when traced, a
Chrome trace_event span file) are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corun-scalar", "predict-warm", "guard-fuzz")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh process; a table of every metric."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: {os.path.join(ROOT, 'src', 'repro')} not found; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.harness import OUT_DIR, run_workload

    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), out_dir=OUT_DIR)
    print(json.dumps({"diagnostics": report["diagnostics"]},
                     sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
