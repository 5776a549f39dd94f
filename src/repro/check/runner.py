"""The fuzzing loop: generate → run → check → shrink → record.

:class:`CheckRunner` drives N deterministic scenarios (see
:mod:`~repro.check.scenarios`) through the simulator with a live
:class:`~repro.check.invariants.InvariantChecker` attached, on one or
both execution engines. Per scenario it collects:

* **invariant violations** — conservation/monotonicity/capacity breaches
  observed by the windowed probe and the end-of-run audit;
* **engine-equality divergences** — when both engines run, their results
  are compared field-exactly with the engine-equality comparator the
  differential suite uses (:func:`repro.fastpath.diff.compare_results`);
* **sweep-equality divergences** (opt-in sample) — the scenario executed
  through the sharded sweep orchestrator (``jobs=2``, worker processes)
  must produce byte-identical payloads to the serial in-process run.

Failing scenarios are (optionally) shrunk to a minimal reproduction and
serialized into the regression corpus (:mod:`~repro.check.corpus`). The
whole run summarizes into a ``repro.run_report/1`` document of kind
``check`` for CI artifact upload.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..fastpath import clear_stream_cache
from ..fastpath.diff import compare_results
from ..hw.counters import SCALAR_FIELDS
from ..obs.report import RunReport
from .corpus import DEFAULT_CORPUS_DIR, ReproEntry, save_repro
from .invariants import DEFAULT_PROBE_INTERVAL, InvariantChecker
from .scenarios import ScenarioConfig, generate
from .shrink import shrink

#: Default master seed (also the CI acceptance seed).
DEFAULT_SEED = 0x5EED

#: Engine sets selectable from the CLI.
ENGINE_SETS = {
    "scalar": ("scalar",),
    "batch": ("batch",),
    "both": ("scalar", "batch"),
}


@dataclass
class CheckOptions:
    """Knobs of one fuzzing run."""

    scenarios: int = 50
    seed: int = DEFAULT_SEED
    engines: Tuple[str, ...] = ("scalar", "batch")
    #: Shrink failing configurations to a minimal reproduction.
    shrink: bool = True
    #: Directory failures are serialized into (None: do not record).
    corpus_dir: Optional[str] = DEFAULT_CORPUS_DIR
    #: Probe cadence of the windowed invariant checks, in cycles.
    probe_interval: float = DEFAULT_PROBE_INTERVAL
    #: Named fault from :mod:`repro.check.faults` applied to every run
    #: (self-test mode: the run is then *expected* to fail).
    inject_fault: Optional[str] = None
    #: Cross-check the first N scenarios through the sharded sweep
    #: orchestrator (serial vs ``jobs=2`` payload equality).
    sweep_equality: int = 0
    #: Stop after the first failing scenario.
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.scenarios < 0:
            raise ValueError("scenarios must be >= 0")
        for engine in self.engines:
            if engine not in ("scalar", "batch"):
                raise ValueError(f"unknown engine {engine!r}")


@dataclass
class ScenarioOutcome:
    """What happened to one scenario."""

    config: ScenarioConfig
    violations: List[str] = field(default_factory=list)
    engines: Tuple[str, ...] = ()
    shrunk: Optional[ScenarioConfig] = None
    corpus_path: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.config.name,
            "digest": self.config.digest(),
            "ok": self.ok,
            "violations": list(self.violations),
            "engines": list(self.engines),
            "seconds": round(self.seconds, 4),
        }
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk.to_dict()
        if self.corpus_path is not None:
            out["corpus_path"] = self.corpus_path
        return out


@dataclass
class CheckResult:
    """Aggregate outcome of a fuzzing run."""

    outcomes: List[ScenarioOutcome]
    options: CheckOptions
    runs_checked: int = 0
    windows_checked: int = 0
    seconds: float = 0.0

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self, command: str = "") -> RunReport:
        """The run as a ``kind="check"`` run report."""
        opts = self.options
        report = RunReport.new(
            "check", command=command, seed=opts.seed,
            config={
                "scenarios": opts.scenarios,
                "seed": opts.seed,
                "engines": list(opts.engines),
                "shrink": opts.shrink,
                "probe_interval": opts.probe_interval,
                "inject_fault": opts.inject_fault,
                "sweep_equality": opts.sweep_equality,
            })
        report.results = {
            "checked": len(self.outcomes),
            "failed": len(self.failures),
            "runs_checked": self.runs_checked,
            "windows_checked": self.windows_checked,
            "seconds": round(self.seconds, 3),
            "failures": [o.summary() for o in self.failures],
        }
        return report


def run_config(config: ScenarioConfig, engines: Sequence[str],
               probe_interval: float = DEFAULT_PROBE_INTERVAL,
               tally: Optional[Dict[str, int]] = None) -> List[str]:
    """Run one configuration under the invariant checks; all violations.

    The scenario runs once per engine with a fresh machine and a fresh
    (non-strict) checker, then — when both engines ran cleanly — the two
    results are compared field-exactly. ``tally`` (when given) gets its
    ``"runs"`` / ``"windows"`` entries incremented with checker totals.
    """
    violations: List[str] = []
    runs: Dict[str, Tuple[Any, Any]] = {}
    for engine in engines:
        checker = InvariantChecker(interval_cycles=probe_interval)
        checker.context = f"{config.name or 'scenario'}/{engine}"
        try:
            machine, result = config.run(engine=engine, checker=checker)
        except Exception as exc:  # noqa: BLE001 - a crash IS a finding
            violations.append(
                f"crash[{config.name}/{engine}]: "
                f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if tally is not None:
                tally["runs"] = tally.get("runs", 0) + checker.runs_checked
                tally["windows"] = (tally.get("windows", 0)
                                    + checker.windows_checked)
        violations.extend(str(v) for v in checker.violations)
        runs[engine] = (machine, result)
    if "scalar" in runs and "batch" in runs:
        ref_machine, ref_result = runs["scalar"]
        alt_machine, alt_result = runs["batch"]
        violations.extend(
            f"engine-equality[{config.name}]: {line}"
            for line in compare_results(ref_machine, ref_result,
                                        alt_machine, alt_result))
    return violations


def sweep_equality_check(config: ScenarioConfig) -> List[str]:
    """Serial vs sharded execution of one scenario must agree exactly.

    The scenario runs once inline (``jobs=1``) and once through worker
    processes (``jobs=2``, split into one shard per engine) — the plain
    JSON payloads crossing the process boundary must be identical.
    """
    from ..sweep.orchestrator import SweepOptions, SweepRunner
    from ..sweep.shard import Shard

    shards = [
        Shard(kind="check_scenario",
              params={"config": config.to_dict(), "engine": engine},
              tag=f"{config.name}/{engine}")
        for engine in ("scalar", "batch")
    ]
    serial = SweepRunner(SweepOptions(jobs=1)).run(shards)
    sharded = SweepRunner(SweepOptions(jobs=2)).run(shards)
    problems: List[str] = []
    serial_payloads = serial.payloads()
    sharded_payloads = sharded.payloads()
    for i, shard in enumerate(shards):
        tag = shard.tag
        key = serial.results[i].key
        a = serial_payloads.get(key)
        b = sharded_payloads.get(key)
        if a is None or b is None:
            problems.append(
                f"sweep-equality[{tag}]: shard missing "
                f"(serial={'ok' if a is not None else 'absent'}, "
                f"jobs=2={'ok' if b is not None else 'absent'})")
        elif a != b:
            problems.append(
                f"sweep-equality[{tag}]: serial and jobs=2 payloads differ")
    return problems


def scenario_payload(config: ScenarioConfig,
                     engine: Optional[str] = None) -> Dict[str, Any]:
    """One scenario's run as a plain-JSON payload (the shard currency).

    Carries the exact end-of-run counters of every flow plus the
    machine-wide totals — everything two executions must agree on — and
    any invariant violations observed while producing them.
    """
    checker = InvariantChecker()
    checker.context = f"{config.name or 'scenario'}/{engine or 'default'}"
    machine, result = config.run(engine=engine, checker=checker)
    flows = []
    for fr in machine.flows:
        flows.append({
            "label": fr.label,
            "clock": fr.clock,
            "counters": {name: getattr(fr.counters, name)
                         for name in SCALAR_FIELDS},
        })
    return {
        "name": config.name,
        "engine": engine,
        "events": result.events,
        "end_clock": result.end_clock,
        "flows": flows,
        "violations": [str(v) for v in checker.violations],
    }


class CheckRunner:
    """Drives the generate → run → check → shrink → record loop."""

    def __init__(self, options: Optional[CheckOptions] = None,
                 progress=None):
        self.options = options or CheckOptions()
        #: Optional ``progress(index, total, outcome)`` callback.
        self.progress = progress

    def _fault_context(self):
        if self.options.inject_fault:
            from .faults import inject
            return inject(self.options.inject_fault)
        return contextlib.nullcontext()

    def _fails(self, config: ScenarioConfig) -> bool:
        """Shrink predicate: does ``config`` still misbehave?"""
        opts = self.options
        with self._fault_context():
            return bool(run_config(config, opts.engines,
                                   probe_interval=opts.probe_interval))

    def check_one(self, config: ScenarioConfig, index: int = 0,
                  tally: Optional[Dict[str, int]] = None) -> ScenarioOutcome:
        """Run, check, and (on failure) shrink + record one scenario."""
        opts = self.options
        start = time.perf_counter()
        with self._fault_context():
            violations = run_config(
                config, opts.engines,
                probe_interval=opts.probe_interval, tally=tally)
            if index < opts.sweep_equality:
                violations.extend(sweep_equality_check(config))
        outcome = ScenarioOutcome(config=config, violations=violations,
                                  engines=opts.engines)
        if violations:
            minimal = config
            if opts.shrink:
                minimal = shrink(config, self._fails)
                if minimal is not config:
                    outcome.shrunk = minimal
            if opts.corpus_dir:
                entry = ReproEntry(
                    config=minimal,
                    violations=violations[:20],
                    engines=list(opts.engines),
                    injected_fault=opts.inject_fault,
                    note=f"found by repro-check seed={opts.seed:#x} "
                         f"scenario={config.name}",
                )
                outcome.corpus_path = save_repro(opts.corpus_dir, entry)
        outcome.seconds = time.perf_counter() - start
        return outcome

    def run(self) -> CheckResult:
        """The full fuzzing loop over ``options.scenarios`` scenarios."""
        opts = self.options
        start = time.perf_counter()
        # Pregenerated packet streams are keyed by flow identity; a long
        # fuzzing run would otherwise grow the process-wide cache without
        # bound (every scenario is unique).
        clear_stream_cache()
        configs = generate(opts.scenarios, opts.seed)
        outcomes: List[ScenarioOutcome] = []
        tally: Dict[str, int] = {}
        for i, config in enumerate(configs):
            outcome = self.check_one(config, index=i, tally=tally)
            outcomes.append(outcome)
            if self.progress is not None:
                self.progress(i, len(configs), outcome)
            if not outcome.ok and opts.fail_fast:
                break
            if i % 25 == 24:
                clear_stream_cache()
        clear_stream_cache()
        return CheckResult(outcomes=outcomes, options=opts,
                           runs_checked=tally.get("runs", 0),
                           windows_checked=tally.get("windows", 0),
                           seconds=time.perf_counter() - start)
