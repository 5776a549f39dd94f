"""Random-SLO fuzz: the guard must stay sane on arbitrary scenarios.

Reuses the :mod:`repro.check` scenario generator: every generated flow
is wrapped in a :class:`~repro.guard.wrappers.GuardedFlow` (giving the
supervisor a control surface on every core) and a deterministic subset
of flows gains a random SLO drawn from :data:`SLO_LEVELS`. The guard
runs with self-calibrated baselines and full enforcement, beside an
:class:`~repro.check.InvariantChecker`, on both engines.

The contract under test is *not* that random SLOs are met — many are
infeasible by construction — but that the guard itself never misbehaves:

* no crash anywhere in the probe/escalation path;
* zero *unhandled* violations (every breached window produced a
  structured guard event);
* all machine and guard-state invariants hold;
* the scalar and batch engines produce byte-identical guard event
  streams (the guard's control decisions are deterministic).
"""

from __future__ import annotations

import random
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import fastpath
from ..check.invariants import InvariantChecker
from ..check.runner import DEFAULT_SEED
from ..check.scenarios import ScenarioConfig, generate_one
from ..hw.machine import Machine
from .slo import GUARD_SCHEMA
from .supervisor import GuardConfig, SLOGuard
from .wrappers import guarded_factory

#: SLO levels the fuzzer assigns (max tolerated drop fractions).
SLO_LEVELS = (0.05, 0.1, 0.2, 0.35, 0.5)

#: Fraction of flows that get an SLO (the rest are pure competitors).
SLO_PROBABILITY = 0.7

#: Seed perturbation for the SLO-assignment stream (decoupled from the
#: scenario's own machine seed, but derived from it: same scenario →
#: same SLOs).
_SLO_SALT = 0x51_0

#: Guard knobs for fuzz runs: short quarantines so a suspended measured
#: flow cannot stretch a small scenario by millions of cycles. The
#: window cadence is the invariant checker's 100,000 cycles: the guard
#: used to share the checker's schedule when both were attached, so
#: every recorded fuzz campaign observed at that cadence. Moving the
#: fuzz to the guard's default 40,000 changes its event streams.
FUZZ_GUARD_CONFIG = GuardConfig(interval_cycles=100_000.0,
                                quarantine_cycles=300_000.0,
                                backoff_cycles=60_000.0)


@dataclass
class GuardFuzzOptions:
    """One fuzz campaign's parameters."""

    scenarios: int = 50
    seed: int = DEFAULT_SEED
    engines: Tuple[str, ...] = ("scalar", "batch")
    fail_fast: bool = False


@dataclass
class GuardFuzzOutcome:
    """One scenario's verdict."""

    name: str
    digest: str
    description: str
    slos: Dict[str, float]
    ok: bool
    engines: Tuple[str, ...]
    windows: int = 0
    events: int = 0
    violations: List[str] = field(default_factory=list)
    unhandled: List[str] = field(default_factory=list)
    crash: Optional[str] = None
    mismatch: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "digest": self.digest,
            "description": self.description, "slos": dict(self.slos),
            "ok": self.ok, "engines": list(self.engines),
            "windows": self.windows, "events": self.events,
            "violations": list(self.violations),
            "unhandled": list(self.unhandled),
            "crash": self.crash, "mismatch": self.mismatch,
        }


@dataclass
class GuardFuzzResult:
    """A full campaign's outcomes."""

    options: GuardFuzzOptions
    outcomes: List[GuardFuzzOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> List[GuardFuzzOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        n = len(self.outcomes)
        bad = self.failures
        slos = sum(len(o.slos) for o in self.outcomes)
        events = sum(o.events for o in self.outcomes)
        head = (f"guard fuzz: {n} scenario(s), {slos} SLO(s), "
                f"{events} guard event(s), {len(bad)} failure(s)")
        lines = [head]
        for o in bad:
            what = o.crash or o.mismatch or "; ".join(
                o.unhandled + o.violations)
            lines.append(f"  FAIL {o.name}: {what}")
        return "\n".join(lines)

    def report(self, command: str = ""):
        """The campaign as a ``kind="guard"`` RunReport."""
        from ..obs.report import RunReport

        report = RunReport.new("guard", config=self.options,
                               command=command, seed=self.options.seed)
        report.results = {
            "schema": GUARD_SCHEMA,
            "mode": "fuzz",
            "ok": self.ok,
            "guard_config": asdict(FUZZ_GUARD_CONFIG),
            "scenarios": [o.to_dict() for o in self.outcomes],
        }
        return report


def assign_slos(config: ScenarioConfig,
                labels: Sequence[str]) -> Dict[str, float]:
    """Deterministic random SLOs for a built scenario's flow labels."""
    rng = random.Random((config.seed ^ _SLO_SALT) & 0xFFFFFFFF)
    slos: Dict[str, float] = {}
    for label in labels:
        if rng.random() < SLO_PROBABILITY:
            slos[label] = rng.choice(SLO_LEVELS)
    return slos


def _build_guarded(config: ScenarioConfig, checker=None,
                   engine: Optional[str] = None) -> Machine:
    """The scenario's machine with every flow wrapped for the guard.

    Built under ``engine`` (default: the ambient one), so the batch
    engine wraps construction-free skeletons of cached inner flows.
    """
    machine = Machine(config.spec(), seed=config.seed, checker=checker)
    with fastpath.use_engine(engine or fastpath.default_engine()):
        for fc in config.flows:
            machine.add_flow(guarded_factory(fc.factory()), core=fc.core,
                             data_domain=fc.data_domain)
    return machine


def run_guarded_scenario(config: ScenarioConfig,
                         engine: Optional[str] = None,
                         slos: Optional[Dict[str, float]] = None,
                         guard_config: Optional[GuardConfig] = None,
                         checker: Optional[InvariantChecker] = None,
                         ) -> Tuple[Machine, SLOGuard, Any]:
    """One guarded run of ``config``; returns (machine, guard, result).

    ``slos`` defaults to the fuzzer's deterministic assignment. The
    guard self-calibrates baselines from each flow's first window.
    """
    machine = _build_guarded(config, checker=checker, engine=engine)
    if slos is None:
        slos = assign_slos(config, [fr.label for fr in machine.flows])
    guard = SLOGuard(
        slos=slos,
        config=guard_config if guard_config is not None
        else FUZZ_GUARD_CONFIG)
    machine.guard = guard
    result = machine.run(warmup_packets=config.warmup,
                         measure_packets=config.measure, engine=engine)
    return machine, guard, result


def fuzz_one(config: ScenarioConfig,
             engines: Sequence[str] = ("scalar", "batch"),
             ) -> GuardFuzzOutcome:
    """Run one scenario on every engine and cross-check the guard."""
    outcome = GuardFuzzOutcome(
        name=config.name or "scenario", digest=config.digest(),
        description=config.describe(), slos={}, ok=True,
        engines=tuple(engines))
    event_streams: Dict[str, List[Dict[str, Any]]] = {}
    for engine in engines:
        checker = InvariantChecker()
        checker.context = f"{outcome.name}/{engine}"
        try:
            machine, guard, _ = run_guarded_scenario(
                config, engine=engine, checker=checker)
        except Exception:
            # A crash in the guard/probe path IS the finding.
            outcome.ok = False
            outcome.crash = f"{engine}: " + traceback.format_exc(limit=8)
            break
        outcome.slos = {label: slo for label, slo in guard.slos.items()
                        if any(fr.label == label for fr in machine.flows)}
        outcome.windows += guard.windows_observed
        outcome.events += len(guard.events)
        if guard.unhandled:
            outcome.ok = False
            outcome.unhandled.extend(
                f"{engine}: {msg}" for msg in guard.unhandled)
        if not checker.ok:
            outcome.ok = False
            outcome.violations.extend(str(v) for v in checker.violations)
        event_streams[engine] = [e.to_dict() for e in guard.events]
    if len(event_streams) == len(engines) > 1:
        first = engines[0]
        for engine in engines[1:]:
            if event_streams[engine] != event_streams[first]:
                outcome.ok = False
                outcome.mismatch = (
                    f"guard event streams diverge between {first!r} "
                    f"({len(event_streams[first])} events) and "
                    f"{engine!r} ({len(event_streams[engine])} events)")
                break
    return outcome


def run_fuzz(options: GuardFuzzOptions) -> GuardFuzzResult:
    """The full campaign: ``options.scenarios`` deterministic scenarios."""
    result = GuardFuzzResult(options=options)
    for index in range(options.scenarios):
        config = generate_one(options.seed, index)
        outcome = fuzz_one(config, engines=options.engines)
        result.outcomes.append(outcome)
        if not outcome.ok and options.fail_fast:
            break
    return result
