"""The benchmark's three workloads.

Each workload is a fixed list of *work units* (one co-run, one sweep
shard, or one fuzz scenario) over a pinned simulated configuration, so
its outputs — the paper's accuracy numbers, the simulated counters, the
result digest — repeat exactly on every run. The ``--seed`` argument
drives what may vary without changing a result: the order in which the
units run in each pass and which co-runs the batch cross-check samples.

Interface (called by :mod:`perfbench.harness`):

* ``setup()`` — the prerequisites, returning a canonical value that must
  repeat across set-up repetitions;
* ``units()`` — the unit keys in canonical order;
* ``begin_pass()`` / ``run_unit(key)`` — the timed work;
* ``summarize(key, out)`` — ``(ok, canonical)`` of one unit, untimed;
* ``end_pass()`` — keys whose pass-level check failed, untimed;
* ``verify()`` — keys failing the post-run checks (outside the timing);
* ``model_errors()`` — ``(mean_pp, max_pp)``, see :data:`MODEL_ERRORS`;
* ``canonical()`` — the result the digest is taken over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: What ``model_err_pp`` / ``model_err_max_pp`` are on each workload.
MODEL_ERRORS = {
    "corun-scalar": "|measured Fig 2(b) average drop - paper Fig 2(b)| "
                    "over the target types",
    "predict-warm": "|predicted - measured| Fig 9 drop over the 12 flows",
    "guard-fuzz": "|measured rate / self-calibrated baseline - 1| of the "
                  "guarded flows with an SLO (the guard's baseline error)",
}

#: Master seed and scenario indices of the guard-fuzz mix. Together they
#: cover scales 16 and 64, one and two sockets, remote NUMA data,
#: throttled, two-faced, DPI and shared-core (multi-flow) flows.
FUZZ_SEED = 0x5EED
FUZZ_SCENARIOS = (0, 6, 9, 13, 14, 16, 18, 21)


@dataclass(frozen=True)
class Sizing:
    """How big each workload is (``FULL`` for runs, ``TINY`` for tests)."""

    corun_apps: Tuple[str, ...]
    corun_packets: Tuple[int, int]          # warm-up, measured
    solo_packets: Tuple[int, int]
    corun_check_sample: int
    predict_mix: Tuple[str, ...]
    predict_solo_packets: Tuple[int, int]
    predict_corun_packets: Tuple[int, int]
    fuzz_scenarios: Tuple[int, ...]
    #: Set-up repetitions per workload (``setup_s`` is their median).
    setup_reps: Dict[str, int] = field(default_factory=dict)


FULL = Sizing(
    corun_apps=("IP", "MON", "FW", "RE", "VPN"),
    corun_packets=(50, 100),
    solo_packets=(300, 300),
    corun_check_sample=2,
    predict_mix=("MON", "MON", "VPN", "VPN", "FW", "RE"),
    predict_solo_packets=(200, 200),
    predict_corun_packets=(50, 100),
    fuzz_scenarios=FUZZ_SCENARIOS,
    setup_reps={"corun-scalar": 5, "predict-warm": 2, "guard-fuzz": 5},
)

TINY = Sizing(
    corun_apps=("IP", "FW"),
    corun_packets=(50, 100),
    solo_packets=(100, 100),
    corun_check_sample=1,
    predict_mix=("MON", "FW"),
    predict_solo_packets=(100, 100),
    predict_corun_packets=(50, 100),
    fuzz_scenarios=(5, 23),
    setup_reps={"corun-scalar": 2, "predict-warm": 2, "guard-fuzz": 2},
)

#: Platform scale of every workload (the smallest the model supports
#: with the paper's residency ratios).
SCALE = 64


def _pp(fraction: float) -> float:
    return 100.0 * fraction


class CorunScalar:
    """Figure 2: each target type against 5 competitors, scalar engine."""

    name = "corun-scalar"
    #: Modules a fresh interpreter imports before its first unit.
    imports = ("repro.experiments.fig2", "repro.core.profiler",
               "repro.core.validation")

    def __init__(self, sizing: Sizing, seed: int):
        from repro.experiments.common import ExperimentConfig

        (w, m), (sw, sm) = sizing.corun_packets, sizing.solo_packets
        self.config = ExperimentConfig(scale=SCALE, solo_warmup=sw,
                                       solo_measure=sm, corun_warmup=w,
                                       corun_measure=m)
        self.spec = self.config.socket_spec()
        self.apps = sizing.corun_apps
        keys = self.units()
        self.sampled = set(random.Random(seed).sample(
            keys, min(sizing.corun_check_sample, len(keys))))
        self.profiles = None
        self.drops: Dict[Tuple[str, str], float] = {}
        self._timed: Dict[Tuple[str, str], Dict] = {}

    def setup(self):
        from repro import fastpath
        from repro.core.profiler import profile_apps

        with fastpath.use_engine("scalar"):
            self.profiles = profile_apps(
                self.apps, self.spec, seed=self.config.seed,
                warmup_packets=self.config.solo_warmup,
                measure_packets=self.config.solo_measure)
        return {app: p.throughput for app, p in self.profiles.items()}

    def units(self) -> List[Tuple[str, str]]:
        return [(t, c) for t in self.apps for c in self.apps]

    def begin_pass(self) -> None:
        pass

    def _build(self, key):
        from repro.apps.registry import app_factory
        from repro.hw.machine import Machine

        target, competitor = key
        machine = Machine(self.spec, seed=self.config.seed)
        machine.add_flow(app_factory(target), core=0)
        for core in range(1, 6):
            machine.add_flow(app_factory(competitor), core=core)
        return machine

    def _run(self, key, engine: str):
        machine = self._build(key)
        result = machine.run(warmup_packets=self.config.corun_warmup,
                             measure_packets=self.config.corun_measure,
                             engine=engine)
        return machine, result

    def run_unit(self, key):
        return self._run(key, "scalar")

    def _canonical_unit(self, key, result):
        from repro.hw.counters import performance_drop

        target = key[0]
        drop = performance_drop(self.profiles[target].throughput,
                                result.throughput(f"{target}@0"))
        return {"drop": drop, "events": result.events,
                "end_clock": result.end_clock}

    def summarize(self, key, out):
        canon = self._canonical_unit(key, out[1])
        self.drops[key] = canon["drop"]
        self._timed.setdefault(key, canon)
        return True, canon

    def end_pass(self) -> List:
        return []

    def verify(self) -> List:
        """Re-run the sampled co-runs on both engines: the scalar run must
        repeat the timed one, the batch run must match it field-exactly."""
        from repro.fastpath.diff import compare_results

        failed = []
        for key in sorted(self.sampled):
            machine, result = self._run(key, "scalar")
            alt_machine, alt_result = self._run(key, "batch")
            if (self._canonical_unit(key, result) != self._timed.get(key)
                    or compare_results(machine, result, alt_machine,
                                       alt_result)):
                failed.append(key)
        return failed

    def model_errors(self) -> Tuple[float, float]:
        from repro.experiments.fig2 import PAPER_FIG2B

        errs = []
        for t in self.apps:
            avg = sum(self.drops[(t, c)] for c in self.apps) / len(self.apps)
            errs.append(abs(_pp(avg) - PAPER_FIG2B[t]))
        return sum(errs) / len(errs), max(errs)

    def canonical(self):
        return {"|".join(k): self.drops[k] for k in self.units()}


class PredictWarm:
    """The paper's section 4 prediction (Fig 9) on a warm stream cache."""

    name = "predict-warm"
    imports = ("repro.experiments.fig9", "repro.sweep.orchestrator",
               "repro.fastpath.engine")

    def __init__(self, sizing: Sizing, seed: int):
        from repro.experiments import fig9
        from repro.experiments.common import ExperimentConfig

        (sw, sm) = sizing.predict_solo_packets
        (w, m) = sizing.predict_corun_packets
        self.config = ExperimentConfig(scale=SCALE, solo_warmup=sw,
                                       solo_measure=sm, corun_warmup=w,
                                       corun_measure=m)
        self.shards, self.merge = fig9.grid(self.config,
                                            socket_mix=sizing.predict_mix)
        self.cold = None
        self.warm = None
        self.runner = None
        self.results = {}

    def _runner(self):
        from repro.sweep.orchestrator import SweepOptions, SweepRunner

        return SweepRunner(SweepOptions(jobs=1, engine="batch"))

    def setup(self):
        """A cold pass over the grid: fills the batch stream cache."""
        from repro import fastpath

        fastpath.clear_stream_cache()
        outcome = self._runner().run(self.shards)
        outcome.raise_for_quarantine()
        self.cold = self.merge(outcome.results)
        return self.cold.rows

    def units(self) -> List[int]:
        return list(range(len(self.shards)))

    def begin_pass(self) -> None:
        self.runner = self._runner()
        self.results = {}

    def run_unit(self, key):
        return self.runner.run([self.shards[key]]).results[0]

    def summarize(self, key, out):
        self.results[key] = out
        return out.ok, {"status": out.status, "payload": out.payload}

    def end_pass(self) -> List:
        """The warm merged Fig 9 result must equal the cold pass's."""
        if not all(out.ok for out in self.results.values()):
            return []  # quarantined shards already failed in summarize
        self.warm = self.merge([self.results[k] for k in self.units()])
        return [] if self.warm.rows == self.cold.rows else self.units()

    def verify(self) -> List:
        return []

    def model_errors(self) -> Tuple[float, float]:
        result = self.warm if self.warm is not None else self.cold
        return _pp(result.mean_abs_error()), _pp(result.max_abs_error())

    def canonical(self):
        result = self.warm if self.warm is not None else self.cold
        return [list(row) for row in result.rows]


class GuardFuzz:
    """Guarded fuzz scenarios on both engines, checker and guard attached."""

    name = "guard-fuzz"
    imports = ("repro.guard.fuzz", "repro.check.scenarios",
               "repro.fastpath.engine")
    engines = ("scalar", "batch")

    def __init__(self, sizing: Sizing, seed: int):
        self.indices = tuple(sizing.fuzz_scenarios)
        self.configs = {}
        self.baseline_errors: Dict[int, List[float]] = {}
        self.outcomes: Dict[int, Dict] = {}
        self._guards: List = []

    def setup(self):
        """Scenario generation (and the batch engine's import)."""
        import repro.fastpath.engine  # noqa: F401  (batch half, eagerly)
        from repro.check.scenarios import generate_one

        self.configs = {i: generate_one(FUZZ_SEED, i) for i in self.indices}
        return [self.configs[i].digest() for i in self.indices]

    def capture(self, patcher) -> None:
        """Keep each run's SLOGuard so its verdicts can be read untimed."""
        from repro.guard.supervisor import SLOGuard

        guards = self._guards

        def make(after_run):
            def captured(guard, machine, result):
                out = after_run(guard, machine, result)
                guards.append(guard)
                return out
            return captured

        patcher.wrap(SLOGuard, "after_run", make)

    def units(self) -> List[int]:
        return list(self.indices)

    def begin_pass(self) -> None:
        pass

    def run_unit(self, key):
        from repro.guard.fuzz import fuzz_one

        del self._guards[:]
        outcome = fuzz_one(self.configs[key], engines=self.engines)
        return outcome, list(self._guards)

    def summarize(self, key, out):
        outcome, guards = out
        # Drop the captured guards (and the flows they reference) here,
        # outside the timing, not at the start of the next unit.
        del self._guards[:]
        errors = [abs(_pp(row["drop_overall"]))
                  for guard in guards for row in guard.flow_summaries()
                  if row.get("drop_overall") is not None]
        self.baseline_errors[key] = errors
        doc = outcome.to_dict()
        self.outcomes[key] = doc
        return outcome.ok, {"outcome": doc, "baseline_errors": errors}

    def end_pass(self) -> List:
        return []

    def verify(self) -> List:
        return []

    def model_errors(self) -> Tuple[float, float]:
        errors = [v for k in self.indices for v in self.baseline_errors[k]]
        return sum(errors) / len(errors), max(errors)

    def canonical(self):
        return [self.outcomes[k] for k in self.indices]


WORKLOADS = {cls.name: cls for cls in (CorunScalar, PredictWarm, GuardFuzz)}


def make(name: str, sizing: Sizing, seed: int):
    return WORKLOADS[name](sizing, seed)


def unit_order(keys: Sequence, seed: int, pass_index: int) -> List:
    """The seeded execution order of one pass."""
    order = list(keys)
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order
