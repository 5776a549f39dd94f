"""repro.check — randomized scenario fuzzing and runtime invariants.

The package has four layers:

* :mod:`~repro.check.invariants` — an :class:`InvariantChecker` that
  hooks into :class:`~repro.hw.machine.Machine` (both engines) and
  verifies machine-wide conservation laws during and after execution;
* :mod:`~repro.check.scenarios` — deterministic generation of
  well-formed random experiment configurations;
* :mod:`~repro.check.shrink` / :mod:`~repro.check.corpus` — reduction of
  failures to minimal reproductions, serialized into the content-
  addressed regression corpus under ``tests/corpus/``;
* :mod:`~repro.check.runner` / :mod:`~repro.check.cli` — the fuzzing
  loop and the ``repro check`` subcommand.

:mod:`~repro.check.faults` injects deliberate bugs to prove the checks
actually fire.
"""

from .corpus import (DEFAULT_CORPUS_DIR, ReproEntry, corpus_paths,
                     iter_corpus, load_repro, save_repro)
from .invariants import (DEFAULT_PROBE_INTERVAL, InvariantChecker,
                         InvariantViolationError, Violation)
from .runner import (CheckOptions, CheckResult, CheckRunner, DEFAULT_SEED,
                     ScenarioOutcome, run_config, scenario_payload,
                     sweep_equality_check)
from .scenarios import FlowConf, ScenarioConfig, generate, generate_one
from .shrink import shrink

__all__ = [
    "DEFAULT_CORPUS_DIR", "DEFAULT_PROBE_INTERVAL", "DEFAULT_SEED",
    "CheckOptions", "CheckResult", "CheckRunner", "FlowConf",
    "InvariantChecker", "InvariantViolationError", "ReproEntry",
    "ScenarioConfig", "ScenarioOutcome", "Violation", "corpus_paths",
    "generate", "generate_one", "iter_corpus", "load_repro", "run_config",
    "save_repro", "scenario_payload", "shrink", "sweep_equality_check",
]
