"""Shard executors: the tasks a sweep worker knows how to run.

Every task takes a plain-JSON ``params`` dict and returns a plain-JSON
payload — both cross the process boundary and the result cache, so no
live objects are allowed. Tasks call only the simulation primitives
(``profile_solo``, ``run_corun``, ``sweep_level``, ``measure_mix``) —
never a grid-backed function such as ``profile_apps``, which would nest
runners — so a shard computes the same arithmetic inline or on any
worker.

Platform specs travel as their constructor-field dict (see
:func:`spec_from_params`); JSON round-trips every field losslessly.

The ``fault`` task exists for the orchestrator's failure tests: it
returns, raises, or SIGKILLs the process running it.
"""

from __future__ import annotations

import os
import signal
from dataclasses import asdict
from typing import Any, Callable, Dict

from ..hw.topology import PlatformSpec

TASKS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def task(name: str):
    """Register a shard executor under ``name``."""
    def register(fn):
        TASKS[name] = fn
        return fn
    return register


def run_task(kind: str, params: Dict[str, Any]) -> Any:
    """Execute one shard description (the worker entry point)."""
    try:
        fn = TASKS[kind]
    except KeyError:
        raise KeyError(f"unknown shard kind {kind!r}; "
                       f"known: {', '.join(sorted(TASKS))}") from None
    return fn(params)


def spec_params(spec: PlatformSpec) -> Dict[str, Any]:
    """A platform spec as the plain dict a shard carries."""
    from ..obs.report import platform_dict

    return platform_dict(spec)


def spec_from_params(fields: Dict[str, Any]) -> PlatformSpec:
    """Rebuild a platform spec from its shard-param dict."""
    return PlatformSpec(**fields)


# -- simulation tasks ---------------------------------------------------------

@task("profile")
def _task_profile(p: Dict[str, Any]) -> Dict[str, Any]:
    """Solo-profile one flow type (one Table 1 row)."""
    from ..core.profiler import profile_solo

    profile = profile_solo(
        p["app"], spec_from_params(p["spec"]), seed=p["seed"],
        warmup_packets=p["warmup"], measure_packets=p["measure"],
        core=p.get("core", 0),
    )
    return asdict(profile)


@task("corun")
def _task_corun(p: Dict[str, Any]) -> Dict[str, Any]:
    """Run an arbitrary placement of flows (Figure 2 cell, Figure 9 mix,
    a scheduling split, or a prediction validation run)."""
    from ..core.validation import run_corun

    data_domains = p.get("data_domains")
    if data_domains is not None:
        data_domains = {int(core): domain
                        for core, domain in data_domains.items()}
    corun = run_corun(
        [(app, core) for app, core in p["placement"]],
        spec_from_params(p["spec"]), seed=p["seed"],
        warmup_packets=p["warmup"], measure_packets=p["measure"],
        data_domains=data_domains,
    )
    return {
        "apps": corun.apps,
        "throughput": corun.throughput,
        "refs_per_sec": corun.refs_per_sec,
    }


@task("sensitivity_point")
def _task_sensitivity_point(p: Dict[str, Any]) -> Dict[str, Any]:
    """One SYN level of a sensitivity sweep (prediction method, step 2)."""
    from ..core.prediction import sweep_level

    competing, target_pps = sweep_level(
        p["app"], spec_from_params(p["spec"]), p["seed"],
        p["level"], p["cpu_ops"], p["n_competitors"],
        p["warmup"], p["measure"],
    )
    return {"competing": competing, "target_pps": target_pps}


@task("multiflow_mix")
def _task_multiflow_mix(p: Dict[str, Any]) -> Dict[str, Any]:
    """One core-sharing mix of the Section 6 study."""
    from ..experiments.multiflow import measure_mix

    measured = measure_mix(
        p["mix"], spec_from_params(p["spec"]), p["seed"],
        p["warmup"], p["measure"],
    )
    return {"label": "+".join(p["mix"]), "pps": measured}


@task("check_scenario")
def _task_check_scenario(p: Dict[str, Any]) -> Dict[str, Any]:
    """One fuzzer scenario under the invariant checks (see repro.check).

    The payload carries the exact end-of-run counters, so the check
    runner can assert serial and sharded execution agree bit-for-bit.
    """
    from ..check.runner import scenario_payload
    from ..check.scenarios import ScenarioConfig

    config = ScenarioConfig.from_dict(p["config"])
    return scenario_payload(config, engine=p.get("engine"))


# -- fault injection (test suite) --------------------------------------------

@task("fault")
def _task_fault(p: Dict[str, Any]) -> Dict[str, Any]:
    """A deliberately faulty shard for orchestrator tests.

    ``mode`` ``ok`` returns ``{"token", "value"}``; ``raise`` raises a
    ``RuntimeError``; ``sigkill`` kills the process executing the shard
    (a pool worker — inline, that is the caller).
    """
    mode = p.get("mode", "ok")
    token = p.get("token", "shard")
    if mode == "raise":
        raise RuntimeError(f"injected failure of {token!r}")
    if mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    return {"token": token, "value": p.get("value")}
