"""The differential suite: 29 seeded configurations spanning the registry.

Each entry is a plain-data :class:`~repro.check.scenarios.ScenarioConfig`
(the model the fuzzer, shrinker, corpus and sweep tasks use), so any of
them can be saved to the corpus or replayed with ``repro-check``. The
suite covers every registry application solo, pairwise and full co-runs,
the SYN sensitivity sweep, both platform topologies with remote data
placement, shared-core multiplexing, throttling, a two-faced adversary
triggering mid-run, seed and scale variation, and window shapes on both
sides of one pregeneration block. The cross-core handoff pipeline is not
a flow placement; its engine-equality case is in ``tests/test_handoff.py``.
"""

from __future__ import annotations

from typing import List

from repro.apps.registry import APP_NAMES
from repro.check.scenarios import FlowConf, ScenarioConfig


def scenario(name: str, *flows: FlowConf, seed: int = 12345,
             warmup: int = 60, measure: int = 200,
             **platform) -> ScenarioConfig:
    """A suite entry; ``platform`` takes ``scale`` and ``sockets``."""
    return ScenarioConfig(seed=seed, warmup=warmup, measure=measure,
                          flows=flows, name=name, **platform)


def app(name: str, core: int, data_domain=None) -> FlowConf:
    return FlowConf("app", core, app=name, data_domain=data_domain)


def _suite() -> List[ScenarioConfig]:
    suite = [scenario(f"solo-{name}", app(name, 0), warmup=50, measure=150)
             for name in APP_NAMES]
    suite += [scenario(f"corun-{a}-{b}", app(a, 0), app(b, 1))
              for a, b in (("IP", "MON"), ("FW", "VPN"), ("RE", "DPI"),
                           ("IP", "SYN_MAX"))]
    suite.append(scenario(
        "corun-all-realistic",
        *(app(name, i) for i, name in
          enumerate(("IP", "MON", "FW", "RE", "VPN"))),
        warmup=40, measure=120))
    suite += [scenario(f"syn-sweep-{cpu_ops}", app("MON", 0),
                       FlowConf("syn", 1, cpu_ops=cpu_ops))
              for cpu_ops in (1440, 360, 0)]
    suite += [
        scenario("dual-cross-socket", app("MON", 0), app("IP", 6),
                 sockets=2),
        scenario("dual-remote-domain", app("VPN", 0, data_domain=1),
                 FlowConf("syn", 6, cpu_ops=20), sockets=2),
        scenario("dual-both-loaded", app("IP", 0), app("MON", 1),
                 app("IP", 6, data_domain=0), app("FW", 7),
                 sockets=2, warmup=40, measure=120),
        scenario("shared-core-2", FlowConf("shared", 0, apps=("MON", "IP"))),
        scenario("shared-core-3-vs-syn",
                 FlowConf("shared", 0, apps=("IP", "MON", "FW")),
                 FlowConf("syn", 1, cpu_ops=60)),
        scenario("throttled-solo",
                 FlowConf("throttled", 0, app="MON", rate=2e7)),
        scenario("throttled-aggressor", app("MON", 0),
                 FlowConf("throttled", 1, app="SYN_MAX", rate=1.5e7)),
        scenario("twofaced-mid-run", app("MON", 0),
                 FlowConf("twofaced", 1, app="FW", trigger=120)),
    ]
    suite += [scenario(f"seed-{seed}", app("IP", 0), app("RE", 1), seed=seed)
              for seed in (7, 991)]
    suite += [
        scenario("tiny-windows", app("IP", 0), app("MON", 1),
                 warmup=1, measure=5),
        scenario("multi-block-windows", app("IP", 0),
                 warmup=300, measure=900),
        scenario("scale-16", app("IP", 0), app("MON", 1),
                 scale=16, warmup=40, measure=120),
    ]
    return suite


SCENARIOS = _suite()

BY_NAME = {config.name: config for config in SCENARIOS}
