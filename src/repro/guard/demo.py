"""The Section 4 two-faced containment experiment, end to end.

A victim flow with a declared SLO shares its socket with a pack of flows
that profiled as an innocent application but turn into SYN_MAX-style
cache antagonists mid-run (:class:`~repro.core.throttling.TwoFacedFlow`).
Admission control sees only the innocent profiles and (correctly, per
the offline numbers) admits the mix; the runtime supervisor then watches
the victim's windowed drop blow through its SLO, attributes it to the
aggressors' solo-profile deviation, and walks the escalation ladder
until the victim is back inside its SLO.

``run_demo`` executes one configured run — guarded (``enforce=True``) or
the monitor-only comparison (``enforce=False``) — and returns the
admission decision, the guard, the run result, and the ``kind="guard"``
report. Everything is deterministic: the paired guarded/unguarded
reports are committed as goldens and replayed byte-stably in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import fastpath
from ..apps.registry import app_factory
from ..apps.synthetic import syn_max_factory
from ..constants import DEFAULT_SEED
from ..core.prediction import ContentionPredictor
from ..core.throttling import two_faced_factory
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from .admission import AdmissionController, FlowRequest
from .supervisor import GuardConfig, SLOGuard
from .wrappers import guarded_factory

#: Acceptance margin on the victim's post-containment drop (the paper's
#: prediction-error bound: within 3 percentage points).
CONTAINMENT_MARGIN = 0.03

#: SYN levels for the demo's (small) offline sensitivity sweeps.
DEMO_SWEEP_LEVELS = (0, 360, 1440)


@dataclass
class DemoConfig:
    """The pinned two-faced containment scenario."""

    scale: int = 64
    seed: int = DEFAULT_SEED
    victim_app: str = "MON"
    innocent_app: str = "IP"
    n_aggressors: int = 5
    slo: float = 0.10
    trigger_packets: int = 30
    warmup: int = 40
    measure: int = 1600
    profile_measure: int = 400
    engine: Optional[str] = None
    guarded: bool = True
    interval_cycles: float = 40_000.0

    @property
    def victim_label(self) -> str:
        return f"{self.victim_app}@0"

    @property
    def aggressor_labels(self) -> List[str]:
        # The aggressors masquerade as the innocent app — their labels
        # (and their offline profiles) carry the innocent identity.
        return [f"{self.innocent_app}@{core}"
                for core in range(1, 1 + self.n_aggressors)]

    def spec(self) -> PlatformSpec:
        return PlatformSpec.westmere().scaled(self.scale).single_socket()

    def guard_config(self) -> GuardConfig:
        return GuardConfig(
            interval_cycles=self.interval_cycles,
            enforce=self.guarded,
        )


def build_demo_predictor(config: DemoConfig) -> ContentionPredictor:
    """The (small) offline prediction apparatus for the demo's app pair.

    Profiled with the demo run's warm-up and a comparable measurement
    window, so solo baselines and live windowed rates are commensurable.
    """
    return ContentionPredictor.build(
        (config.victim_app, config.innocent_app), config.spec(),
        seed=config.seed, cpu_ops_levels=DEMO_SWEEP_LEVELS,
        n_competitors=2, warmup_packets=config.warmup,
        measure_packets=config.profile_measure,
    )


def _aggressor_factory(config: DemoConfig):
    return two_faced_factory(app_factory(config.innocent_app),
                             syn_max_factory(), config.trigger_packets)


def run_demo(config: Optional[DemoConfig] = None,
             predictor: Optional[ContentionPredictor] = None,
             tracer=None,
             ) -> Tuple[object, SLOGuard, object, object]:
    """One demo run: returns ``(decision, guard, result, report)``.

    ``predictor`` lets callers reuse one offline profiling pass across
    the guarded and unguarded runs (it is deterministic either way).
    """
    if config is None:
        config = DemoConfig()
    if predictor is None:
        predictor = build_demo_predictor(config)
    spec = config.spec()

    # Admission: the mix as declared — the aggressors present their
    # innocent profiles, so the (correct) prediction admits the mix.
    requests = [FlowRequest(config.victim_app, 0, slo=config.slo,
                            label=config.victim_label)]
    requests.extend(
        FlowRequest(config.innocent_app, core, label=label)
        for core, label in enumerate(config.aggressor_labels, start=1))
    controller = AdmissionController(predictor, spec)
    decision = controller.evaluate(requests)

    victim_profile = predictor.profiles[config.victim_app]
    innocent_profile = predictor.profiles[config.innocent_app]
    baselines = {
        config.victim_label: (victim_profile.throughput,
                              victim_profile.l3_refs_per_sec),
    }
    for label in config.aggressor_labels:
        baselines[label] = (innocent_profile.throughput,
                            innocent_profile.l3_refs_per_sec)
    guard = SLOGuard(
        slos={config.victim_label: config.slo},
        baselines=baselines,
        config=config.guard_config(),
        admission=decision,
    )

    machine = Machine(spec, seed=config.seed, guard=guard, tracer=tracer)
    # Built under the run's engine: the batch engine wraps skeletons of
    # cached flows instead of constructing them.
    with fastpath.use_engine(config.engine or fastpath.default_engine()):
        machine.add_flow(guarded_factory(app_factory(config.victim_app)),
                         core=0, label=config.victim_label)
        for core, label in enumerate(config.aggressor_labels, start=1):
            machine.add_flow(guarded_factory(_aggressor_factory(config)),
                             core=core, label=label, measured=False)
    result = machine.run(warmup_packets=config.warmup,
                         measure_packets=config.measure,
                         engine=config.engine)

    mode = "guarded" if config.guarded else "unguarded"
    report = guard.report(
        command=f"repro-guard --inject two-faced ({mode})",
        spec=spec, config=config)
    return decision, guard, result, report


def victim_verdict(guard: SLOGuard, config: DemoConfig,
                   margin: float = CONTAINMENT_MARGIN) -> dict:
    """The acceptance numbers: did containment keep the victim's SLO?"""
    for row in guard.flow_summaries():
        if row["label"] != config.victim_label:
            continue
        post = row.get("drop_post_containment")
        overall = row.get("drop_overall")
        effective = post if post is not None else overall
        return {
            "label": row["label"],
            "slo": config.slo,
            "drop_overall": overall,
            "drop_post_containment": post,
            "contained": guard.last_containment_clock is not None,
            "within_slo": (effective is not None
                           and effective <= config.slo + margin),
        }
    raise KeyError(f"victim {config.victim_label!r} not in guard states")
