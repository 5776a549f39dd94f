"""The paper's prediction method (Section 4).

1. Measure each flow's solo-run L3 refs/sec.
2. Co-run the target flow with SYN flows of increasing refs/sec and record
   its performance drop as a function of the competing refs/sec — the
   *sensitivity curve*.
3. Predict the target's drop in any mix as the curve value at the *sum of
   its competitors' solo refs/sec*.

The method deliberately over-estimates competition (competitors slow down
under contention and issue fewer refs/sec than solo), but the flat tail of
the sensitivity curve past the turning point keeps the resulting error
small — under 3% in the paper. ``predict_drop(..., competing_refs=...)``
supports the "perfect knowledge" variant of Figure 8(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..constants import (
    DEFAULT_MEASURE_PACKETS,
    DEFAULT_SEED,
    DEFAULT_WARMUP_PACKETS,
)
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from ..apps.registry import app_factory
from ..apps.synthetic import SWEEP_CPU_OPS, syn_factory
from .profiler import SoloProfile


@dataclass
class SensitivityCurve:
    """Drop vs. competing refs/sec for one flow type (one Figure 4 curve)."""

    app: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points = sorted(self.points)
        if not self.points or self.points[0][0] > 0:
            # A flow facing zero competition suffers zero drop by definition.
            self.points.insert(0, (0.0, 0.0))

    @property
    def refs(self) -> np.ndarray:
        """Competing refs/sec coordinates of the curve points."""
        return np.array([p[0] for p in self.points])

    @property
    def drops(self) -> np.ndarray:
        """Drop coordinates of the curve points."""
        return np.array([p[1] for p in self.points])

    def predict(self, competing_refs_per_sec: float) -> float:
        """Interpolated drop at ``competing_refs_per_sec`` (clamped at ends)."""
        if competing_refs_per_sec < 0:
            raise ValueError("competition cannot be negative")
        return float(np.interp(competing_refs_per_sec, self.refs, self.drops))

    def max_competition(self, max_drop: float) -> Optional[float]:
        """Largest competing refs/sec whose predicted drop stays ≤ ``max_drop``.

        The inverse lookup the guard's admission controller uses to turn
        an SLO into a *competition budget*: the first crossing of
        ``max_drop`` on the interpolated curve. Returns ``None`` when the
        curve never exceeds ``max_drop`` (any competition is tolerable —
        at least within the swept range; beyond it the flat-tail clamp
        keeps the prediction an over-estimate).
        """
        if max_drop < 0:
            raise ValueError("max_drop cannot be negative")
        refs, drops = self.refs, self.drops
        for i in range(len(refs)):
            if drops[i] > max_drop:
                if i == 0:
                    return float(refs[0])
                span = drops[i] - drops[i - 1]
                if span <= 0:
                    return float(refs[i])
                t = (max_drop - drops[i - 1]) / span
                return float(refs[i - 1] + t * (refs[i] - refs[i - 1]))
        return None

    def turning_point(self, fraction: float = 0.8) -> float:
        """Competing refs/sec at which the drop reaches ``fraction`` of its max.

        The paper's observation (c): past this point the drop varies little.
        """
        max_drop = float(self.drops.max())
        if max_drop <= 0:
            return 0.0
        target = fraction * max_drop
        refs, drops = self.refs, self.drops
        for i in range(len(refs)):
            if drops[i] >= target:
                if i == 0:
                    return float(refs[0])
                # Linear interpolation within the crossing segment.
                span = drops[i] - drops[i - 1]
                if span <= 0:
                    return float(refs[i])
                t = (target - drops[i - 1]) / span
                return float(refs[i - 1] + t * (refs[i] - refs[i - 1]))
        return float(refs[-1])


def sweep_level(
    app: str,
    spec: PlatformSpec,
    seed: int,
    level: int,
    cpu_ops: int,
    n_competitors: int,
    warmup_packets: int,
    measure_packets: int,
) -> Tuple[float, float]:
    """One point of a sensitivity sweep: ``(competing refs/sec, target pps)``.

    This is the independently-runnable unit of step 2: the sweep
    orchestrator runs one level per shard.
    """
    machine = Machine(spec, seed=seed + 7 * level)
    target = machine.add_flow(app_factory(app), core=0, label=app)
    syn_labels = []
    for i in range(n_competitors):
        run = machine.add_flow(
            syn_factory(cpu_ops_per_ref=cpu_ops), core=1 + i,
            label=f"SYN{i}",
        )
        syn_labels.append(run.label)
    result = machine.run(warmup_packets=warmup_packets,
                         measure_packets=measure_packets)
    competing = sum(result[lbl].l3_refs_per_sec for lbl in syn_labels)
    return competing, result[target.label].packets_per_sec


def sweep_sensitivity(
    app: str,
    spec: PlatformSpec,
    seed: int = DEFAULT_SEED,
    cpu_ops_levels: Sequence[int] = SWEEP_CPU_OPS,
    n_competitors: int = 5,
    warmup_packets: int = DEFAULT_WARMUP_PACKETS,
    measure_packets: int = DEFAULT_MEASURE_PACKETS,
    solo: Optional[SoloProfile] = None,
    runner=None,
) -> SensitivityCurve:
    """Step 2 of the method: ramp SYN competitors against ``app``.

    Each level co-runs the target with ``n_competitors`` SYN flows on the
    same socket; the x coordinate is the competitors' *measured* combined
    refs/sec, the y coordinate the target's measured drop. The levels
    (and the solo profile, when not supplied) resolve as one grid through
    :func:`repro.sweep.run_grid` on ``runner`` (default: inline).
    """
    if n_competitors < 1:
        raise ValueError("need at least one competitor")
    if n_competitors >= spec.cores_per_socket:
        raise ValueError("competitors must fit on the target's socket")
    from ..sweep import run_grid
    from ..sweep.parallel import curve_block, predictor_block

    packets = (warmup_packets, measure_packets)
    if solo is None:
        shards, merge = predictor_block([app], spec, seed, packets, packets,
                                        cpu_ops_levels, n_competitors)
        return run_grid((shards, lambda results: merge(results)[1][app]),
                        runner)
    shards, merge = curve_block(app, spec, seed, cpu_ops_levels,
                                n_competitors, *packets)
    return run_grid((shards, lambda results: merge(results, solo)), runner)


class ContentionPredictor:
    """The full prediction apparatus: solo profiles + sensitivity curves."""

    def __init__(self, profiles: Dict[str, SoloProfile],
                 curves: Dict[str, SensitivityCurve]):
        self.profiles = profiles
        self.curves = curves

    @classmethod
    def build(cls, apps: Iterable[str], spec: PlatformSpec,
              seed: int = DEFAULT_SEED,
              cpu_ops_levels: Sequence[int] = SWEEP_CPU_OPS,
              n_competitors: int = 5,
              warmup_packets: int = DEFAULT_WARMUP_PACKETS,
              measure_packets: int = DEFAULT_MEASURE_PACKETS,
              runner=None,
              ) -> "ContentionPredictor":
        """Run the full offline profiling pass for ``apps``.

        Every solo profile and every (app, SYN level) co-run is an
        independent simulation; the pass resolves as one grid through
        :func:`repro.sweep.run_grid` on ``runner`` (default: inline).
        """
        from ..sweep import run_grid
        from ..sweep.parallel import predictor_block

        packets = (warmup_packets, measure_packets)
        profiles, curves = run_grid(
            predictor_block(apps, spec, seed, packets, packets,
                            cpu_ops_levels, n_competitors), runner)
        return cls(profiles=profiles, curves=curves)

    # -- prediction -------------------------------------------------------------

    def competing_refs(self, competitors: Sequence[str]) -> float:
        """Step 1+3 input: sum of the competitors' solo refs/sec."""
        total = 0.0
        for app in competitors:
            try:
                total += self.profiles[app].l3_refs_per_sec
            except KeyError:
                raise KeyError(f"no solo profile for {app!r}") from None
        return total

    def predict_drop(self, target: str,
                     competitors: Sequence[str] = (),
                     competing_refs: Optional[float] = None) -> float:
        """Predicted drop of ``target`` against ``competitors``.

        Pass ``competing_refs`` to override the solo-profile estimate with
        the actual competition (the "perfect knowledge" prediction of
        Figure 8(b)).
        """
        try:
            curve = self.curves[target]
        except KeyError:
            raise KeyError(f"no sensitivity curve for {target!r}") from None
        if competing_refs is None:
            competing_refs = self.competing_refs(competitors)
        return curve.predict(competing_refs)

    def predict_throughput(self, target: str,
                           competitors: Sequence[str] = (),
                           competing_refs: Optional[float] = None) -> float:
        """Predicted packets/sec of ``target`` in the mix."""
        drop = self.predict_drop(target, competitors, competing_refs)
        return self.profiles[target].throughput * (1.0 - drop)
