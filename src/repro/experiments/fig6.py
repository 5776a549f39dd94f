"""Figure 6: worst-case drop bound from Equation 1.

Plots ``drop = 1/(1 + 1/(delta*h))`` (full hit-to-miss conversion) against
solo hits/sec for three values of delta, and places each realistic flow
type on the delta = 43.75 ns curve using its measured solo profile. The
paper's point: hits/sec alone bounds a flow's worst-case sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..apps.registry import REALISTIC_APPS
from ..constants import DELTA_NS
from ..core.equation1 import figure6_series, worst_case_drop
from ..core.profiler import SoloProfile
from ..core.reporting import format_series, format_table, pct
from ..sweep import run_grid
from ..sweep.parallel import profile_block
from .common import ExperimentConfig


@dataclass
class Fig6Result:
    """Delta curves plus the per-app worst-case points."""

    #: delta (ns) -> [(hits/sec, worst-case drop)].
    curves: Dict[float, List[Tuple[float, float]]]
    #: app -> (solo hits/sec, worst-case drop at the platform delta).
    app_points: Dict[str, Tuple[float, float]]
    profiles: Dict[str, SoloProfile]

    def render(self) -> str:
        """The Figure 6 curves and data points as text."""
        blocks = []
        for delta, points in sorted(self.curves.items()):
            sampled = points[:: max(1, len(points) // 12)]
            blocks.append(format_series(
                f"worst-case drop, delta={delta}ns",
                [(h / 1e6, round(100 * d, 1)) for h, d in sampled],
                x_label="solo Mhits/s", y_label="drop %",
            ))
        rows = [
            [app, hits / 1e6, pct(drop)]
            for app, (hits, drop) in sorted(self.app_points.items())
        ]
        blocks.append(format_table(
            ["flow", "solo Mhits/s", f"max drop (delta={DELTA_NS}ns)"],
            rows, title="Figure 6 data points",
        ))
        return "\n".join(blocks)


def grid(config: ExperimentConfig,
         apps: Sequence[str] = REALISTIC_APPS,
         deltas_ns: Sequence[float] = (30.0, DELTA_NS, 60.0)):
    """The figure as shards: one solo profile per (app, repeat).

    The delta curves are analytic; only the measured profiles cost
    simulation time, so they are the sweep's shards and ``merge``
    finishes the figure.
    """
    apps = tuple(apps)
    shards, merge_profiles = profile_block(
        apps, config.socket_spec(), config.seed,
        config.solo_warmup, config.solo_measure, config.repeats)

    def merge(results) -> Fig6Result:
        profiles = merge_profiles(results)
        max_hits = max(p.l3_hits_per_sec for p in profiles.values()) * 1.6
        app_points = {
            app: (p.l3_hits_per_sec, worst_case_drop(p.l3_hits_per_sec))
            for app, p in profiles.items()
        }
        return Fig6Result(curves=figure6_series(max_hits,
                                                deltas_ns=deltas_ns),
                          app_points=app_points, profiles=profiles)

    return shards, merge


def run(config: ExperimentConfig,
        apps: Sequence[str] = REALISTIC_APPS,
        deltas_ns: Sequence[float] = (30.0, DELTA_NS, 60.0),
        runner=None) -> Fig6Result:
    """Analytical curves + measured solo profiles."""
    return run_grid(grid(config, apps, deltas_ns), runner)
