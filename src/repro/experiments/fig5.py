"""Figure 5: realistic competitors behave like SYN at equal refs/sec.

Overlays each flow type's SYN sensitivity curve (Figure 4(c) / the sweep
of the prediction method) with the realistic co-run measurements of
Figure 2(a), plotting the latter at their *measured* competing refs/sec.
The paper's observation (b): the realistic points fall on (near) the SYN
curves — damage is determined by the competitors' cache refs/sec, not by
what processing they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..apps.registry import REALISTIC_APPS
from ..core.prediction import SensitivityCurve
from ..core.reporting import format_series
from ..sweep import run_grid
from ..sweep.parallel import concat, predictor_block
from .common import ExperimentConfig
from . import fig2


@dataclass
class Fig5Result:
    """SYN curves plus realistic (refs/sec, drop) points per target type."""

    curves: Dict[str, SensitivityCurve]
    #: target -> [(competitor type, measured competing refs/sec, drop), ...]
    realistic_points: Dict[str, List[Tuple[str, float, float]]]

    def deviation(self, target: str) -> float:
        """Mean |realistic drop - curve(realistic refs)| for ``target``.

        This is the residual of the paper's SYN-equivalence claim; the
        prediction method inherits it as its first error source.
        """
        curve = self.curves[target]
        points = self.realistic_points[target]
        if not points:
            return 0.0
        return sum(
            abs(drop - curve.predict(refs)) for _, refs, drop in points
        ) / len(points)

    def render(self) -> str:
        """Curves and realistic points as text."""
        blocks = []
        for target, curve in sorted(self.curves.items()):
            blocks.append(format_series(
                f"{target}(S) SYN curve",
                [(x / 1e6, round(100 * y, 2)) for x, y in curve.points],
                x_label="competing Mrefs/s", y_label="drop %",
            ))
            blocks.append(format_series(
                f"{target}(R) realistic points",
                [(comp, round(refs / 1e6, 1), round(100 * drop, 2))
                 for comp, refs, drop in self.realistic_points[target]],
                x_label="competitor, Mrefs/s", y_label="drop %",
            ))
        return "\n".join(blocks)


def grid(config: ExperimentConfig,
         apps: Sequence[str] = REALISTIC_APPS):
    """The overlay as shards: the Figure 2 grid plus per-app SYN curves.

    Composes :func:`fig2.grid` with a
    :func:`~repro.sweep.parallel.predictor_block` over the same apps;
    the shared solo profiles dedupe by content key inside the sweep.
    """
    apps = tuple(apps)
    fig2_shards, merge_fig2 = fig2.grid(config, apps=apps)
    pred_shards, merge_predictor = predictor_block(
        apps, config.socket_spec(), config.seed,
        (config.solo_warmup, config.solo_measure),
        (config.corun_warmup, config.corun_measure),
        repeats=config.repeats)
    shards, split = concat(fig2_shards, pred_shards)

    def merge(results) -> Fig5Result:
        fig2_results, pred_results = split(results)
        fig2_result = merge_fig2(fig2_results)
        _, curves = merge_predictor(pred_results)
        realistic: Dict[str, List[Tuple[str, float, float]]] = {}
        for target in apps:
            points = []
            for competitor in apps:
                corun = fig2_result.measurements[(target, competitor)]
                refs = corun.competing_refs(exclude=f"{target}@0")
                points.append((competitor, refs,
                               fig2_result.drops[(target, competitor)]))
            realistic[target] = points
        return Fig5Result(curves=curves, realistic_points=realistic)

    return shards, merge


def run(config: ExperimentConfig,
        apps: Sequence[str] = REALISTIC_APPS, runner=None) -> Fig5Result:
    """Build the overlay from the Figure 2 co-runs plus per-app SYN sweeps."""
    return run_grid(grid(config, apps), runner)
