"""Figure 2: the effect of resource contention between realistic flows.

(a) For each pair of flow types (X, Y): a flow of type X co-runs with 5
flows of type Y on one socket; report X's performance drop.
(b) Average drop per target type across its five scenarios.

Paper shapes to reproduce: MON is the most sensitive type (worst drop from
RE/MON-class competitors), FW both suffers and causes the least, RE is the
most aggressive competitor, and sensitivity ordering follows solo-run
hits/sec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..apps.registry import REALISTIC_APPS
from ..core.profiler import SoloProfile
from ..core.reporting import format_table, pct
from ..core.validation import CoRunMeasurement
from ..sweep import run_grid
from ..sweep.parallel import (concat, corun_measurement, corun_shard,
                              profile_block)
from .common import ExperimentConfig

#: Paper Figure 2(b): average drop per target type (percent).
PAPER_FIG2B = {"IP": 18.81, "MON": 20.86, "FW": 4.65, "RE": 6.34, "VPN": 9.84}


@dataclass
class Fig2Result:
    """Pairwise drops and the per-target averages."""

    apps: Tuple[str, ...]
    profiles: Dict[str, SoloProfile]
    #: (target, competitor) -> measured drop (fraction).
    drops: Dict[Tuple[str, str], float]
    #: (target, competitor) -> the underlying co-run measurement.
    measurements: Dict[Tuple[str, str], CoRunMeasurement]

    def average_drop(self, target: str) -> float:
        """Figure 2(b): mean drop of ``target`` across all competitor types."""
        values = [self.drops[(target, c)] for c in self.apps]
        return sum(values) / len(values)

    def averages(self) -> Dict[str, float]:
        """Figure 2(b): per-target average drops."""
        return {app: self.average_drop(app) for app in self.apps}

    def most_sensitive(self) -> str:
        """The target type with the highest average drop."""
        return max(self.apps, key=self.average_drop)

    def most_aggressive(self) -> str:
        """The competitor type causing the highest mean drop."""
        def caused(comp: str) -> float:
            return sum(self.drops[(t, comp)] for t in self.apps) / len(self.apps)

        return max(self.apps, key=caused)

    def max_drop(self) -> float:
        """The worst pair drop in the matrix."""
        return max(self.drops.values())

    def render(self) -> str:
        """The Figure 2 matrix as text."""
        header = ["target \\ 5x competitor", *self.apps, "avg (2b)"]
        rows = []
        for target in self.apps:
            rows.append([
                target,
                *[pct(self.drops[(target, c)]) for c in self.apps],
                pct(self.average_drop(target)),
            ])
        return format_table(header, rows,
                           title="Figure 2: contention-induced drop")


def grid(config: ExperimentConfig,
         apps: Sequence[str] = REALISTIC_APPS,
         n_competitors: int = 5):
    """The study as independent shards: ``(shards, merge)``.

    One shard per solo profile and one per (target, competitor, repeat)
    co-run — the sweep orchestrator runs them in any order on any number
    of workers, and ``merge`` rebuilds the :class:`Fig2Result` in a fixed
    order.
    """
    apps = tuple(apps)
    spec = config.socket_spec()
    prof_shards, merge_profiles = profile_block(
        apps, spec, config.seed, config.solo_warmup, config.solo_measure,
        config.repeats)
    corun_shards = []
    for target in apps:
        for competitor in apps:
            for rep in range(config.repeats):
                placement = [(target, 0)] + [
                    (competitor, core + 1) for core in range(n_competitors)
                ]
                corun_shards.append(corun_shard(
                    placement, spec, config.seed + 1009 * rep,
                    config.corun_warmup, config.corun_measure,
                    tag=f"fig2:{target} vs {n_competitors}x{competitor}"
                        + (f"#{rep}" if config.repeats > 1 else "")))
    shards, split = concat(prof_shards, corun_shards)

    def merge(results) -> Fig2Result:
        prof_results, corun_results = split(results)
        profiles = merge_profiles(prof_results)
        it = iter(corun_results)
        drops: Dict[Tuple[str, str], float] = {}
        measurements: Dict[Tuple[str, str], CoRunMeasurement] = {}
        for target in apps:
            for competitor in apps:
                total = 0.0
                last = None
                for _rep in range(config.repeats):
                    corun = corun_measurement(next(it).payload)
                    total += corun.drop(f"{target}@0", profiles[target])
                    last = corun
                drops[(target, competitor)] = total / config.repeats
                measurements[(target, competitor)] = last
        return Fig2Result(apps=apps, profiles=profiles, drops=drops,
                          measurements=measurements)

    return shards, merge


def run(config: ExperimentConfig,
        apps: Sequence[str] = REALISTIC_APPS,
        n_competitors: int = 5, runner=None) -> Fig2Result:
    """Run the full pairwise co-run study."""
    return run_grid(grid(config, apps, n_competitors), runner)
