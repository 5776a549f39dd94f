"""Shard-block builders: the analysis layer's simulations as shards.

A *block* is a ``(shards, merge)`` pair: the shard list for one logical
unit of work (a set of solo profiles, one sensitivity curve, a predictor)
and a merge function that consumes exactly that block's
:class:`ShardResult` slice — in input order — and rebuilds the domain
object. Every grid in the repository (profiles, sensitivity sweeps, the
predictor, placement studies, figures) is assembled from these blocks
and resolved by :func:`repro.sweep.run_grid`; grids compose by
concatenating shard lists and slicing the result list back apart
(:func:`concat`), which keeps merging positional and deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..apps.synthetic import SWEEP_CPU_OPS
from ..core.prediction import SensitivityCurve
from ..core.profiler import SoloProfile, _average_profiles
from ..hw.counters import performance_drop
from ..hw.topology import PlatformSpec
from .orchestrator import Grid
from .shard import Shard, ShardResult
from .tasks import spec_params


def concat(*shard_lists: Sequence[Shard]):
    """Concatenate shard lists: ``(shards, split)``, where
    ``split(results)`` returns each list's result slice, in order."""
    shards: List[Shard] = []
    bounds: List[Tuple[int, int]] = []
    for part in shard_lists:
        bounds.append((len(shards), len(shards) + len(part)))
        shards.extend(part)

    def split(results: Sequence[ShardResult]) -> List[Sequence[ShardResult]]:
        return [results[start:end] for start, end in bounds]

    return shards, split


def profile_block(apps: Sequence[str], spec: PlatformSpec, seed: int,
                  warmup: int, measure: int, repeats: int = 1) -> Grid:
    """Solo profiles for ``apps``, averaged over ``repeats`` seeded runs
    (repeat ``i`` runs at ``seed + 101*i``); merge -> ``{app: profile}``."""
    fields = spec_params(spec)
    shards = [
        Shard("profile",
              {"app": app, "spec": fields, "seed": seed + 101 * rep,
               "warmup": warmup, "measure": measure, "core": 0},
              tag=f"profile:{app}" + (f"#{rep}" if repeats > 1 else ""))
        for app in apps for rep in range(repeats)
    ]

    def merge(results: Sequence[ShardResult]) -> Dict[str, SoloProfile]:
        out: Dict[str, SoloProfile] = {}
        it = iter(results)
        for app in apps:
            reps = [SoloProfile(**next(it).payload) for _ in range(repeats)]
            out[app] = _average_profiles(app, reps)
        return out

    return shards, merge


def curve_block(app: str, spec: PlatformSpec, seed: int,
                cpu_ops_levels: Sequence[int], n_competitors: int,
                warmup: int, measure: int):
    """One sensitivity curve, one shard per SYN level.

    The merge needs the target's solo profile (for the drop baseline),
    so it takes ``(results, solo)``.
    """
    fields = spec_params(spec)
    shards = [
        Shard("sensitivity_point",
              {"app": app, "spec": fields, "seed": seed, "level": level,
               "cpu_ops": cpu_ops, "n_competitors": n_competitors,
               "warmup": warmup, "measure": measure},
              tag=f"curve:{app}@L{level}")
        for level, cpu_ops in enumerate(cpu_ops_levels)
    ]

    def merge(results: Sequence[ShardResult],
              solo: SoloProfile) -> SensitivityCurve:
        points = [
            (r.payload["competing"],
             performance_drop(solo.throughput, r.payload["target_pps"]))
            for r in results
        ]
        return SensitivityCurve(app=app, points=points)

    return shards, merge


def predictor_block(apps: Sequence[str], spec: PlatformSpec, seed: int,
                    solo_packets: Tuple[int, int],
                    curve_packets: Tuple[int, int],
                    cpu_ops_levels: Sequence[int] = SWEEP_CPU_OPS,
                    n_competitors: int = 5, repeats: int = 1) -> Grid:
    """The prediction method's offline pass: every solo profile (at
    ``solo_packets`` warm-up/measure) and one SYN curve per app (at
    ``curve_packets``); merge -> ``(profiles, curves)``."""
    apps = list(apps)
    prof_shards, merge_profiles = profile_block(apps, spec, seed,
                                                *solo_packets, repeats)
    curves = [curve_block(app, spec, seed, cpu_ops_levels, n_competitors,
                          *curve_packets) for app in apps]
    shards, split = concat(prof_shards, *(block for block, _ in curves))

    def merge(results):
        prof_results, *curve_results = split(results)
        profiles = merge_profiles(prof_results)
        return profiles, {
            app: merge_curve(part, profiles[app])
            for app, (_, merge_curve), part
            in zip(apps, curves, curve_results)
        }

    return shards, merge


def corun_shard(placement: Sequence[Tuple[str, int]], spec: PlatformSpec,
                seed: int, warmup: int, measure: int,
                tag: str = "") -> Shard:
    """One co-run placement as a shard (Figure 2 cell, split, mix...)."""
    return Shard("corun", {
        "placement": [[app, core] for app, core in placement],
        "spec": spec_params(spec), "seed": seed,
        "warmup": warmup, "measure": measure,
    }, tag=tag)


def corun_measurement(payload: Dict) -> "CoRunMeasurement":
    """Rebuild a :class:`CoRunMeasurement` from a corun shard payload.

    The raw :class:`RunResult` stays in the worker (it is not
    serializable and no merge needs it); ``result`` is None.
    """
    from ..core.validation import CoRunMeasurement

    return CoRunMeasurement(
        apps=dict(payload["apps"]),
        throughput=dict(payload["throughput"]),
        refs_per_sec=dict(payload["refs_per_sec"]),
        result=None,
    )
