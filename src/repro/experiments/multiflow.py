"""Section 6: multiple flows per core and the limits of L3-only prediction.

Two flows time-sharing a core would, under pure time-slicing, each run at
half their solo rate (aggregate = one solo rate). In reality their data
structures fight over the core's private L1/L2 between turns, so the
aggregate falls short — a slowdown invisible to a predictor that only
reasons about shared-L3 references (the target sees *zero* L3
competitors here; every loss is private-cache interference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..apps.registry import app_factory
from ..click.multiflow import shared_core_factory
from ..core.reporting import format_table, pct
from ..hw.machine import Machine
from ..sweep import Shard, run_grid
from ..sweep.parallel import concat, profile_block
from ..sweep.tasks import spec_params
from .common import ExperimentConfig


@dataclass
class MultiflowResult:
    """Aggregate throughput of co-scheduled flows vs. the time-slice ideal."""

    #: [(mix label, ideal aggregate pps, measured aggregate pps)]
    rows: List[Tuple[str, float, float]]

    def shortfall(self, label: str) -> float:
        """Fraction of the time-slicing ideal lost to L1/L2 interference."""
        for row_label, ideal, measured in self.rows:
            if row_label == label:
                return 1.0 - measured / ideal if ideal else 0.0
        raise KeyError(label)

    def render(self) -> str:
        """The core-sharing table as text."""
        rows = [
            [label, f"{ideal:,.0f}", f"{measured:,.0f}",
             pct(1.0 - measured / ideal if ideal else 0.0)]
            for label, ideal, measured in self.rows
        ]
        return format_table(
            ["core mix", "time-slice ideal pps", "measured pps",
             "L1/L2 interference loss"],
            rows,
            title="Section 6: flows sharing one core",
        )


#: Default core-sharing mixes of the study.
DEFAULT_MIXES: Tuple[Tuple[str, ...], ...] = (("MON", "MON"),
                                              ("MON", "IP"),
                                              ("MON", "FW"))


def measure_mix(mix: Sequence[str], spec, seed: int,
                warmup_packets: int, measure_packets: int) -> float:
    """Measured aggregate pps of one mix time-shared on core 0.

    The independently-runnable unit of the study (one sweep shard); the
    packet counts are per-member (the machine runs ``len(mix)`` times as
    many so each member sees its usual window).
    """
    machine = Machine(spec, seed=seed)
    label = "+".join(mix)
    machine.add_flow(shared_core_factory(
        [app_factory(app) for app in mix], name=label,
    ), core=0, label=label)
    stats = machine.run(
        warmup_packets=warmup_packets * len(mix),
        measure_packets=measure_packets * len(mix),
    )[label]
    return stats.packets_per_sec


def grid(config: ExperimentConfig,
         mixes: Tuple[Tuple[str, ...], ...] = DEFAULT_MIXES):
    """The study as shards: solo profiles (in order of first appearance)
    plus one shard per core-sharing mix."""
    spec = config.socket_spec()
    unique_apps = list(dict.fromkeys(app for mix in mixes for app in mix))
    prof_shards, merge_profiles = profile_block(
        unique_apps, spec, config.seed,
        config.solo_warmup, config.solo_measure)
    fields = spec_params(spec)
    mix_shards = [
        Shard("multiflow_mix",
              {"mix": list(mix), "spec": fields, "seed": config.seed,
               "warmup": config.corun_warmup,
               "measure": config.corun_measure},
              tag=f"multiflow:{'+'.join(mix)}")
        for mix in mixes
    ]
    shards, split = concat(prof_shards, mix_shards)

    def merge(results) -> MultiflowResult:
        prof_results, mix_results = split(results)
        profiles = merge_profiles(prof_results)
        rows: List[Tuple[str, float, float]] = []
        for mix, shard_result in zip(mixes, mix_results):
            # Pure time-slicing with one-packet turns: each turn costs
            # 1/solo seconds, so the aggregate rate is n / sum(1/r_i).
            ideal = len(mix) / sum(1.0 / profiles[app].throughput
                                   for app in mix)
            rows.append(("+".join(mix), ideal,
                         shard_result.payload["pps"]))
        return MultiflowResult(rows=rows)

    return shards, merge


def run(config: ExperimentConfig,
        mixes: Tuple[Tuple[str, ...], ...] = DEFAULT_MIXES,
        runner=None) -> MultiflowResult:
    """Run each mix time-shared on a single otherwise-idle core."""
    return run_grid(grid(config, mixes), runner)
