"""Offline solo-run profiling (Table 1 and step 1 of the prediction method).

"We measure the number of last-level cache refs/sec performed by each flow
during a solo run." A solo profile is one flow on one core with every
other core idle; the derived columns match Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..constants import (
    DEFAULT_MEASURE_PACKETS,
    DEFAULT_SEED,
    DEFAULT_WARMUP_PACKETS,
)
from ..hw.counters import FlowStats
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from ..apps.registry import app_factory


@dataclass(frozen=True)
class SoloProfile:
    """Solo-run characteristics of one flow type (one Table 1 row)."""

    app: str
    throughput: float                 # packets/sec
    cycles_per_instruction: float
    l3_refs_per_sec: float
    l3_hits_per_sec: float
    cycles_per_packet: float
    l3_refs_per_packet: float
    l3_misses_per_packet: float
    l2_hits_per_packet: float

    @classmethod
    def from_stats(cls, app: str, stats: FlowStats) -> "SoloProfile":
        """Extract the Table 1 columns from a measured window."""
        return cls(
            app=app,
            throughput=stats.packets_per_sec,
            cycles_per_instruction=stats.cycles_per_instruction,
            l3_refs_per_sec=stats.l3_refs_per_sec,
            l3_hits_per_sec=stats.l3_hits_per_sec,
            cycles_per_packet=stats.cycles_per_packet,
            l3_refs_per_packet=stats.l3_refs_per_packet,
            l3_misses_per_packet=stats.l3_misses_per_packet,
            l2_hits_per_packet=stats.l2_hits_per_packet,
        )

    @property
    def l3_hits_per_packet(self) -> float:
        """Derived: refs minus misses per packet."""
        return self.l3_refs_per_packet - self.l3_misses_per_packet


def profile_solo(app: str, spec: PlatformSpec, seed: int = DEFAULT_SEED,
                 warmup_packets: int = DEFAULT_WARMUP_PACKETS,
                 measure_packets: int = DEFAULT_MEASURE_PACKETS,
                 core: int = 0, **app_params) -> SoloProfile:
    """Profile ``app`` running alone on ``core`` of a machine."""
    machine = Machine(spec, seed=seed)
    flow = machine.add_flow(app_factory(app, **app_params), core=core,
                            label=app)
    result = machine.run(warmup_packets=warmup_packets,
                         measure_packets=measure_packets)
    return SoloProfile.from_stats(app, result[flow.label])


def profile_apps(apps: Iterable[str], spec: PlatformSpec,
                 seed: int = DEFAULT_SEED,
                 warmup_packets: int = DEFAULT_WARMUP_PACKETS,
                 measure_packets: int = DEFAULT_MEASURE_PACKETS,
                 repeats: int = 1, runner=None) -> Dict[str, SoloProfile]:
    """Profile several flow types; averages over ``repeats`` seeded runs.

    This is how Table 1 is produced ("each number represents an average
    over 5 independent runs"; we default to 1 and let callers choose).
    The (app, repeat) grid resolves through :func:`repro.sweep.run_grid`
    on ``runner`` (default: inline, uncached).
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    from ..sweep import run_grid
    from ..sweep.parallel import profile_block

    return run_grid(profile_block(list(apps), spec, seed, warmup_packets,
                                  measure_packets, repeats), runner)


def _average_profiles(app: str, profiles) -> SoloProfile:
    n = len(profiles)
    if n == 1:
        return profiles[0]

    def mean(attr: str) -> float:
        return sum(getattr(p, attr) for p in profiles) / n

    return SoloProfile(
        app=app,
        throughput=mean("throughput"),
        cycles_per_instruction=mean("cycles_per_instruction"),
        l3_refs_per_sec=mean("l3_refs_per_sec"),
        l3_hits_per_sec=mean("l3_hits_per_sec"),
        cycles_per_packet=mean("cycles_per_packet"),
        l3_refs_per_packet=mean("l3_refs_per_packet"),
        l3_misses_per_packet=mean("l3_misses_per_packet"),
        l2_hits_per_packet=mean("l2_hits_per_packet"),
    )
