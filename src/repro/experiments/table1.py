"""Table 1: solo-run characteristics of each packet-processing flow type."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..apps.registry import REALISTIC_APPS
from ..core.profiler import SoloProfile
from ..core.reporting import format_table
from ..sweep import run_grid
from ..sweep.parallel import profile_block
from .common import ExperimentConfig

#: The paper's Table 1, for side-by-side comparison in reports.
PAPER_TABLE1 = {
    #        cpi   refs/s(M) hits/s(M)  cyc/pkt refs/pkt miss/pkt l2hits/pkt
    "IP":  (1.33, 25.85, 20.21, 1813, 14.64, 3.19, 18.58),
    "MON": (1.43, 27.26, 21.32, 2278, 19.40, 4.23, 19.58),
    "FW":  (1.63, 2.71, 2.13, 23907, 20.22, 4.29, 56.10),
    "RE":  (1.18, 18.18, 5.52, 27433, 155.87, 108.51, 45.63),
    "VPN": (0.56, 9.45, 7.08, 8679, 25.63, 6.41, 30.71),
}


@dataclass
class Table1Result:
    """Measured solo profiles plus the rendering used in reports."""

    profiles: Dict[str, SoloProfile]

    def rows(self):
        """Table rows in the paper's column order."""
        out = []
        for app, p in self.profiles.items():
            out.append([
                app,
                p.cycles_per_instruction,
                p.l3_refs_per_sec / 1e6,
                p.l3_hits_per_sec / 1e6,
                p.cycles_per_packet,
                p.l3_refs_per_packet,
                p.l3_misses_per_packet,
                p.l2_hits_per_packet,
            ])
        return out

    def render(self) -> str:
        """The Table 1 reproduction as text."""
        return format_table(
            ["flow", "cyc/instr", "L3refs/s(M)", "L3hits/s(M)",
             "cyc/pkt", "L3refs/pkt", "L3miss/pkt", "L2hits/pkt"],
            self.rows(),
            title="Table 1: solo-run characteristics",
        )

    def ordering(self, metric: str) -> list:
        """App names sorted descending by a profile attribute."""
        return sorted(self.profiles,
                      key=lambda a: getattr(self.profiles[a], metric),
                      reverse=True)


def grid(config: ExperimentConfig,
         apps: Sequence[str] = REALISTIC_APPS):
    """The table as shards: one solo profile per (app, repeat)."""
    apps = tuple(apps)
    shards, merge_profiles = profile_block(
        apps, config.socket_spec(), config.seed,
        config.solo_warmup, config.solo_measure, config.repeats)

    def merge(results) -> Table1Result:
        return Table1Result(profiles=merge_profiles(results))

    return shards, merge


def run(config: ExperimentConfig,
        apps: Sequence[str] = REALISTIC_APPS, runner=None) -> Table1Result:
    """Profile every flow type solo (Table 1)."""
    return run_grid(grid(config, apps), runner)
