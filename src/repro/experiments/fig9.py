"""Figure 9: prediction for a mixed workload.

The paper's 12-flow mix — 2 MON, 2 VPN, 1 FW, 1 RE per processor — with
measured and predicted drop for every flow. Paper shape: maximum absolute
error ~1.3%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.prediction import ContentionPredictor
from ..core.reporting import format_table, pct
from ..hw.counters import performance_drop
from ..sweep import run_grid
from ..sweep.parallel import corun_measurement, corun_shard, predictor_block
from .common import ExperimentConfig

#: The paper's per-socket mix.
SOCKET_MIX = ("MON", "MON", "VPN", "VPN", "FW", "RE")


@dataclass
class Fig9Result:
    """Per-flow measured vs. predicted drops for the mixed workload."""

    #: [(label, app, measured, predicted)]
    rows: List[Tuple[str, str, float, float]]

    def max_abs_error(self) -> float:
        """Largest |predicted - measured| across the mix."""
        return max(abs(p - m) for _, _, m, p in self.rows)

    def mean_abs_error(self) -> float:
        """Mean |predicted - measured| across the mix."""
        return sum(abs(p - m) for _, _, m, p in self.rows) / len(self.rows)

    def render(self) -> str:
        """The Figure 9 table as text."""
        table_rows = [
            [label, pct(measured), pct(predicted), pct(predicted - measured)]
            for label, _, measured, predicted in self.rows
        ]
        return format_table(
            ["flow", "measured drop", "predicted drop", "error"],
            table_rows, title="Figure 9: mixed workload",
        )


def _placement(spec, socket_mix: Sequence[str]) -> List[Tuple[str, int]]:
    """The two-socket core assignment of the mix (validated)."""
    if spec.n_sockets != 2:
        raise ValueError("the mixed workload uses both sockets")
    if len(socket_mix) > spec.cores_per_socket:
        raise ValueError("mix does not fit a socket")
    placement: List[Tuple[str, int]] = []
    for socket in range(2):
        for i, app in enumerate(socket_mix):
            placement.append((app, socket * spec.cores_per_socket + i))
    return placement


def grid(config: ExperimentConfig,
         socket_mix: Sequence[str] = SOCKET_MIX):
    """The mixed workload as shards, predictor included.

    The predictor's offline pass over the distinct flow types of the mix
    (identical content keys to the Figure 5 / predictor shards, so a
    shared cache or in-sweep dedup pays for them once), plus the single
    two-socket co-run. ``merge`` compares every flow's measured drop
    with the predictor's.
    """
    spec = config.spec()
    placement = _placement(spec, socket_mix)
    pred_shards, merge_predictor = predictor_block(
        sorted(set(socket_mix)), config.socket_spec(), config.seed,
        (config.solo_warmup, config.solo_measure),
        (config.corun_warmup, config.corun_measure))
    shards = pred_shards + [
        corun_shard(placement, spec, config.seed, config.corun_warmup,
                    config.corun_measure, tag="fig9:" + "+".join(socket_mix))]
    per_socket = spec.cores_per_socket

    def merge(results) -> Fig9Result:
        predictor = ContentionPredictor(*merge_predictor(results[:-1]))
        throughput = corun_measurement(results[-1].payload).throughput
        rows: List[Tuple[str, str, float, float]] = []
        for app, core in placement:
            label = f"{app}@{core}"
            solo = predictor.profiles[app]
            measured = performance_drop(solo.throughput, throughput[label])
            socket = core // per_socket
            competitors = [
                other for other, other_core in placement
                if other_core != core and other_core // per_socket == socket
            ]
            predicted = predictor.predict_drop(app, competitors)
            rows.append((label, app, measured, predicted))
        return Fig9Result(rows=rows)

    return shards, merge


def run(config: ExperimentConfig, socket_mix: Sequence[str] = SOCKET_MIX,
        runner=None) -> Fig9Result:
    """Run the mix and compare measured vs. predicted drops per flow."""
    return run_grid(grid(config, socket_mix), runner)
