"""Contention-aware scheduling study (Section 5).

Given J flows and J cores across two sockets, how much does the
flow-to-core placement matter? Placements differ only in how flows are
split across sockets (cores within a socket are symmetric), so the study
enumerates the distinct 6/6 multiset splits, evaluates the average
per-flow drop for each (by full simulation or via the predictor), and
reports the best and worst — whose small difference is the paper's
argument that contention-aware scheduling "may not be worth the effort".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..constants import (
    DEFAULT_MEASURE_PACKETS,
    DEFAULT_SEED,
    DEFAULT_WARMUP_PACKETS,
)
from ..hw.counters import performance_drop
from ..hw.topology import PlatformSpec
from .prediction import ContentionPredictor
from .profiler import SoloProfile

#: A split: (socket-0 flow names, socket-1 flow names), each sorted.
Split = Tuple[Tuple[str, ...], Tuple[str, ...]]


def enumerate_splits(flows: Sequence[str], per_socket: int) -> List[Split]:
    """Distinct unordered splits of ``flows`` into two ``per_socket`` groups."""
    if len(flows) != 2 * per_socket:
        raise ValueError(
            f"need exactly {2 * per_socket} flows, got {len(flows)}"
        )
    seen: Set[frozenset] = set()
    out: List[Split] = []
    indices = range(len(flows))
    for group in combinations(indices, per_socket):
        group_set = set(group)
        left = tuple(sorted(flows[i] for i in group))
        right = tuple(sorted(flows[i] for i in indices if i not in group_set))
        key = frozenset((left, right))
        if key in seen:
            continue
        seen.add(key)
        out.append((left, right))
    return out


def enumerate_partitions(flows: Sequence[str], n_groups: int,
                         group_size: int) -> List[Tuple[Tuple[str, ...], ...]]:
    """Distinct unordered partitions of ``flows`` into equal-size groups.

    Generalizes :func:`enumerate_splits` to ``n_groups`` sockets (the
    guard's admission controller enumerates alternative placements when
    a proposed mix is rejected). ``flows`` need not fill every socket —
    partially-filled groups are fine — but must fit:
    ``len(flows) <= n_groups * group_size``.
    """
    flows = list(flows)
    if len(flows) > n_groups * group_size:
        raise ValueError(
            f"{len(flows)} flows cannot fit {n_groups} groups of "
            f"{group_size}")
    seen: Set[Tuple[Tuple[str, ...], ...]] = set()
    out: List[Tuple[Tuple[str, ...], ...]] = []

    def assign(remaining: List[str], groups: List[List[str]]) -> None:
        if not remaining:
            key = tuple(sorted(tuple(sorted(g)) for g in groups))
            if key not in seen:
                seen.add(key)
                out.append(key)
            return
        flow, rest = remaining[0], remaining[1:]
        for group in groups:
            if len(group) >= group_size:
                continue
            group.append(flow)
            assign(rest, groups)
            group.pop()

    assign(flows, [[] for _ in range(n_groups)])
    return out


@dataclass
class PlacementOutcome:
    """Evaluation of one split."""

    split: Split
    per_flow_drop: Dict[str, float]  # label -> drop
    average_drop: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlacementOutcome({'+'.join(self.split[0])} | "
            f"{'+'.join(self.split[1])}: avg {self.average_drop:.1%})"
        )


@dataclass
class StudyResult:
    """Best/worst placements for one flow combination."""

    outcomes: List[PlacementOutcome]

    @property
    def best(self) -> PlacementOutcome:
        """The placement with the lowest average drop."""
        return min(self.outcomes, key=lambda o: o.average_drop)

    @property
    def worst(self) -> PlacementOutcome:
        """The placement with the highest average drop."""
        return max(self.outcomes, key=lambda o: o.average_drop)

    @property
    def scheduling_gain(self) -> float:
        """Overall-performance gain of the best over the worst placement."""
        return self.worst.average_drop - self.best.average_drop


class PlacementStudy:
    """Evaluate flow-to-core placements for a flow combination."""

    def __init__(self, spec: PlatformSpec,
                 profiles: Dict[str, SoloProfile],
                 predictor: Optional[ContentionPredictor] = None,
                 seed: int = DEFAULT_SEED,
                 warmup_packets: int = DEFAULT_WARMUP_PACKETS,
                 measure_packets: int = DEFAULT_MEASURE_PACKETS):
        if spec.n_sockets != 2:
            raise ValueError("the placement study assumes two sockets")
        self.spec = spec
        self.profiles = profiles
        self.predictor = predictor
        self.seed = seed
        self.warmup_packets = warmup_packets
        self.measure_packets = measure_packets

    # -- evaluation ------------------------------------------------------------

    def _placement(self, split: Split) -> List[Tuple[str, int]]:
        """Core assignment of one split (validated)."""
        placement: List[Tuple[str, int]] = []
        per_socket = self.spec.cores_per_socket
        for socket, group in enumerate(split):
            if len(group) > per_socket:
                raise ValueError("split larger than a socket")
            for i, app in enumerate(group):
                placement.append((app, socket * per_socket + i))
        return placement

    def grid(self, splits: Sequence[Split]):
        """Each split's co-run as one shard; merge -> outcomes in order."""
        from ..sweep.parallel import corun_measurement, corun_shard

        shards = [
            corun_shard(self._placement(split), self.spec, self.seed,
                        self.warmup_packets, self.measure_packets,
                        tag="split:" + "|".join(
                            "+".join(group) for group in split))
            for split in splits
        ]

        def merge(results) -> List[PlacementOutcome]:
            outcomes = []
            for split, res in zip(splits, results):
                corun = corun_measurement(res.payload)
                drops = {
                    label: performance_drop(self.profiles[app].throughput,
                                            corun.throughput[label])
                    for label, app in corun.apps.items()
                }
                outcomes.append(PlacementOutcome(
                    split=split, per_flow_drop=drops,
                    average_drop=sum(drops.values()) / len(drops)))
            return outcomes

        return shards, merge

    def predict_split(self, split: Split) -> PlacementOutcome:
        """Predictor-based evaluation (no simulation)."""
        if self.predictor is None:
            raise RuntimeError("no predictor configured")
        drops: Dict[str, float] = {}
        for socket, group in enumerate(split):
            for i, app in enumerate(group):
                competitors = list(group)
                competitors.remove(app)
                label = f"{app}@{socket * self.spec.cores_per_socket + i}"
                drops[label] = self.predictor.predict_drop(app, competitors)
        avg = sum(drops.values()) / len(drops)
        return PlacementOutcome(split=split, per_flow_drop=drops,
                                average_drop=avg)

    def run(self, flows: Sequence[str], method: str = "simulate",
            max_splits: Optional[int] = None,
            runner=None) -> StudyResult:
        """Evaluate every distinct split of ``flows``.

        ``method`` is ``"simulate"`` (ground truth, slow) or ``"predict"``
        (uses the sensitivity curves, fast). ``max_splits`` caps the number
        of evaluated splits for large mixed combinations (the extremes of
        interest are found among all splits by prediction first). The
        simulated splits resolve as one grid through
        :func:`repro.sweep.run_grid` on ``runner`` (default: inline).
        """
        splits = enumerate_splits(flows, self.spec.cores_per_socket)
        if method == "predict":
            return StudyResult([self.predict_split(s) for s in splits])
        if method != "simulate":
            raise ValueError(f"unknown method {method!r}")
        if max_splits is not None and len(splits) > max_splits:
            if self.predictor is None:
                raise RuntimeError(
                    "max_splits requires a predictor to pre-rank splits"
                )
            ranked = sorted(splits,
                            key=lambda s: self.predict_split(s).average_drop)
            half = max(1, max_splits // 2)
            splits = ranked[:half] + ranked[-half:]
        from ..sweep import run_grid

        return StudyResult(run_grid(self.grid(splits), runner))
