"""Time-series metrics: periodic counter sampling during a run.

The seed engine only exposed one end-of-run counter delta per flow; the
paper's measurement methodology (and any LENS-style multi-resource
analysis) wants per-resource *time series*. A :class:`MetricsSampler`
snapshots each flow's :class:`~repro.hw.counters.CoreCounters` at a
configurable simulated-time interval; consecutive snapshots yield
interval rates (throughput, L3 refs/sec, hit rate, MC wait fraction)
exposed as :class:`FlowSeries` with percentile summaries.

The sampler implements the machine's observer contract (``begin``,
``window``, ``after_run``); the driver owns its per-flow deadlines.
Sampling happens at packet boundaries (the engine's natural quiescent
points), so sample timestamps carry the actual clock of the boundary that
triggered them rather than the nominal grid point; rates are computed
over the actual elapsed cycles and stay exact. The telescoping property
holds by construction: interval deltas sum to the end-of-run totals
(asserted in ``tests/test_obs_metrics.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Interval-point fields whose percentile summaries are most useful.
SUMMARY_FIELDS = ("pps", "l3_refs_per_sec", "l3_hit_rate", "mc_wait_frac")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q / 100.0 * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    frac = position - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class FlowSeries:
    """One flow's sampled counter history and its derived interval rates."""

    def __init__(self, label: str, core: int, freq_hz: float,
                 snaps: List[Tuple[float, Any]]):
        self.label = label
        self.core = core
        self.freq_hz = freq_hz
        #: ``[(clock_cycles, CoreCounters snapshot), ...]`` in time order.
        self.snaps = snaps

    def __len__(self) -> int:
        return len(self.snaps)

    def totals(self):
        """Counter delta across the whole sampled range."""
        if len(self.snaps) < 2:
            raise ValueError(f"flow {self.label!r} has fewer than 2 samples")
        return self.snaps[-1][1].delta(self.snaps[0][1])

    def points(self) -> List[Dict[str, float]]:
        """Interval rates between consecutive snapshots.

        Each point covers ``(t0_s, t1_s]`` in simulated seconds and
        reports the raw deltas plus the derived per-resource rates the
        paper's analysis is built on.
        """
        freq = self.freq_hz
        out: List[Dict[str, float]] = []
        for (c0, s0), (c1, s1) in zip(self.snaps, self.snaps[1:]):
            dc = c1 - c0
            if dc <= 0:
                continue
            d = s1.delta(s0)
            seconds = dc / freq
            refs = d.l3_refs
            out.append({
                "t0_s": c0 / freq,
                "t1_s": c1 / freq,
                "cycles": dc,
                "packets": d.packets,
                "instructions": d.instructions,
                "pps": d.packets / seconds,
                "l3_refs": refs,
                "l3_refs_per_sec": refs / seconds,
                "l3_hits_per_sec": d.l3_hits / seconds,
                "l3_misses_per_sec": d.l3_misses / seconds,
                "l3_hit_rate": d.l3_hits / refs if refs else 0.0,
                "mc_wait_frac": d.mc_wait_cycles / dc,
                "remote_refs_per_sec": d.remote_refs / seconds,
            })
        return out

    def series(self, field: str) -> List[Tuple[float, float]]:
        """``(t1_s, value)`` pairs of one derived field over time."""
        return [(p["t1_s"], p[field]) for p in self.points()]

    def drop_series(self, solo_pps: float) -> List[Tuple[float, float]]:
        """Per-interval throughput drop vs. a solo baseline rate."""
        if solo_pps <= 0:
            raise ValueError("solo throughput must be positive")
        return [(p["t1_s"], (solo_pps - p["pps"]) / solo_pps)
                for p in self.points()]

    def summary(self, fields: Sequence[str] = SUMMARY_FIELDS,
                qs: Sequence[float] = (0, 50, 90, 99, 100)) -> Dict[str, Dict[str, float]]:
        """Percentile summary of interval rates: ``{field: {p50: ...}}``."""
        points = self.points()
        out: Dict[str, Dict[str, float]] = {}
        for field in fields:
            values = [p[field] for p in points]
            if not values:
                continue
            stats = {f"p{q:g}": percentile(values, q) for q in qs}
            stats["mean"] = sum(values) / len(values)
            out[field] = stats
        return out


class MetricsSampler:
    """Samples every flow's counters at a fixed simulated-time interval.

    Attach one to a :class:`~repro.hw.machine.Machine` (``metrics=``
    argument, or implicitly through an :func:`repro.obs.observe`
    session). The sampler is one of the machine's observers: the driver
    owns its per-flow deadlines, every :attr:`interval_cycles`, and
    calls :meth:`window` at the first packet boundary past each one.
    """

    def __init__(self, interval_us: Optional[float] = None,
                 interval_cycles: Optional[float] = None):
        if (interval_us is None) == (interval_cycles is None):
            raise ValueError(
                "specify exactly one of interval_us / interval_cycles")
        if interval_us is not None and interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if interval_cycles is not None and interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self._interval_us = interval_us
        self.interval_cycles = interval_cycles
        self.freq_hz: Optional[float] = None
        self._snaps: List[List[Tuple[float, Any]]] = []
        self._labels: List[str] = []
        self._cores: List[int] = []
        self._begun = False

    # -- observer protocol --------------------------------------------------

    def begin(self, machine) -> None:
        """Bind to a machine at run start; takes the t=0 snapshot."""
        if self._begun:
            raise RuntimeError("sampler already attached to a run; "
                               "build a fresh MetricsSampler per machine")
        self._begun = True
        self.freq_hz = machine.spec.freq_hz
        if self.interval_cycles is None:
            self.interval_cycles = self._interval_us * 1e-6 * self.freq_hz
        for fr in machine.flows:
            self._labels.append(fr.label)
            self._cores.append(fr.core)
            snap = fr.counters.copy()
            snap.cycles = 0.0
            self._snaps.append([(0.0, snap)])

    def window(self, flow_index: int, clock: float, counters) -> None:
        """Snapshot one flow at ``clock``."""
        snap = counters.copy()
        snap.cycles = clock
        self._snaps[flow_index].append((clock, snap))

    def after_run(self, machine, result) -> None:
        """Final snapshot per flow at its end-of-run clock."""
        for i, fr in enumerate(machine.flows):
            last_clock = self._snaps[i][-1][0]
            if fr.clock > last_clock:
                snap = fr.counters.copy()
                snap.cycles = fr.clock
                self._snaps[i].append((fr.clock, snap))

    # -- results ------------------------------------------------------------

    @property
    def flow_labels(self) -> List[str]:
        return list(self._labels)

    def series(self, flow: str) -> FlowSeries:
        """The sampled series of the flow labelled ``flow``."""
        try:
            index = self._labels.index(flow)
        except ValueError:
            raise KeyError(f"no sampled flow {flow!r}; "
                           f"have {self._labels}") from None
        return FlowSeries(flow, self._cores[index], self.freq_hz,
                          self._snaps[index])

    def all_series(self) -> Dict[str, FlowSeries]:
        """Every flow's series, keyed by label."""
        return {label: self.series(label) for label in self._labels}

    def payload(self) -> Dict[str, List[Dict[str, float]]]:
        """JSON-ready interval points per flow (RunReport timeseries)."""
        out: Dict[str, List[Dict[str, float]]] = {}
        for label in self._labels:
            points = self.series(label).points()
            if points:
                out[label] = points
        return out
