"""Host-speed normalisation: time work in *nominal seconds*.

The speed of a shared virtual machine drifts (up to 2x within a minute
on the 2-vCPU host this benchmark was tuned on, in bursts of a few
hundred milliseconds), so raw seconds of identical work do not repeat.
While a unit of work runs, an interval timer interrupts it every
:data:`PERIOD_S` and times a short pure-Python reference loop; three more
loops run just before and just after the unit. The unit's raw seconds
(minus the time spent in those interruptions) are scaled by
``NOMINAL_LOOP_S / mean(loop seconds)``: a unit that ran while the host
was twice as slow took twice the raw time *and* saw twice-as-slow loops,
so its nominal time is unchanged. Sampling inside the unit tracks bursts
that loops timed only between units miss (per-pass spread 4.6% against
7.6% for between-unit loops and 10% raw, on guard-fuzz).

The loop resembles the simulator's hot path (list-backed LRU sets,
modulo indexing, membership tests) but shares no code with ``repro``,
so a faster simulator does not change the yardstick.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Reference-loop seconds that define one nominal second: the loop's
#: typical time on the calibration host (2 vCPU Xeon, Python 3.11), so
#: nominal seconds read close to raw seconds there.
NOMINAL_LOOP_S = 0.0005

#: Interval between in-unit reference loops (seconds).
PERIOD_S = 0.02

#: Loops timed just before and just after each unit.
BRACKET = 3


def _reference_lines(n: int = 3000, universe: int = 1024,
                     seed: int = 12345) -> List[int]:
    """A fixed pseudo-random line sequence (LCG, identical everywhere)."""
    x = seed
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.append((x >> 8) % universe)
    return out


_LINES = _reference_lines()


def reference_loop(lines: List[int] = _LINES, n_sets: int = 64,
                   ways: int = 8) -> int:
    """One pass of a set-associative LRU over ``lines``; returns hits."""
    sets: List[List[int]] = [[] for _ in range(n_sets)]
    hits = 0
    for line in lines:
        s = sets[line % n_sets]
        if line in s:
            s.remove(line)
            s.append(line)
            hits += 1
        else:
            s.append(line)
            if len(s) > ways:
                s.pop(0)
    return hits


class HostClock:
    """Measures callables in raw and nominal seconds.

    ``on_sample``, when set, is a context-manager factory entered around
    every in-unit loop (the tracer uses it to keep loop time out of the
    layer it interrupted).
    """

    def __init__(self, loop: Callable[[], object] = reference_loop,
                 nominal_loop_s: float = NOMINAL_LOOP_S,
                 period_s: Optional[float] = PERIOD_S,
                 timer: Callable[[], float] = time.perf_counter):
        self._loop = loop
        self.nominal_loop_s = nominal_loop_s
        self._timer = timer
        self.period_s = period_s if hasattr(signal, "setitimer") else None
        self.on_sample = None
        #: Mean loop seconds seen by each measurement, in order.
        self.unit_loops: List[float] = []
        self._in_unit: List[float] = []
        self._interrupted_s = 0.0

    def _time_loop(self) -> float:
        t0 = self._timer()
        self._loop()
        return self._timer() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = self._timer()
        if self.on_sample is None:
            self._in_unit.append(self._time_loop())
        else:
            with self.on_sample():
                self._in_unit.append(self._time_loop())
        self._interrupted_s += self._timer() - t0

    def measure(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn``; returns ``(result, raw_s, nominal_s)``.

        ``raw_s`` excludes the in-unit loops; ``nominal_s`` is ``raw_s``
        normalised by the mean of every loop timed for this unit.
        """
        loops = [self._time_loop() for _ in range(BRACKET)]
        self._in_unit = []
        self._interrupted_s = 0.0
        previous = None
        if self.period_s:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s,
                             self.period_s)
        t0 = self._timer()
        try:
            out = fn()
        finally:
            raw = self._timer() - t0
            if self.period_s:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        raw -= self._interrupted_s
        loops += self._in_unit
        loops += [self._time_loop() for _ in range(BRACKET)]
        loop_s = statistics.fmean(loops)
        self.unit_loops.append(loop_s)
        return out, raw, self.nominalise(raw, loop_s)

    def nominalise(self, raw_s: float, loop_s: float) -> float:
        return raw_s * self.nominal_loop_s / loop_s

    def stats(self) -> Dict[str, float]:
        """Min/median/max of the per-unit mean loop; ``drift`` = max/min."""
        if not self.unit_loops:
            return {"n": 0}
        lo, hi = min(self.unit_loops), max(self.unit_loops)
        return {"n": len(self.unit_loops), "min_s": lo,
                "median_s": statistics.median(self.unit_loops), "max_s": hi,
                "drift": hi / lo}
