"""Memory-controller model: fixed fill latency plus utilization queueing.

Each socket has one integrated memory controller (paper Figure 1). A line
fill occupies the controller for ``service_cycles``; concurrent fills
queue. Queueing delay is computed from the controller's recent
*utilization* (busy fraction over a sliding window) through the M/M/1-style
form ``wait = service * rho / (1 - rho)``, rather than from a busy-until
timestamp: the timing engine interleaves cores with a small amount of
timestamp reordering, and a busy-until queue would misread that reordering
as contention. The utilization form is insensitive to arrival order while
still producing the paper's memory-controller effects: a modest drop under
MC-only contention (Figure 4(b)) and a miss penalty that "slowly increases
with competition" (Section 3.3).

``rho`` changes only when a window rolls over, so the wait is computed
once per window and every request in between returns the stored value.
A request's common step is three operations: count it, add its service
time to the window's busy cycles, and compare the time since the window
opened with :data:`UTILIZATION_WINDOW`. Both window loops of
:mod:`repro.hw.machine` and :mod:`repro.fastpath.engine` run that step
inline on the queue's public fields and then read ``wait``; only when
the window is due do they call :meth:`UtilizationQueue.roll`, the one
place the window rolls, which :meth:`UtilizationQueue.request` calls too.
The inline step and :meth:`~UtilizationQueue.request` perform the same
float operations in the same order, so either leaves the queue in the
same state (``tests/test_dram.py`` pins a traced co-run's waits to it).
"""

from __future__ import annotations

#: Utilization sampling window, in cycles (~18 microseconds at 2.8 GHz).
UTILIZATION_WINDOW = 50_000.0

#: Utilization is capped here when computing waits, so a saturated
#: controller yields a large-but-finite queueing delay.
MAX_RHO = 0.95


class UtilizationQueue:
    """Shared-channel queueing from windowed utilization."""

    __slots__ = ("service_cycles", "requests", "rho", "wait",
                 "window_start", "window_busy")

    def __init__(self, service_cycles: float):
        if service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        self.service_cycles = service_cycles
        self.reset()

    def request(self, now: float) -> float:
        """One transfer at time ``now``; returns the queueing delay in cycles."""
        self.requests += 1
        self.window_busy += self.service_cycles
        if now - self.window_start >= UTILIZATION_WINDOW:
            self.roll(now)
        return self.wait

    def roll(self, now: float) -> None:
        """Close the window at ``now``: its utilization sets the wait of
        every request until the next roll."""
        elapsed = now - self.window_start
        rho = self.rho = min(MAX_RHO, self.window_busy / elapsed)
        self.wait = self.service_cycles * rho / (1.0 - rho)
        self.window_start = now
        self.window_busy = 0.0

    @property
    def busy_cycles(self) -> float:
        """Lifetime cycles the channel spent serving requests."""
        return self.requests * self.service_cycles

    def utilization(self, elapsed_cycles: float) -> float:
        """Lifetime busy fraction over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)

    def reset(self) -> None:
        """Clear queue state and statistics."""
        self.requests = 0
        self.rho = 0.0
        #: Queueing delay of every request in the current window.
        self.wait = 0.0
        #: Clock at which the current window opened, and the service
        #: cycles requested in it so far.
        self.window_start = 0.0
        self.window_busy = 0.0


class MemoryController(UtilizationQueue):
    """One NUMA domain's memory controller."""

    __slots__ = ("domain",)

    def __init__(self, domain: int, service_cycles: float):
        super().__init__(service_cycles)
        self.domain = domain
