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
                 "_window_start", "_window_busy")

    def __init__(self, service_cycles: float):
        if service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        self.service_cycles = service_cycles
        self.reset()

    def request(self, now: float) -> float:
        """One transfer at time ``now``; returns the queueing delay in cycles."""
        self.requests += 1
        self._window_busy += self.service_cycles
        elapsed = now - self._window_start
        if elapsed >= UTILIZATION_WINDOW:
            rho = self.rho = min(MAX_RHO, self._window_busy / elapsed)
            self.wait = self.service_cycles * rho / (1.0 - rho)
            self._window_start = now
            self._window_busy = 0.0
        return self.wait

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
        self._window_start = 0.0
        self._window_busy = 0.0


class MemoryController(UtilizationQueue):
    """One NUMA domain's memory controller."""

    __slots__ = ("domain",)

    def __init__(self, domain: int, service_cycles: float):
        super().__init__(service_cycles)
        self.domain = domain
