"""QuickPath interconnect model.

Remote memory accesses (a core on socket A filling a line homed on socket
B's memory controller) pay a fixed extra latency and occupy the QPI link,
which queues under load like the memory controller does (same
windowed-utilization model, see :mod:`repro.hw.dram`). The paper's
production configuration avoids the interconnect entirely through
NUMA-local allocation (Section 2.2); the Figure 3 configurations use it
deliberately to isolate memory-controller contention from cache contention.
"""

from __future__ import annotations

from .dram import UtilizationQueue


class QPILink(UtilizationQueue):
    """Bidirectional point-to-point link between the two sockets."""

    __slots__ = ("extra_cycles",)

    def __init__(self, extra_cycles: float, service_cycles: float):
        if extra_cycles < 0:
            raise ValueError("extra latency cannot be negative")
        super().__init__(service_cycles)
        self.extra_cycles = extra_cycles

    @property
    def transfers(self) -> int:
        """Lines moved across the link (every request is one transfer)."""
        return self.requests

    def transfer(self, now: float) -> float:
        """Move one line across the link at ``now``; returns added latency."""
        return self.request(now) + self.extra_cycles
