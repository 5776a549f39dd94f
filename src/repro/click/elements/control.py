"""ControlElement: throttle a flow's memory-access rate (Section 4).

The paper's defense against *hidden aggressiveness*: "we add to the
beginning of each flow a control element, which performs a configurable
number of simple CPU operations, with the purpose of slowing down the flow
and controlling the rate at which it performs memory accesses", driven by
hardware performance counters. Here the element reads the flow's simulated
counters live (L3 refs and the core clock) and adapts its per-packet delay
with a proportional controller so the flow's cache refs/sec never exceeds
its profiled rate.
"""

from __future__ import annotations

from typing import Optional

from ...mem.access import AccessContext
from ...net.packet import Packet
from ..element import Element


def adjust_step(loop, span: int) -> None:
    """One proportional step of ``loop`` over its last ``span`` packets.

    Shared by :class:`ControlElement` and
    :class:`~repro.core.throttling.RateThrottle`. ``extra_gap`` grows
    with the L3 refs/sec excess over the target and is released at a
    quarter of the gain, so transient dips do not unthrottle a flow.
    """
    fr = loop._fr
    d_refs = fr.counters.l3_refs - loop._last_refs
    d_clock = fr.clock - loop._last_clock
    loop._last_refs = fr.counters.l3_refs
    loop._last_clock = fr.clock
    if d_clock <= 0 or span <= 0:
        return
    target = loop.target_refs_per_sec
    rate = d_refs * loop._freq / d_clock
    error = (rate - target) / target
    cycles_per_packet = d_clock / span
    if error > 0:
        loop.extra_gap += loop.gain * error * cycles_per_packet
    else:
        loop.extra_gap = max(
            0.0,
            loop.extra_gap + 0.25 * loop.gain * error * cycles_per_packet,
        )
    loop.adjustments += 1


class ControlElement(Element):
    """Adaptive per-packet delay bounding L3 refs/sec at ``target_refs_per_sec``."""

    def __init__(self, target_refs_per_sec: Optional[float] = None,
                 adjust_every: int = 64, gain: float = 0.5):
        if adjust_every <= 0:
            raise ValueError("adjust_every must be positive")
        if gain <= 0:
            raise ValueError("gain must be positive")
        self.target_refs_per_sec = target_refs_per_sec
        self.adjust_every = adjust_every
        self.gain = gain
        self.extra_gap = 0.0
        self.adjustments = 0
        self._count = 0
        self._last_refs = 0
        self._last_clock = 0.0
        self._fr = None
        self._freq = 0.0

    def attach_run(self, machine, flow_run) -> None:
        """Bind to the live run state (called by the Machine via the Pipeline)."""
        self._fr = flow_run
        self._freq = machine.spec.freq_hz

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        gap = int(self.extra_gap)
        ctx.compute(gap + 4, max(4, gap // 2))
        self._count += 1
        if (self.target_refs_per_sec is not None and self._fr is not None
                and self._count % self.adjust_every == 0):
            self._adjust()
        return packet

    def _adjust(self) -> None:
        adjust_step(self, self.adjust_every)
