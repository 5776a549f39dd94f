"""The guard's control element: a wrapper flow the supervisor can steer.

:class:`GuardedFlow` is the runtime analogue of
:class:`~repro.core.throttling.ThrottledFlow` and shares its closed loop
(:class:`~repro.core.throttling.RateThrottle`), with two differences: the
throttle target is *externally set* (and re-set) by the
:class:`~repro.guard.supervisor.SLOGuard` escalation ladder instead of
fixed at construction, and the flow supports *quarantine* — a bounded
suspension during which it emits only idle packets (time advances, no
work is done, no packets are counted).

The wrapper reads live counters, so it is not timing-pure, but it changes
only its inner flow's timing: a quarantine adds idle packets and a
throttle adds leading compute, while the inner flow's reference sequence
stays fixed. Over a timing-pure inner flow the batch engine therefore
replays the inner stream (from the stream cache when warm) and runs the
wrapper's control decisions live at every packet boundary, so the
guard's closed loop stays deterministic and bit-equal across engines.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.throttling import RateThrottle, wrapper_factory


class GuardedFlow(RateThrottle):
    """Wrap a flow with a supervisor-steerable throttle and quarantine."""

    #: Marker the supervisor uses to discover its control surface.
    guard_controllable = True

    def __init__(self, inner, adjust_every: int = 16, gain: float = 0.6,
                 idle_stall: float = 512.0):
        super().__init__(inner, None, adjust_every, gain, "guarded")
        if idle_stall <= 0:
            raise ValueError("idle_stall must be positive")
        self.idle_stall = float(idle_stall)
        #: Absolute clock until which the flow is quarantined.
        self.suspended_until = 0.0
        #: Escalation rung the supervisor has this flow on (0 = clean).
        self.rung = 0
        self.limit_changes = 0
        self.suspensions = 0
        self.idle_packets = 0

    @property
    def limit_refs_per_sec(self) -> Optional[float]:
        """Current throttle target (None: unthrottled)."""
        return self.target_refs_per_sec

    # -- supervisor control surface -----------------------------------------

    def set_limit(self, refs_per_sec: float) -> None:
        """(Re-)target the throttle; resets the feedback window to now."""
        if refs_per_sec <= 0:
            raise ValueError("throttle target must be positive")
        self.target_refs_per_sec = float(refs_per_sec)
        self.limit_changes += 1
        if self._fr is not None:
            self._last_refs = self._fr.counters.l3_refs
            self._last_clock = self._fr.clock
            self._last_count = self._count

    def suspend_until(self, clock: float) -> None:
        """Quarantine: emit only idle packets until ``clock``."""
        if clock < 0:
            raise ValueError("suspension deadline cannot be negative")
        self.suspended_until = float(clock)
        self.suspensions += 1

    def release(self) -> None:
        """Drop every restriction (throttle and quarantine)."""
        self.target_refs_per_sec = None
        self.extra_gap = 0.0
        self.suspended_until = 0.0

    # -- flow protocol -------------------------------------------------------

    def wrap_packet(self, ctx, run_inner):
        """Quarantine stall, or the throttled inner packet."""
        fr = self._fr
        if fr is not None and fr.clock < self.suspended_until:
            # Quarantined: advance time without doing (or counting) work.
            self.idle_packets += 1
            ctx.mark_idle(self.idle_stall)
            return None
        return super().wrap_packet(ctx, run_inner)

    def stats(self) -> Dict[str, Any]:
        """Control-surface statistics for reports and invariant checks."""
        return {
            "limit_refs_per_sec": self.limit_refs_per_sec,
            "extra_gap": self.extra_gap,
            "rung": self.rung,
            "adjustments": self.adjustments,
            "limit_changes": self.limit_changes,
            "suspensions": self.suspensions,
            "idle_packets": self.idle_packets,
            "engaged": self.adjustments > 0,
        }


def guarded_factory(inner_factory, adjust_every: int = 16, gain: float = 0.6,
                    idle_stall: float = 512.0):
    """Machine-compatible factory wrapping ``inner_factory`` for the guard."""
    return wrapper_factory(inner_factory, lambda inner: GuardedFlow(
        inner, adjust_every=adjust_every, gain=gain, idle_stall=idle_stall))
