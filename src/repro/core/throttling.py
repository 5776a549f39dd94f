"""Aggressiveness containment (Section 4, "Containing hidden aggressiveness").

A flow may behave innocently during offline profiling and aggressively in
production (the paper's example: an FW-like flow that switches to
SYN_MAX-style behaviour on a trigger packet). The defense: "we add to
the beginning of each flow a control element, which performs a
configurable number of simple CPU operations, with the purpose of slowing
down the flow and controlling the rate at which it performs memory
accesses", driven by hardware counters, whenever the flow exceeds its
profiled rate.

:class:`RateThrottle` is that control element: the one closed loop, read
from the flow's live simulated counters, that :class:`ThrottledFlow` and
the guard's :class:`~repro.guard.wrappers.GuardedFlow` wrap around a flow.
:class:`TwoFacedFlow` is the adversary.

As in the paper's control element, the throttle acts on timing only: it
inserts compute before a packet and never changes which references the
inner flow makes. So the batch engine replays a throttled flow from its
inner flow's pregenerated (or cached) stream and runs only the wrapper's
control decisions live, at packet boundaries (:mod:`repro.fastpath.engine`).
A wrapper's factory declares no stream signature of its own: it exposes
``inner_factory``, and the stream is keyed by the innermost factory's.
"""

from __future__ import annotations

from typing import Any, Dict

from ..mem.access import AccessContext


class RateThrottle:
    """The closed loop shared by every timing-only flow wrapper.

    Every ``adjust_every`` packets the loop compares the wrapped flow's
    L3 refs/sec since the last adjustment (from its live counters) with
    ``target_refs_per_sec`` and grows or shrinks ``extra_gap``, the
    compute inserted before each packet. A target of None disengages the
    loop. Subclasses decide where the target comes from.

    The wrapper changes *when* its inner flow's references happen, never
    *which* ones: ``timing_only`` declares that, and :meth:`wrap_packet`
    is the wrapper's whole per-packet behaviour around a call to the
    inner flow. The batch engine relies on both: it replays the inner
    flow's fixed reference stream and runs :meth:`wrap_packet` at every
    packet boundary around a stand-in for the inner call.
    """

    #: The loop reads live counters, so the packet *timing* depends on
    #: run state: never pregenerated as a whole.
    timing_pure = False
    #: Only timing changes; the inner flow's reference sequence does not.
    timing_only = True

    def __init__(self, inner, target_refs_per_sec, adjust_every: int,
                 gain: float, kind: str):
        if adjust_every <= 0:
            raise ValueError("adjust_every must be positive")
        self.inner = inner
        self.name = f"{kind}({getattr(inner, 'name', '?')})"
        self.measure_weight = getattr(inner, "measure_weight", 1.0)
        self.target_refs_per_sec = target_refs_per_sec
        self.adjust_every = adjust_every
        self.gain = gain
        #: Extra inter-packet gap the throttle currently inserts.
        self.extra_gap = 0.0
        self.adjustments = 0
        self._count = 0
        self._last_count = 0
        self._last_refs = 0
        self._last_clock = 0.0
        self._fr = None
        self._freq = 0.0

    def attach_run(self, machine, flow_run) -> None:
        """Bind to the live run state (counter feedback loop)."""
        self._fr = flow_run
        self._freq = machine.spec.freq_hz
        inner_attach = getattr(self.inner, "attach_run", None)
        if inner_attach is not None:
            inner_attach(machine, flow_run)

    def run_packet(self, ctx: AccessContext):
        """One packet of the inner flow, wrapped."""
        return self.wrap_packet(ctx, self.inner.run_packet)

    def wrap_packet(self, ctx, run_inner):
        """Insert the current throttle delay, run ``run_inner(ctx)``, and
        take a closed-loop step every ``adjust_every`` packets."""
        gap = int(self.extra_gap)
        if gap > 0:
            ctx.compute(gap, max(2, gap // 2))
        dma = run_inner(ctx)
        self._count += 1
        if (self._fr is not None and self.target_refs_per_sec is not None
                and self._count % self.adjust_every == 0):
            self._adjust(self._count - self._last_count)
        return dma

    def _adjust(self, span: int) -> None:
        """One proportional step over the last ``span`` packets.

        ``extra_gap`` grows with the L3 refs/sec excess over the target
        and is released at a quarter of the gain, so transient dips do
        not unthrottle a flow.
        """
        self._last_count = self._count
        fr = self._fr
        d_refs = fr.counters.l3_refs - self._last_refs
        d_clock = fr.clock - self._last_clock
        self._last_refs = fr.counters.l3_refs
        self._last_clock = fr.clock
        if d_clock <= 0 or span <= 0:
            return
        target = self.target_refs_per_sec
        rate = d_refs * self._freq / d_clock
        error = (rate - target) / target
        cycles_per_packet = d_clock / span
        if error > 0:
            self.extra_gap += self.gain * error * cycles_per_packet
        else:
            self.extra_gap = max(
                0.0,
                self.extra_gap + 0.25 * self.gain * error * cycles_per_packet,
            )
        self.adjustments += 1

    def finish_run(self) -> None:
        """End-of-run flush over the final partial adjust window.

        With ``adjust_every`` larger than the packets actually run the
        periodic loop never fires: the flow finishes with ``extra_gap``
        still 0 and no signal that the throttle never engaged. Both
        engines call this hook after the measurement snapshots close, so
        the control loop sees every run at least once (``stats()``
        surfaces ``engaged`` either way).
        """
        if (self._fr is not None and self.target_refs_per_sec is not None
                and self._count > self._last_count):
            self._adjust(self._count - self._last_count)
        hook = getattr(self.inner, "finish_run", None)
        if hook is not None:
            hook()


class ThrottledFlow(RateThrottle):
    """Wrap a flow; bound its L3 refs/sec at a fixed target rate."""

    def __init__(self, inner, target_refs_per_sec: float,
                 adjust_every: int = 32, gain: float = 0.6):
        if target_refs_per_sec <= 0:
            raise ValueError("target rate must be positive")
        super().__init__(inner, target_refs_per_sec, adjust_every, gain,
                         "throttled")

    def stats(self) -> Dict[str, Any]:
        """Throttle-loop statistics (``engaged`` flags a dead loop)."""
        return {
            "target_refs_per_sec": self.target_refs_per_sec,
            "extra_gap": self.extra_gap,
            "adjustments": self.adjustments,
            "packets": self._count,
            "engaged": self.adjustments > 0,
        }


class TwoFacedFlow:
    """A flow that turns aggressive after ``trigger_packets`` packets.

    Until the trigger it runs ``innocent`` (e.g. an FW pipeline — what the
    profiler saw); afterwards it runs ``aggressive`` (e.g. SYN_MAX). The
    paper's contrived-but-instructive attacker.
    """

    def __init__(self, innocent, aggressive, trigger_packets: int):
        if trigger_packets < 0:
            raise ValueError("trigger must be non-negative")
        self.innocent = innocent
        self.aggressive = aggressive
        self.trigger_packets = trigger_packets
        self.name = f"twofaced({getattr(innocent, 'name', '?')})"
        self.measure_weight = getattr(innocent, "measure_weight", 1.0)
        self.packets = 0
        self.triggered = False

    def attach_run(self, machine, flow_run) -> None:
        """Forward run-state bindings to both personas."""
        for flow in (self.innocent, self.aggressive):
            attach = getattr(flow, "attach_run", None)
            if attach is not None:
                attach(machine, flow_run)

    @property
    def timing_pure(self) -> bool:
        """The trigger counts own packets only — pure iff both personas are."""
        return (getattr(self.innocent, "timing_pure", False)
                and getattr(self.aggressive, "timing_pure", False))

    def run_packet(self, ctx: AccessContext):
        """Run the active persona (switching at the trigger)."""
        self.packets += 1
        if not self.triggered and self.packets > self.trigger_packets:
            self.triggered = True
        active = self.aggressive if self.triggered else self.innocent
        return active.run_packet(ctx)


def two_faced_factory(innocent_factory, aggressive_factory,
                      trigger_packets: int):
    """Machine-compatible factory of a :class:`TwoFacedFlow`.

    When both personas' factories declare a stream signature, so does
    this one: the trigger and the two personas' streams pin the
    composite's, so the batch engine can cache it and skip constructing
    it on a warm cache.
    """

    def build(env):
        return TwoFacedFlow(innocent_factory(env), aggressive_factory(env),
                            trigger_packets=trigger_packets)

    inn = getattr(innocent_factory, "stream_signature", None)
    agg = getattr(aggressive_factory, "stream_signature", None)
    if inn is not None and agg is not None:
        build.stream_signature = ("twofaced", trigger_packets, inn, agg)
    return build


def wrapper_factory(inner_factory, wrap):
    """A Machine-compatible factory building ``wrap(inner_factory(env))``.

    ``inner_factory`` and ``wrap`` stay readable on the factory, so
    :meth:`~repro.hw.machine.Machine.add_flow` can wrap a construction-free
    skeleton of the inner flow when the batch engine has its stream cached.
    """

    def build(env):
        return wrap(inner_factory(env))

    build.inner_factory = inner_factory
    build.wrap = wrap
    return build


def throttled_factory(inner_factory, target_refs_per_sec: float,
                      adjust_every: int = 32, gain: float = 0.6):
    """Machine-compatible factory wrapping ``inner_factory`` with throttling."""
    return wrapper_factory(inner_factory, lambda inner: ThrottledFlow(
        inner, target_refs_per_sec, adjust_every=adjust_every, gain=gain))
