"""Multiple flows time-sharing one core (the paper's Section 6 caveat).

The paper's scenarios run one flow per core and predict contention from
L3 behaviour alone, noting: "If each core runs multiple flows, these
compete for the L1 and L2 caches, so considering only the L3 accesses may
not be sufficient to predict performance drop."

:class:`SharedCoreFlow` makes that setting expressible: it multiplexes
several flows onto one core with per-packet round-robin (how SMP Click's
task scheduler interleaves elements on a thread). The inner flows then
share the core's private L1/L2 in the simulation — their structures evict
each other between turns — which is precisely the effect an L3-only
predictor cannot see. ``experiments.multiflow`` quantifies it.
"""

from __future__ import annotations

from typing import List, Sequence

from ..mem.access import AccessContext


class SharedCoreFlow:
    """Round-robin multiplexer over several flows on a single core."""

    def __init__(self, flows: Sequence, name: str = "shared"):
        if not flows:
            raise ValueError("need at least one flow to share the core")
        self.flows: List = list(flows)
        self.name = name
        # Aggregate pacing: the multiplexed flow processes one packet per
        # turn, so its packet rate is the sum over members.
        weights = [float(getattr(f, "measure_weight", 1.0)) for f in flows]
        self.measure_weight = sum(weights) / len(weights)
        self.turns = [0] * len(flows)
        self._next = 0

    def attach_run(self, machine, flow_run) -> None:
        """Forward run-state bindings to every member flow."""
        for flow in self.flows:
            attach = getattr(flow, "attach_run", None)
            if attach is not None:
                attach(machine, flow_run)

    @property
    def timing_pure(self) -> bool:
        """Pure iff every member flow is (round-robin adds no run state)."""
        return all(getattr(f, "timing_pure", False) for f in self.flows)

    def run_packet(self, ctx: AccessContext):
        """Process one packet on behalf of the next member (round-robin)."""
        index = self._next
        self._next = (index + 1) % len(self.flows)
        self.turns[index] += 1
        return self.flows[index].run_packet(ctx)


def shared_core_factory(factories: Sequence, name: str = "shared"):
    """Machine-compatible factory multiplexing ``factories`` onto one core."""

    def build(env):
        return SharedCoreFlow([factory(env) for factory in factories],
                              name=name)

    # Cacheable iff every member is; order matters (round-robin). Lets
    # Machine.add_flow match a cached stream before constructing any
    # member flow.
    sigs = tuple(getattr(f, "stream_signature", None) for f in factories)
    if not any(s is None for s in sigs):
        build.stream_signature = ("shared", name) + sigs
    return build
