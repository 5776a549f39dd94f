"""SYN: the synthetic profiling application (Section 2.1).

"For each received packet, we perform a configurable number of CPU
operations (counter increments) and read a configurable number of random
memory locations from a data structure that has the size of the L3
cache." SYN_MAX is the most aggressive variant: nothing but back-to-back
memory accesses.

SYN flows are the probes of the paper's prediction method: co-running a
target flow with SYN flows of increasing refs/sec yields the target's
sensitivity curve (Section 4, step 2).
"""

from __future__ import annotations

from typing import Optional

from ..constants import COST_SYN_CPU_OP, COST_SYN_REF, SYN_ARRAY_FRACTION
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..mem.region import Region


class SynApp:
    """The SYN synthetic flow (standalone flow, no packet I/O path)."""

    measure_weight = 1.0
    #: Generation depends only on the seeded per-flow RNG, never on live
    #: run state — eligible for pregeneration by the batch engine.
    timing_pure = True

    def __init__(self, env: FlowEnv, cpu_ops_per_ref: int = 0,
                 refs_per_packet: int = 32,
                 array_bytes: Optional[int] = None,
                 name: str = "SYN"):
        if refs_per_packet <= 0:
            raise ValueError("SYN must reference memory")
        if cpu_ops_per_ref < 0:
            raise ValueError("cpu_ops_per_ref must be non-negative")
        self.name = name
        self.cpu_ops_per_ref = cpu_ops_per_ref
        self.refs_per_packet = refs_per_packet
        size = (array_bytes if array_bytes is not None
                else int(env.spec.l3_size * SYN_ARRAY_FRACTION))
        self.region: Region = env.space.domain(env.domain).alloc(size, "syn.array")
        self.n_lines = self.region.n_lines
        self._bits = self.n_lines.bit_length()
        self.rng = env.rng
        self.counter = 0
        self._base_line = self.region.base >> 6
        self._tag = TAGS.register("syn")
        #: (gap, instructions) before each reference.
        self._cost = (COST_SYN_CPU_OP[0] * cpu_ops_per_ref,
                      COST_SYN_CPU_OP[1] * cpu_ops_per_ref + COST_SYN_REF[1])

    def run_packet(self, ctx: AccessContext):
        """One SYN \"packet\": the configured CPU ops and random reads.

        Each read is ``randrange(n_lines)``, drawn inline the way
        :meth:`random.Random.randrange` draws it: ``getrandbits`` of
        ``n_lines.bit_length()`` bits until the value is below
        ``n_lines``, so the RNG consumes the same words.
        """
        getrandbits = self.rng.getrandbits
        base = self._base_line
        n = self.n_lines
        k = self._bits
        lines = []
        append = lines.append
        for _ in range(self.refs_per_packet):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            append(base + r)
        ctx.record_each(self._cost, lines, self._tag)
        self.counter += self.cpu_ops_per_ref * self.refs_per_packet
        return None


def syn_signature(cpu_ops_per_ref: int, refs_per_packet: int,
                  array_bytes: Optional[int], name: str):
    """The stream signature of SynApps built with these parameters.

    Together with (machine seed, core, spec) it pins the whole generated
    access stream (see :mod:`repro.fastpath.streams`). It names the
    *parameter* ``array_bytes``: None means "L3-sized", which the spec,
    part of the cache key, resolves.
    """
    return ("syn", name, cpu_ops_per_ref, refs_per_packet, array_bytes)


def syn_factory(cpu_ops_per_ref: int = 0, refs_per_packet: int = 32,
                array_bytes: Optional[int] = None, name: str = "SYN"):
    """Factory for :meth:`Machine.add_flow`."""

    def build(env: FlowEnv) -> SynApp:
        return SynApp(env, cpu_ops_per_ref=cpu_ops_per_ref,
                      refs_per_packet=refs_per_packet,
                      array_bytes=array_bytes, name=name)

    # Lets Machine.add_flow find a cached stream (and skip construction)
    # without calling build() at all.
    build.stream_signature = syn_signature(cpu_ops_per_ref, refs_per_packet,
                                           array_bytes, name)
    return build


def syn_max_factory(array_bytes: Optional[int] = None):
    """SYN_MAX: consecutive memory accesses at the highest possible rate."""
    return syn_factory(cpu_ops_per_ref=0, array_bytes=array_bytes,
                       name="SYN_MAX")


#: Gap levels (CPU ops between refs) used by sensitivity sweeps: from a
#: gentle trickle of competing references up to SYN_MAX (cpu_ops 0).
SWEEP_CPU_OPS = (1440, 720, 360, 160, 60, 20, 0)
