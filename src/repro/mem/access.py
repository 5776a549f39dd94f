"""Access recording: how applications drive the cache simulation.

Applications do their real work against ordinary Python data structures,
but every logical data-structure access is mirrored into an
:class:`AccessContext`. The context accumulates, per packet, an *access
program*: a flat list of ``(gap_cycles, line, tag)`` triples (stored as a
flat int list for speed) plus an instruction count. The timing engine in
:mod:`repro.hw.machine` replays these programs, interleaving the programs
of co-running cores at memory-reference granularity, which is what creates
shared-cache and memory-controller contention.

Tags label references with the function that issued them (for example
``radix_ip_lookup`` or ``flow_statistics``), enabling the per-function
hit-to-miss conversion breakdown of the paper's Figure 7.

``compute``/``cost`` and ``touch`` are the generic API: one call per
compute charge or per byte range. The per-packet elements of the
paper's flows record through two bulk primitives instead, one call per
element and step, with line numbers they compute from their regions'
line-aligned bases:

* :meth:`AccessContext.record` -- a compute cost, then a run of lines
  (the receive/transmit descriptors, the IP header, NetFlow's bucket and
  entry);
* :meth:`AccessContext.record_each` -- the same cost before each of a
  run of lines (a radix-trie walk, RE's fingerprint-table probes, the
  firewall and DPI scans, SYN's random reads).

Both produce exactly the program the equivalent ``cost``/``touch_line``
calls would (property-tested), carried pending gap included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..constants import CACHE_LINE_BITS
from .region import Region


class TagRegistry:
    """Registry of reference tags (small ints) keyed by function name."""

    def __init__(self) -> None:
        self._by_name: Dict[str, int] = {}
        self._names: List[str] = []
        self.register("other")

    def register(self, name: str) -> int:
        """Return the tag id for ``name``, registering it if new."""
        tag = self._by_name.get(name)
        if tag is None:
            tag = len(self._names)
            self._by_name[name] = tag
            self._names.append(name)
        return tag

    def name(self, tag: int) -> str:
        """The function name for tag id ``tag``."""
        return self._names[tag]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


#: Process-wide registry. Tag ids are stable within a process, which lets
#: counters from different runs (solo vs. co-run) be compared by id.
TAGS = TagRegistry()
TAG_OTHER = 0


class AccessContext:
    """Per-flow recorder turning logical accesses into an access program.

    The produced program is a flat list ``[gap0, line0, tag0, gap1, ...]``
    where ``gap`` is compute cycles spent *before* the reference. Compute
    issued after the last reference of a packet is carried in
    ``trailing_gap``.
    """

    __slots__ = ("program", "instructions", "trailing_gap", "is_idle",
                 "_pending_gap")

    def __init__(self) -> None:
        self.program: List[int] = []
        self.instructions = 0
        self.trailing_gap = 0
        self.is_idle = False
        self._pending_gap = 0

    # -- recording ---------------------------------------------------------

    def compute(self, gap_cycles: int, instructions: int) -> None:
        """Record pure compute work (no memory reference)."""
        self._pending_gap += gap_cycles
        self.instructions += instructions

    def cost(self, gap_and_instr: tuple) -> None:
        """Record a ``(gap, instructions)`` cost constant pair."""
        self._pending_gap += gap_and_instr[0]
        self.instructions += gap_and_instr[1]

    def touch_line(self, line: int, tag: int = TAG_OTHER) -> None:
        """Record one memory reference to cache line ``line``."""
        self.program.extend((self._pending_gap, line, tag))
        self._pending_gap = 0

    def record(self, cost: tuple, lines: Sequence[int],
               tag: int = TAG_OTHER) -> None:
        """Record ``cost``, then one reference to each of ``lines`` in order.

        Same program as ``cost(cost)`` followed by ``touch_line(line, tag)``
        per line; with no lines it is just ``cost(cost)``. ``lines`` must
        be a sized sequence.
        """
        self.instructions += cost[1]
        gap = self._pending_gap + cost[0]
        n = len(lines)
        if not n:
            self._pending_gap = gap
            return
        program = self.program
        # One- and two-line steps (descriptors, headers, NetFlow's bucket
        # and entry) are nearly every call: extend once, no loop.
        if n == 1:
            program += (gap, lines[0], tag)
        elif n == 2:
            program += (gap, lines[0], tag, 0, lines[1], tag)
        else:
            for line in lines:
                program += (gap, line, tag)
                gap = 0
        self._pending_gap = 0

    def record_each(self, cost: tuple, lines: Sequence[int],
                    tag: int = TAG_OTHER) -> None:
        """Record ``cost`` before each of ``lines``.

        Same program as ``cost(cost)`` then ``touch_line(line, tag)`` per
        line, so no lines record nothing. ``lines`` must be a sized
        sequence.
        """
        n = len(lines)
        if not n:
            return
        program = self.program
        start = len(program)
        program += (cost[0], 0, tag) * n
        program[start + 1::3] = lines
        program[start] += self._pending_gap
        self._pending_gap = 0
        self.instructions += cost[1] * n

    def touch(
        self,
        region: Region,
        offset: int,
        length: int = 1,
        tag: int = TAG_OTHER,
    ) -> None:
        """Record references covering ``[offset, offset+length)`` of ``region``.

        Hot path: bounds are the region's responsibility (regions are sized
        at allocation time and validated by the substrate tests), so this
        computes line indices directly instead of going through
        :meth:`Region.lines`. ``length`` must be positive.
        """
        if length <= 0:
            raise ValueError(f"touch length must be positive, got {length}")
        base = region.base + offset
        first = base >> CACHE_LINE_BITS
        last = (base + length - 1) >> CACHE_LINE_BITS
        program = self.program
        if first == last:
            program += (self._pending_gap, first, tag)
        else:
            start = len(program)
            program += (0, 0, tag) * (last - first + 1)
            program[start + 1::3] = range(first, last + 1)
            program[start] = self._pending_gap
        self._pending_gap = 0

    def touch_entry(
        self, region: Region, index: int, entry_bytes: int, tag: int = TAG_OTHER
    ) -> None:
        """Record references for entry ``index`` of a fixed-stride table."""
        self.touch(region, index * entry_bytes, entry_bytes, tag)

    # -- packet boundary ---------------------------------------------------

    def finish_packet(self) -> None:
        """Seal the current packet's program; leftover compute becomes trailing gap."""
        self.trailing_gap = self._pending_gap
        self._pending_gap = 0

    def mark_idle(self, stall_cycles: int) -> None:
        """Mark this step as an idle stall (pipeline stage with no input).

        Idle steps advance time but are not counted as processed packets.
        """
        if stall_cycles <= 0:
            raise ValueError("idle stall must advance time")
        self.is_idle = True
        self._pending_gap += stall_cycles

    def reset(self) -> None:
        """Clear all recorded state, ready for the next packet."""
        self.program.clear()
        self.instructions = 0
        self.trailing_gap = 0
        self.is_idle = False
        self._pending_gap = 0

    # -- introspection (used by tests and debug tooling) --------------------

    @property
    def n_references(self) -> int:
        """Number of memory references recorded so far."""
        return len(self.program) // 3

    def references(self) -> List[tuple]:
        """The recorded references as ``(gap, line, tag)`` tuples."""
        prog = self.program
        return [
            (prog[i], prog[i + 1], prog[i + 2]) for i in range(0, len(prog), 3)
        ]

    def lines_touched(self) -> List[int]:
        """Just the line addresses, in order."""
        return self.program[1::3]

    def total_gap_cycles(self) -> int:
        """Total compute cycles recorded (including pending/trailing)."""
        return sum(self.program[0::3]) + self._pending_gap + self.trailing_gap


def line_of(addr: int) -> int:
    """Global cache-line index of byte address ``addr``."""
    return addr >> CACHE_LINE_BITS
