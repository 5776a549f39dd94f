"""Packet-stream pregeneration and caching for the batch engine.

The live window loop interleaves *generation* (running the application's
functional layer to produce one packet's access program) with *replay*
(charging that program against the cache hierarchy). The batch engine
separates the two: flows whose generation is **timing-pure** — the
produced packet sequence depends only on flow-internal state (tables,
seeded RNG), never on live run state such as counters, clocks, or other
flows — have their packets pregenerated in blocks of ``BATCH_PACKETS``
and flattened into arrays the replay loop consumes directly.

Pregeneration is *exactly* equivalent because for a timing-pure flow the
k-th call to ``run_packet`` produces the same program no matter when it
is issued; the engine still applies every per-packet side effect (DMA
invalidation, counter updates, snapshots) at the same point of the
global interleaving as the live loop. A throttle or guard wrapper over
such a flow changes only timing (:func:`stream_pure`), so the supplier
serves the *inner* flow's stream and the engine applies the wrapper.

The same argument covers the core's private caches. L1/L2 see only the
flow's own references and DMA invalidations, so :func:`prefilter` runs
their LRU once per block, ahead of the run, and records each reference's
*level code*: L1 hit, L2 hit, or L3-bound. The replay loop then touches
shared state only for L3-bound references. Each block also keeps a few
checkpoints of the private state, so :func:`restore_private` can rebuild
the L1/L2 contents at any consumed (packet, reference) position when a
run ends.

A pure flow's *factory* may declare a ``stream_signature``: a hashable
value that, together with the machine seed, core, and platform spec,
fully determines the generated stream. :meth:`Machine.add_flow
<repro.hw.machine.Machine.add_flow>` reads it once, from the innermost
factory under any wrapper factories, into ``FlowRun.signature``; flows
themselves carry none. Streams of signatured flows are stored
in a process-wide :class:`StreamCache` in *region-relative* form — each
referenced line is re-expressed as its offset into the concatenation of
the flow's regions in allocation order (:meth:`RegionTable.pack`) — so a
later machine that builds the same flow (possibly at different absolute
addresses, because other flows were allocated first) can rebase and
replay the stream without paying generation again. That is the
dominant cost of dense experiment sweeps (Figure 2's 25 co-runs
re-generate the same five flow types over and over), and the reason
``engine="batch"`` is fast. Stored blocks are compact: every field is a
NumPy array in the narrowest integer dtype that holds the block's values
(about 8 bytes per reference in all, where a Python int takes 28), and
one NumPy pass rebases the packed lines into absolute lines (one add
when the flow's regions lie back to back). Level codes and
checkpoints are cached with the stream, keyed by the layout's region-base
residues (:meth:`RegionTable.residues`), the only part of a layout that
private outcomes depend on; warm machines reuse them and never probe
L1/L2 at all.

Cached replay preserves everything the engine observes — counters,
clocks, drop counts (patched via ``dropped``) — but leaves app-internal
diagnostic state (element hit counters, RNG position) untouched, since
the functional layer never runs. The differential suite pins down the
engine-visible equivalence.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import CACHE_LINE
from ..hw.machine import flow_layers

#: Default pregeneration block size (packets per block): small, since a
#: run materializes its last block of each flow but reads it only in part.
BATCH_PACKETS = 32

#: Default cache capacity in stored memory references. A stored reference
#: costs about 8 bytes (packed line, gap, tag and level code, plus its
#: share of the per-packet fields and private-state checkpoints), so the
#: default is on the order of 32 MB — far more than the experiment suites
#: need, small enough to never matter on a development machine.
DEFAULT_CACHE_REFS = 4_000_000

#: Integer dtypes a stored field may take, narrowest first, with bounds.
_NARROW = tuple((np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
                for t in (np.uint8, np.int8, np.uint16, np.int16,
                          np.uint32, np.int32, np.int64))


def _narrow(values) -> Optional[np.ndarray]:
    """``values`` as an array of the narrowest integer dtype holding them.

    Booleans stay boolean. None when the values are not all integers or
    exceed int64: such a block is not cached.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.uint8)
    if arr.dtype.kind == "b":
        return arr
    if arr.dtype.kind not in "iu":
        return None
    return _fit(arr, int(arr.min()), int(arr.max()))


def _fit(arr: np.ndarray, lo: int, hi: int) -> Optional[np.ndarray]:
    """Integer ``arr``, whose values lie in [lo, hi], narrowed."""
    for dtype, dmin, dmax in _NARROW:
        if dmin <= lo and hi <= dmax:
            return arr.astype(dtype, copy=False)
    return None


def is_timing_pure(flow) -> bool:
    """True when ``flow`` declares generation independent of run state."""
    return bool(getattr(flow, "timing_pure", False))


def stream_pure(flow):
    """``(wrappers, core)`` when ``flow``'s reference *sequence* is fixed.

    A timing-pure flow is its own core, with no wrappers. So is a chain
    of wrappers that each change only their inner flow's timing
    (``timing_only``: the throttle and the guard) over a timing-pure
    flow, a two-faced flow with two pure personas included: the
    wrappers are listed outermost first, and only ``core`` is
    pregenerated. None when some layer may change what is referenced.
    """
    *wrappers, core = flow_layers(flow)
    if not is_timing_pure(core) or not all(
            getattr(w, "timing_only", False) for w in wrappers):
        return None
    return wrappers, core


def materialize_stub(fr) -> None:
    """Replace a skeleton at the core of ``fr``'s flow with the real flow.

    The skeleton is ``fr.flow`` itself or the innermost flow under its
    timing-only wrappers; anything else is left alone.
    """
    *wrappers, core = flow_layers(fr.flow)
    if isinstance(core, StubFlow):
        if wrappers:
            wrappers[-1].inner = core.materialize()
        else:
            fr.flow = core.materialize()


class PacketBlock:
    """One block of pregenerated packets, flattened for the replay loop.

    All per-reference sequences are plain Python lists (fastest to index
    from the interpreter loop). The replay loop derives a reference's L3
    set and home domain from its line, as the live loop does. ``codes``
    holds each reference's private-cache outcome (see :func:`prefilter`):
    the supplier attaches it, and the replay loop touches shared state
    only for L3-bound references.
    """

    __slots__ = (
        "start", "n_packets", "gaps", "lines", "tags",
        "codes", "bounds", "trailing", "instr", "idle", "dma", "dropped",
    )

    def __init__(self, start: int, n_packets: int,
                 gaps: List[int], lines: List[int], tags: List[int],
                 bounds: List[int], trailing: List[int], instr: List[int],
                 idle: List[bool], dma: List[Optional[Tuple[int, ...]]],
                 dropped: List[int]):
        self.start = start              # absolute index of first packet
        self.n_packets = n_packets
        self.gaps = gaps
        self.lines = lines
        self.tags = tags
        self.bounds = bounds            # ref offset per packet, len n+1
        self.trailing = trailing
        self.instr = instr
        self.idle = idle
        self.dma = dma                  # per packet: tuple of lines or None
        self.dropped = dropped          # cumulative flow.dropped after packet
        self.codes = b""

    @property
    def n_refs(self) -> int:
        return len(self.lines)


#: Level codes :func:`prefilter` assigns to references.
L1_HIT, L2_HIT, L3_BOUND = 0, 1, 2


def _private_lru(l1, l1_ways, l2, l2_ways, block, first, k, j, codes,
                 spacing=0, marks=None) -> None:
    """Run a core's private L1/L2 sets from packet ``first`` to (``k``, ``j``).

    ``l1``/``l2`` are lists of LRU-first sets, as in
    :class:`~repro.hw.cache.SetAssociativeCache`, mutated in place.
    Packets ``first..k`` are loaded in turn (invalidating their DMA lines,
    as the live loop does at packet load), and every reference before
    index ``j`` of packet ``k`` is applied, its level code written to
    ``codes``, which must arrive zeroed. With ``marks``, the state is
    snapshotted into it before the load of every packet that is a
    multiple of ``spacing``.
    """
    n1 = len(l1)
    n2 = len(l2)
    lines = block.lines
    bounds = block.bounds
    dma = block.dma
    for p in range(first, k + 1):
        if marks is not None and p % spacing == 0:
            flat = [line for s in l1 for line in s]
            n_l1 = len(flat)
            flat.extend([line for s in l2 for line in s])
            marks.append((flat, n_l1))
        lost = dma[p]
        if lost:
            for line in lost:
                s = l1[line % n1]
                if line in s:
                    s.remove(line)
                s = l2[line % n2]
                if line in s:
                    s.remove(line)
        for r in range(bounds[p], bounds[p + 1] if p < k else j):
            line = lines[r]
            s = l1[line % n1]
            if line in s:
                if s[-1] != line:
                    s.remove(line)
                    s.append(line)
                continue                # L1_HIT: codes arrive zeroed
            s.append(line)
            if len(s) > l1_ways:
                del s[0]
            s = l2[line % n2]
            if line in s:
                s.remove(line)
                s.append(line)
                codes[r] = L2_HIT
            else:
                s.append(line)
                if len(s) > l2_ways:
                    del s[0]
                codes[r] = L3_BOUND


class PrivateCodes:
    """The private-cache outcome of one block for one layout residue class.

    ``codes[r]`` is reference ``r``'s level (:data:`L1_HIT`,
    :data:`L2_HIT` or :data:`L3_BOUND`). Checkpoints hold the private
    state before every ``spacing``-th packet's load, region-relative so
    every layout of the residue class can restore them.
    """

    __slots__ = ("codes", "spacing", "ck_lines", "ck_packed", "ck_bounds",
                 "nbytes")

    def __init__(self, codes: bytes, spacing: int, marks, table):
        self.codes = codes
        self.spacing = spacing
        flat: List[int] = []
        ck_bounds: List[Tuple[int, int, int]] = []
        for lines, n_l1 in marks:
            lo = len(flat)
            flat.extend(lines)
            ck_bounds.append((lo, lo + n_l1, len(flat)))
        self.ck_bounds = _narrow(ck_bounds)
        lines = np.asarray(flat, dtype=np.int64)
        packed = table.pack(lines)
        # A flow touching lines outside its regions is never cached
        # (StreamSupplier._store), so its checkpoints stay absolute.
        self.ck_packed = packed is not None
        self.ck_lines = packed if self.ck_packed else lines
        self.nbytes = len(codes) + self.ck_lines.nbytes + self.ck_bounds.nbytes

    def checkpoint(self, c: int, table: "RegionTable"):
        """Checkpoint ``c`` as (L1 lines, L2 lines), absolute for ``table``."""
        lo, mid, hi = self.ck_bounds[c].tolist()
        lines = self.ck_lines[lo:hi]
        if self.ck_packed:
            lines = table.unpack(lines)
        lines = lines.tolist()
        return lines[:mid - lo], lines[mid - lo:]


def prefilter(l1, l1_ways, l2, l2_ways, block: PacketBlock,
              table: "RegionTable") -> PrivateCodes:
    """Resolve every private-cache outcome of ``block`` in one pass.

    For a timing-pure flow the L1/L2 outcome of a reference depends only
    on the flow's own stream (its DMA invalidations included), so it is
    computed once here, starting from the state ``l1``/``l2`` hold (where
    the previous block ended) and leaving them where this block ends.
    Checkpoints are as dense as a budget of the block's own reference
    count in stored lines allows: a few packets apart on small caches,
    one per block at full scale.
    """
    n_refs = block.n_refs
    per_checkpoint = len(l1) * l1_ways + len(l2) * l2_ways
    n_checkpoints = max(1, n_refs // per_checkpoint)
    spacing = -(-block.n_packets // n_checkpoints)
    codes = bytearray(n_refs)
    marks: List = []
    _private_lru(l1, l1_ways, l2, l2_ways, block, 0, block.n_packets - 1,
                 n_refs, codes, spacing, marks)
    return PrivateCodes(bytes(codes), spacing, marks, table)


def restore_private(rec: PrivateCodes, block: PacketBlock,
                    table: "RegionTable", l1, l1_ways, l2, l2_ways,
                    k: int, j: int) -> None:
    """Set ``l1``/``l2`` to the private state at (packet ``k``, ref ``j``).

    That is the state with packet ``k`` of ``block`` loaded and its
    references before index ``j`` applied: the nearest checkpoint at or
    before packet ``k``, run forward.
    """
    c = k // rec.spacing
    for sets, part in zip((l1, l2), rec.checkpoint(c, table)):
        n = len(sets)
        for s in sets:
            s.clear()
        for line in part:
            sets[line % n].append(line)
    _private_lru(l1, l1_ways, l2, l2_ways, block, c * rec.spacing, k, j,
                 bytearray(block.n_refs))


class _RelativeBlock:
    """A PacketBlock in compact, region-relative form (the cached shape).

    Reference and DMA lines are packed offsets (:meth:`RegionTable.pack`);
    they and every other field are NumPy arrays in the narrowest integer
    dtype that holds this block's values. Build one with :meth:`compact`.
    """

    __slots__ = ("start", "n_packets", "n_refs", "nbytes", "lines", "dma",
                 "gaps", "tags", "bounds", "trailing", "instr", "idle",
                 "dropped", "dma_bounds")

    @classmethod
    def compact(cls, block: PacketBlock,
                table: "RegionTable") -> Optional["_RelativeBlock"]:
        """``block`` in cached form, or None when it cannot be cached: a
        line lies outside the flow's regions (not rebasable) or a field
        holds a value that is not an int64 integer."""
        flat: List[int] = []
        dma_bounds = [0]
        for dma in block.dma:
            if dma:
                flat.extend(dma)
            dma_bounds.append(len(flat))
        arrays = [table.pack(np.asarray(block.lines, dtype=np.int64)),
                  table.pack(np.asarray(flat, dtype=np.int64))]
        arrays += [_narrow(values) for values in (
            block.gaps, block.tags, block.bounds, block.trailing,
            block.instr, block.idle, block.dropped, dma_bounds)]
        if any(a is None for a in arrays):
            return None
        rel = cls()
        (rel.lines, rel.dma, rel.gaps, rel.tags, rel.bounds, rel.trailing,
         rel.instr, rel.idle, rel.dropped, rel.dma_bounds) = arrays
        rel.start = block.start
        rel.n_packets = block.n_packets
        rel.n_refs = block.n_refs
        rel.nbytes = sum(a.nbytes for a in arrays)
        return rel

    def rebase(self, table: "RegionTable") -> PacketBlock:
        """Materialize a PacketBlock against ``table``'s regions."""
        dbounds = self.dma_bounds.tolist()
        if dbounds[-1]:
            dlist = table.unpack(self.dma).tolist()
            dma: List[Optional[Tuple[int, ...]]] = [
                tuple(dlist[lo:hi]) if hi > lo else None
                for lo, hi in zip(dbounds, dbounds[1:])]
        else:
            dma = [None] * self.n_packets
        return PacketBlock(
            self.start, self.n_packets,
            self.gaps.tolist(), table.unpack(self.lines).tolist(),
            self.tags.tolist(), self.bounds.tolist(), self.trailing.tolist(),
            self.instr.tolist(), self.idle.tolist(), dma,
            self.dropped.tolist(),
        )


class RegionTable:
    """A flow's allocated regions, indexable for pack/unpack.

    Regions are listed in allocation order (which is deterministic for a
    given factory, seed, core, and spec), so region *index* is the stable
    coordinate across machines while region *base* moves with whatever
    was allocated earlier.
    """

    def __init__(self, regions):
        self.regions = list(regions)
        order = sorted(range(len(self.regions)),
                       key=lambda i: self.regions[i].base)
        self._starts = np.asarray(
            [self.regions[i].base >> 6 for i in order], dtype=np.int64)
        self._ends = np.asarray(
            [(self.regions[i].end + 63) >> 6 for i in order], dtype=np.int64)
        self._bases_by_index = np.asarray(
            [r.base >> 6 for r in self.regions], dtype=np.int64)
        # Start of each region in the regions' concatenated line space,
        # and what packing adds to a line of each region (in base order)
        # and unpacking to an offset of each region (in allocation order).
        sizes = [((r.end + 63) >> 6) - (r.base >> 6) for r in self.regions]
        self._packed_starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self._pack_shift = (
            self._packed_starts[np.asarray(order, dtype=np.int64)]
            - self._starts)
        self._unpack_shift = self._bases_by_index - self._packed_starts[
            :len(self.regions)]
        #: The shift every region unpacks by when the regions lie back to
        #: back in allocation order (as bump allocation leaves them).
        self.shift: Optional[int] = None
        if self.regions and bool((self._unpack_shift
                                  == self._unpack_shift[0]).all()):
            self.shift = int(self._unpack_shift[0])
            self._span = (self.shift, self.shift + sum(sizes))

    def fingerprint(self) -> Tuple:
        """Shape check for cache hits: sizes/names in allocation order."""
        return tuple((r.name, r.size) for r in self.regions)

    def pack(self, lines: np.ndarray) -> Optional[np.ndarray]:
        """Lines as offsets into the concatenation of the regions (in
        allocation order), or None when one lies outside them all.

        The form holds across layouts. It is one array in the narrowest
        integer dtype holding the offsets (uint16 at scale 64, int64 only
        when the regions are too large). A signatured flow touches only
        its own regions; None marks a stream that is never cached.
        """
        if not len(lines):
            return _narrow(lines)
        if not self.regions:
            return None
        if self.shift is not None:
            lo, hi = self._span
            first, last = int(lines.min()), int(lines.max())
            if first < lo or last >= hi:
                return None
            return _fit(lines - lo, first - lo, last - lo)
        pos = np.searchsorted(self._starts, lines, side="right") - 1
        pos = np.clip(pos, 0, len(self._starts) - 1)
        if not bool(((lines >= self._starts[pos])
                     & (lines < self._ends[pos])).all()):
            return None
        return _narrow(lines + self._pack_shift[pos])

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack` against *this* machine's bases (int64)."""
        if self.shift is not None:
            return packed.astype(np.int64) + self.shift
        ridx = np.searchsorted(self._packed_starts, packed, side="right") - 1
        return self._unpack_shift[ridx] + packed

    def residues(self, modulus: int) -> Tuple[int, ...]:
        """Region-base lines relative to the first region, mod ``modulus``.

        Two layouts with equal residues mod a cache's set count map the
        cache's sets onto each other by one rotation, the same for every
        region-relative line. Sets are independent and alike, so
        private-cache outcomes computed for one layout hold for both.
        """
        bases = self._bases_by_index
        return tuple(((bases - bases[:1]) % modulus).tolist())


class StreamMeta:
    """Construction metadata cached with a stream.

    Enough to *skip flow construction entirely* on later machines: the
    region layout to re-allocate (``(name, size, is_data_domain,
    abs_domain)`` in allocation-capture order) and the flow attributes
    the engine and experiment code read. See :class:`StubFlow`.
    """

    __slots__ = ("layout", "flow_name", "measure_weight", "shared_k",
                 "trigger_packets", "has_dropped", "has_forwarded")

    def __init__(self, layout: Tuple, flow_name: str, measure_weight: float,
                 shared_k: Optional[int], trigger_packets: Optional[int],
                 has_dropped: bool, has_forwarded: bool = False):
        self.layout = layout
        self.flow_name = flow_name
        self.measure_weight = measure_weight
        self.shared_k = shared_k
        self.trigger_packets = trigger_packets
        self.has_dropped = has_dropped
        self.has_forwarded = has_forwarded


def build_meta(flow, regions, data_domain: int) -> StreamMeta:
    """Record a flow's construction metadata for later skeleton builds."""
    layout = tuple(
        (r.name, r.size, r.domain == data_domain, r.domain) for r in regions
    )
    shared_k = None
    if getattr(flow, "turns", None) is not None and getattr(flow, "flows", None):
        shared_k = len(flow.flows)
    trigger = getattr(flow, "trigger_packets", None)
    return StreamMeta(
        layout,
        getattr(flow, "name", flow.__class__.__name__),
        float(getattr(flow, "measure_weight", 1.0)),
        shared_k,
        trigger if isinstance(trigger, int) else None,
        hasattr(flow, "dropped"),
        hasattr(flow, "forwarded"),
    )


class _ReplayDomain:
    """One domain's view of a :class:`_ReplaySpace`."""

    def __init__(self, space: "_ReplaySpace", domain: int):
        self._space = space
        self._domain = domain

    @property
    def regions(self):
        return self._space.queue(self._domain)

    def alloc(self, size: int, name: str):
        return self._space.take(self._domain, size, name)


class _ReplaySpace:
    """An AddressSpace look-alike serving a flow's recorded regions.

    Used when a :class:`StubFlow` must materialize its real flow: the
    regions were already bump-allocated (by the skeleton build) at the
    exact addresses construction would have produced, so the factory's
    allocation calls are satisfied from the recorded list — asserting
    that name, rounded size, and domain match what was recorded.
    """

    def __init__(self, regions):
        self._queues: Dict[int, List] = {}
        for region in regions:
            self._queues.setdefault(region.domain, []).append(region)
        self._cursors: Dict[int, int] = {d: 0 for d in self._queues}

    def queue(self, d: int) -> List:
        return self._queues.get(d, [])

    def domain(self, d: int) -> _ReplayDomain:
        return _ReplayDomain(self, d)

    def alloc(self, size: int, name: str, domain: int = 0):
        return self.take(domain, size, name)

    def take(self, d: int, size: int, name: str):
        rounded = (size + CACHE_LINE - 1) & ~(CACHE_LINE - 1)
        queue = self._queues.get(d, [])
        cursor = self._cursors.get(d, 0)
        if cursor >= len(queue):
            raise RuntimeError(
                f"skeleton materialization: factory allocated more regions "
                f"in domain {d} than were recorded (wanted {name!r})"
            )
        region = queue[cursor]
        if region.size != rounded or region.name != name:
            raise RuntimeError(
                "skeleton materialization: allocation mismatch "
                f"(recorded {region.name!r}/{region.size}B, factory asked "
                f"{name!r}/{rounded}B) — the factory is not deterministic "
                "for its stream signature"
            )
        self._cursors[d] = cursor + 1
        return region


class StubFlow:
    """Construction-free stand-in for a flow with a fully cached stream.

    In dense sweeps, flow *construction* (radix tries, rule tables,
    automata) costs as much as the replayed run once streams come from
    the cache. When :meth:`Machine.add_flow` runs under the ambient
    batch engine and the stream cache holds both the factory's stream
    and its :class:`StreamMeta`, it bump-allocates the recorded region
    layout (byte-identical to what construction would have produced)
    and installs this stub instead of calling the factory.

    The real flow is built lazily via :meth:`materialize` — same
    factory, same derived RNG, allocations served back from the
    recorded regions — when the cached stream runs dry mid-run, when
    the machine is explicitly run with the scalar engine, or when any
    code touches an attribute the stub does not carry. An attribute
    touch also sets ``touched``: outside code may have mutated the flow,
    so the batch engine then runs it live instead of trusting the cache.
    """

    timing_pure = True
    #: Machine.add_flow probes this generically; the stub has no run
    #: state to bind (materialize() forwards the hook to the real flow).
    attach_run = None
    #: The engines' end-of-run flush probes this generically too; a
    #: cached skeleton has no control loop to flush, and the class
    #: attribute keeps the probe from materializing it.
    finish_run = None

    _OWN = frozenset({
        "_factory", "_meta", "_regions", "_seed", "_core", "_domain",
        "_spec", "_attach", "_flow", "_patched", "_absent", "touched",
        "name", "measure_weight", "dropped", "forwarded",
        "turns", "_next", "packets", "triggered", "trigger_packets",
    })

    def __init__(self, factory, meta: StreamMeta, regions,
                 seed: int, core: int, domain: int, spec):
        self._factory = factory
        self._meta = meta
        self._regions = list(regions)
        self._seed = seed
        self._core = core
        self._domain = domain
        self._spec = spec
        self._attach = None
        self._flow = None
        self._patched = False
        self.touched = False
        self.name = meta.flow_name
        self.measure_weight = meta.measure_weight
        # Mirror the real flow's attribute surface: state attrs it has
        # get live shadows; ones it lacks raise AttributeError without
        # materializing (so hasattr probes stay cheap and faithful).
        absent = set()
        if meta.has_dropped:
            self.dropped = 0
        else:
            absent.add("dropped")
        if meta.has_forwarded:
            self.forwarded = 0
        else:
            absent.add("forwarded")
        if meta.shared_k:
            self.turns = [0] * meta.shared_k
            self._next = 0
        else:
            absent.update(("turns", "_next"))
        if meta.trigger_packets is not None:
            self.trigger_packets = meta.trigger_packets
            self.packets = 0
            self.triggered = False
        else:
            absent.update(("packets", "triggered", "trigger_packets"))
        self._absent = frozenset(absent)

    def materialize(self):
        """Build (once) and return the real flow this stub stands for."""
        flow = self._flow
        if flow is None:
            import random

            from ..hw.machine import FlowEnv

            rng = random.Random(
                (self._seed * 1_000_003 + self._core * 7919) & 0xFFFFFFFF)
            env = FlowEnv(space=_ReplaySpace(self._regions),
                          domain=self._domain, spec=self._spec, rng=rng)
            flow = self._factory(env)
            object.__setattr__(self, "_flow", flow)
            if self._attach is not None:
                self._attach(flow)
            if not self._patched:
                # Before run-state patching the live flow owns the
                # engine-visible state; drop the stub's shadows so reads
                # delegate. After patching the shadows *are* the state.
                for attr in ("dropped", "forwarded", "turns", "_next",
                             "packets", "triggered"):
                    try:
                        object.__delattr__(self, attr)
                    except AttributeError:
                        pass
        return flow

    def __getattr__(self, name):
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        if name in self.__dict__.get("_absent", ()):
            raise AttributeError(name)
        flow = self.materialize()
        object.__setattr__(self, "touched", True)
        return getattr(flow, name)

    def __setattr__(self, name, value):
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            flow = self.materialize()
            object.__setattr__(self, "touched", True)
            setattr(flow, name, value)

    def __repr__(self):
        state = "materialized" if self._flow is not None else "skeleton"
        return f"<StubFlow {self.name!r} ({state})>"


class CachedStream:
    """All blocks generated so far for one (signature, seed, core, spec)."""

    def __init__(self, key: Tuple, fingerprint: Tuple):
        self.key = key
        self.fingerprint = fingerprint
        self.blocks: List[_RelativeBlock] = []
        #: ``blocks[i].start``, for bisection.
        self.starts: List[int] = []
        self.n_packets = 0
        self.n_refs = 0
        #: Bytes of stored arrays: blocks plus private codes.
        self.nbytes = 0
        #: Construction metadata enabling skeleton (construction-free)
        #: flow builds; set on the first successful block store.
        self.meta: Optional[StreamMeta] = None
        #: True once a generation pass ended without storing (e.g. a
        #: region-external line was seen); further stores are refused so
        #: the cache never serves a stream with holes.
        self.poisoned = False
        #: Per-block :class:`PrivateCodes`, keyed by the layout's region
        #: residues (see :meth:`RegionTable.residues`).
        self.private: Dict[Tuple, List["PrivateCodes"]] = {}

    def block_at(self, packet_index: int) -> Optional[_RelativeBlock]:
        """The cached block starting exactly at ``packet_index``."""
        # Blocks are appended in start order, but suppliers with
        # different ``batch`` values extend one stream, so block sizes
        # differ and the start must be searched for, not computed.
        i = bisect_left(self.starts, packet_index)
        if i < len(self.starts) and self.starts[i] == packet_index:
            return self.blocks[i]
        return None


class StreamCache:
    """Process-wide LRU cache of region-relative packet streams.

    ``total_refs`` (what capacity counts) and ``total_bytes`` are running
    totals over the resident streams.
    """

    def __init__(self, max_refs: int = DEFAULT_CACHE_REFS):
        self.max_refs = max_refs
        self._streams: Dict[Tuple, CachedStream] = {}
        self.total_refs = 0
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._streams)

    def clear(self) -> None:
        self._streams.clear()
        self.total_refs = 0
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0

    def _drop(self, key: Tuple) -> None:
        stream = self._streams.pop(key)
        self.total_refs -= stream.n_refs
        self.total_bytes -= stream.nbytes

    def grow(self, stream: CachedStream, n_refs: int, nbytes: int) -> None:
        """Account ``n_refs`` references and ``nbytes`` bytes newly stored
        in ``stream`` (in the totals only while it is resident)."""
        stream.n_refs += n_refs
        stream.nbytes += nbytes
        if self._streams.get(stream.key) is stream:
            self.total_refs += n_refs
            self.total_bytes += nbytes

    def append(self, stream: CachedStream, rel: _RelativeBlock) -> None:
        stream.blocks.append(rel)
        stream.starts.append(rel.start)
        stream.n_packets += rel.n_packets
        self.grow(stream, rel.n_refs, rel.nbytes)

    def lookup(self, key: Tuple, fingerprint: Tuple) -> Optional[CachedStream]:
        stream = self._streams.get(key)
        if stream is None:
            self.misses += 1
            return None
        if stream.fingerprint != fingerprint:
            # Same signature but different allocation shape: treat as a
            # miss and drop the stale entry (defensive; signatures are
            # supposed to pin the shape).
            self._drop(key)
            self.misses += 1
            return None
        # LRU touch: move to the end of the (insertion-ordered) dict.
        del self._streams[key]
        self._streams[key] = stream
        self.hits += 1
        return stream

    def stream_for(self, key: Tuple, fingerprint: Tuple) -> CachedStream:
        """The stream to append generated blocks to (created on demand)."""
        stream = self._streams.get(key)
        if stream is None or stream.fingerprint != fingerprint:
            if stream is not None:
                self._drop(key)
            stream = CachedStream(key, fingerprint)
            self._streams[key] = stream
        return stream

    def skeleton_meta(self, key: Tuple) -> Optional[StreamMeta]:
        """Construction metadata for ``key`` if a usable stream is cached.

        Non-None means :meth:`Machine.add_flow` may skip construction and
        install a :class:`StubFlow` over the recorded region layout.
        """
        stream = self._streams.get(key)
        if stream is None or stream.poisoned or stream.n_packets == 0:
            return None
        return stream.meta

    def evict_to_capacity(self) -> None:
        while self.total_refs > self.max_refs and len(self._streams) > 1:
            self._drop(next(iter(self._streams)))


#: The process-wide cache instance (cleared via repro.fastpath).
STREAM_CACHE = StreamCache()


def key_for_signature(sig, seed: int, core: int, spec) -> Tuple:
    """The cache key pinning the stream of a flow with signature ``sig``.

    The per-flow RNG is derived from (machine seed, core) and the flow's
    construction consumes it deterministically, so (signature, seed,
    core, spec) pins the entire generated stream. The data domain is
    *not* part of the key: it only shifts absolute addresses, which the
    region-relative encoding removes. ``spec`` is a frozen, hashable
    :class:`~repro.hw.topology.PlatformSpec` and keys by value.
    """
    return (sig, seed, core, spec)


class StreamSupplier:
    """Feeds PacketBlocks for one flow-run: cached replay or generation.

    The supplier serves blocks strictly in order. On a cache hit it
    rebases stored blocks; when the cache runs out mid-run it *catches
    up* the (still fresh, never-run) flow instance by generating and
    discarding the already-replayed prefix, then continues live —
    exactly what the scalar engine would have paid for the whole run.
    Every served block carries its private-cache level codes, reused
    from the cache when a layout of the same residue class computed
    them, else prefiltered here from where the previous block ended.
    """

    def __init__(self, fr, seed: int, spec, l1_nsets: int, l2_nsets: int,
                 batch: int = BATCH_PACKETS, cache: StreamCache = None,
                 cacheable: bool = True):
        self.fr = fr
        #: The flow generated, cached and pinned: the one under any
        #: timing-only wrappers (see :func:`stream_pure`).
        self.flow = flow_layers(fr.flow)[-1]
        self.batch = batch
        self.cache = cache if cache is not None else STREAM_CACHE
        # The prefilter's private L1/L2 sets: where the last served block
        # ended while _private_live, stale after cached codes were served.
        self._ways = (spec.l1_ways, spec.l2_ways)
        self._private = ([[] for _ in range(l1_nsets)],
                         [[] for _ in range(l2_nsets)])
        self._private_live = True
        self._served = 0
        self._last: Optional[Tuple[PacketBlock, PrivateCodes]] = None
        self._next_packet = 0
        self._generated = 0        # packets actually produced by the flow
        self._dropped_base = int(getattr(self.flow, "dropped", 0) or 0)
        self._forwarded_base = int(getattr(self.flow, "forwarded", 0) or 0)
        self._regions = RegionTable(getattr(fr, "regions", []) or [])
        sig = fr.signature if cacheable else None
        self.key = (key_for_signature(sig, seed, fr.core, spec)
                    if sig is not None else None)
        self._cached: Optional[CachedStream] = None
        self.from_cache = False
        if self.key is not None and self._regions.regions:
            stream = self.cache.lookup(self.key, self._regions.fingerprint())
            if stream is not None and stream.n_packets > 0:
                self._cached = stream
                self.from_cache = True
        self._residues = self._regions.residues(math.lcm(l1_nsets, l2_nsets))
        # The stream holding ``_records`` (its bytes count in the cache).
        self._owner: Optional[CachedStream] = self._cached
        self._records: List[PrivateCodes] = (
            self._cached.private.setdefault(self._residues, [])
            if self._cached is not None else [])
        # AccessContext for generation, private to the supplier (the
        # engine never reads fr.ctx for pregenerated flows).
        from ..mem.access import AccessContext

        self._ctx = AccessContext()

    # -- generation ------------------------------------------------------

    def _materialize(self):
        """Ensure self.flow is a real (non-stub) flow before generating."""
        if isinstance(self.flow, StubFlow):
            materialize_stub(self.fr)
            self.flow = flow_layers(self.fr.flow)[-1]
        return self.flow

    def _generate_block(self, start: int) -> PacketBlock:
        """Run the flow ``batch`` times, recording a flattened block."""
        ctx = self._ctx
        flow = self._materialize()
        gaps: List[int] = []
        lines: List[int] = []
        tags: List[int] = []
        bounds = [0]
        trailing: List[int] = []
        instr: List[int] = []
        idle: List[bool] = []
        dma: List[Optional[Tuple[int, ...]]] = []
        dropped: List[int] = []
        for _ in range(self.batch):
            ctx.reset()
            lines_dma = flow.run_packet(ctx)
            ctx.finish_packet()
            prog = ctx.program
            if not prog and ctx.trailing_gap <= 0:
                raise RuntimeError(
                    f"flow {getattr(flow, 'name', flow)!r} produced an "
                    "empty, zero-time packet"
                )
            gaps.extend(prog[0::3])
            lines.extend(prog[1::3])
            tags.extend(prog[2::3])
            bounds.append(len(lines))
            trailing.append(ctx.trailing_gap)
            instr.append(ctx.instructions)
            idle.append(ctx.is_idle)
            dma.append(tuple(lines_dma) if lines_dma else None)
            dropped.append(int(getattr(flow, "dropped", 0) or 0))
            self._generated += 1
        return PacketBlock(start, self.batch, gaps, lines, tags, bounds,
                           trailing, instr, idle, dma, dropped)

    def _store(self, block: PacketBlock) -> None:
        if self.key is None or not self._regions.regions:
            return
        stream = self.cache.stream_for(self.key, self._regions.fingerprint())
        if stream.poisoned:
            return
        if stream.n_packets != block.start:
            # Out-of-order store (a previous run cached a longer or
            # shorter prefix): only extend contiguously.
            if stream.n_packets > block.start:
                return
            stream.poisoned = True
            return
        rel = _RelativeBlock.compact(block, self._regions)
        if rel is None:
            # E.g. the flow touched a line outside its own regions: not
            # rebasable, so never serve this stream to other machines.
            stream.poisoned = True
            return
        self.cache.append(stream, rel)
        # The first stored block hands this layout's codes to the stream.
        records = stream.private.setdefault(self._residues, self._records)
        if records is self._records and self._owner is not stream:
            self._owner = stream
            self.cache.grow(stream, 0, sum(r.nbytes for r in records))
        if stream.meta is None:
            stream.meta = build_meta(self.flow, self._regions.regions,
                                     self.fr.data_domain)
        self.cache.evict_to_capacity()

    def _catch_up(self, upto: int) -> None:
        """Fast-forward the fresh flow past ``upto`` replayed packets."""
        ctx = self._ctx
        flow = self._materialize()
        while self._generated < upto:
            ctx.reset()
            flow.run_packet(ctx)
            ctx.finish_packet()
            self._generated += 1

    # -- the engine-facing API -------------------------------------------

    def next_block(self) -> PacketBlock:
        """The next block of packets (cached replay or live generation)."""
        start = self._next_packet
        block = None
        if self._cached is not None:
            rel = self._cached.block_at(start)
            if rel is not None:
                block = rel.rebase(self._regions)
            else:
                # Cache exhausted: catch the fresh flow instance up to the
                # replayed prefix, then continue generating (and extending
                # the cache) from there.
                self._catch_up(start)
                self._cached = None
        if block is None:
            block = self._generate_block(start)
            self._store(block)
        self._attach_codes(block)
        self._next_packet = start + block.n_packets
        return block

    def _attach_codes(self, block: PacketBlock) -> None:
        """Give ``block`` its level codes: cached, or prefiltered now."""
        records = self._records
        b = self._served
        self._served += 1
        l1, l2 = self._private
        w1, w2 = self._ways
        if b < len(records):
            rec = records[b]
            self._private_live = False
        else:
            if not self._private_live:
                # Codes of the previous block came from the cache: run
                # its checkpoint forward to where it ended.
                prev, prev_rec = self._last
                restore_private(prev_rec, prev, self._regions, l1, w1, l2, w2,
                                prev.n_packets - 1, prev.n_refs)
                self._private_live = True
            rec = prefilter(l1, w1, l2, w2, block, self._regions)
            records.append(rec)
            if self._owner is not None:
                self.cache.grow(self._owner, 0, rec.nbytes)
        block.codes = rec.codes
        self._last = (block, rec)

    def install_private(self, l1, l2, k: int, j: int) -> None:
        """Install the private state at (packet ``k``, ref ``j``) of the
        last served block into a core's L1/L2 ``sets``."""
        block, rec = self._last
        w1, w2 = self._ways
        restore_private(rec, block, self._regions, l1, w1, l2, w2, k, j)

    def patch_flow_state(self, consumed_packets: int, dropped_cum: int) -> None:
        """Pin engine-visible flow state to the *consumed* packet count.

        Under timing-only wrappers that is the inner flow's state and the
        count of stream packets (a quarantine's idle steps are not).

        Pregeneration runs the functional layer in whole blocks of
        ``batch`` packets, so at the end of a run the flow may have
        generated ahead of what the engine consumed (and under cached
        replay it never generated at all). ``dropped`` is part of the
        documented flow protocol (experiment code reads
        ``Pipeline.dropped`` after a run), so it is reset to the value
        the scalar engine would have left: the cumulative count at the
        last consumed packet.
        Round-robin bookkeeping of a shared-core flow and the trigger
        state of a two-faced flow are recomputed the same way; deeper
        app-internal diagnostic state (element hit counters, RNG
        position) is documented as unspecified under the batch engine.
        """
        flow = self.flow
        if isinstance(flow, StubFlow):
            # Never-materialized skeleton: the state goes onto the stub
            # itself (probing a stub's attributes would materialize the
            # real flow, which is exactly what skipping construction
            # avoids), and its metadata says which fields exist.
            flow._patched = True
            meta = flow._meta
        else:
            meta = build_meta(flow, (), self.fr.data_domain)
        if meta.has_dropped:
            flow.dropped = self._dropped_base + dropped_cum
        if meta.has_forwarded:
            # A pipeline forwards every non-dropped packet (it never
            # produces idle packets), so the forwarded count is fully
            # determined by the consumed count and the drop count.
            flow.forwarded = (self._forwarded_base + consumed_packets
                              - dropped_cum)
        if meta.shared_k:
            k = meta.shared_k
            flow.turns = [(consumed_packets - m + k - 1) // k
                          for m in range(k)]
            flow._next = consumed_packets % k
        if meta.trigger_packets is not None:
            flow.packets = consumed_packets
            flow.triggered = consumed_packets > meta.trigger_packets
