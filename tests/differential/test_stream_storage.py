"""Compact stream storage: cached blocks round-trip exactly.

The stream cache stores each block region-relative and packed
(:meth:`repro.fastpath.streams._RelativeBlock.compact`) and materializes
it against a machine's own regions in one NumPy pass
(:meth:`~repro.fastpath.streams._RelativeBlock.rebase`). A block stored
in one layout and rebased onto another must equal the block that layout
would have generated, field for field and as the same Python types. The
layouts cover both ways :class:`~repro.fastpath.streams.RegionTable`
packs and unpacks: one shared shift when the regions lie back to back,
and a search for each line's region when they moved relative to each
other. The cases cover field
values that need wider dtypes (gaps of 2**15 and 2**31 and more, tag ids
above 127, a packed line space larger than int32), idle packets, packets
with no references and packets without DMA. The cache's running
reference and byte totals must equal a fresh count after stores and
evictions, and its stored bytes per reference are bounded for real IP
and RE flows at scale 64.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

import repro.fastpath as fastpath
from repro.hw.machine import _DOMAIN_LINE_SHIFT
from repro.fastpath.streams import (
    DEFAULT_CACHE_REFS,
    STREAM_CACHE,
    PacketBlock,
    RegionTable,
    _narrow,
    _RelativeBlock,
)
from tests.differential.scenarios import app, scenario

FIELDS = ("start", "n_packets", "gaps", "lines", "tags", "bounds",
          "trailing", "instr", "idle", "dma", "dropped")


def _regions(sizes, bases):
    """Region look-alikes: ``sizes`` in lines at line ``bases``."""
    return [SimpleNamespace(name=f"r{i}", size=size * 64, base=base * 64,
                            end=(base + size) * 64)
            for i, (size, base) in enumerate(zip(sizes, bases))]


def _block(rng, regions, n_packets, *, gap_max=40, tag_max=12,
           start=256):
    """A random block whose lines lie in ``regions``.

    Packets alternate between the kinds the replay loop distinguishes:
    idle ones, ones with no references (only a trailing gap), and ones
    with and without DMA lines.
    """
    def line():
        r = rng.choice(regions)
        return (r.base >> 6) + rng.randrange((r.end - r.base) >> 6)

    gaps, lines, tags, bounds = [], [], [], [0]
    trailing, instr, idle, dma, dropped = [], [], [], [], []
    drops = rng.randrange(1000)
    for k in range(n_packets):
        kind = k % 4
        n_refs = 0 if kind == 1 else rng.randrange(1, 30)
        for _ in range(n_refs):
            gaps.append(rng.randrange(gap_max + 1))
            lines.append(line())
            tags.append(rng.randrange(tag_max + 1))
        bounds.append(len(lines))
        trailing.append(rng.randrange(1, 5000))
        instr.append(rng.randrange(100_000))
        idle.append(kind == 2)
        dma.append(tuple(line() for _ in range(rng.randrange(1, 6)))
                   if kind == 3 else None)
        drops += rng.randrange(2)
        dropped.append(drops)
    return PacketBlock(start, n_packets, gaps, lines, tags, bounds,
                       trailing, instr, idle, dma, dropped)


def _moved(block, src, dst):
    """``block`` as it would be generated with ``dst``'s region bases."""
    def move(line):
        for a, b in zip(src, dst):
            if a.base >> 6 <= line < a.end >> 6:
                return (b.base >> 6) + line - (a.base >> 6)
        raise AssertionError(f"line {line} outside the regions")

    return PacketBlock(
        block.start, block.n_packets, list(block.gaps),
        [move(line) for line in block.lines], list(block.tags),
        list(block.bounds), list(block.trailing), list(block.instr),
        list(block.idle),
        [None if d is None else tuple(move(line) for line in d)
         for d in block.dma],
        list(block.dropped))


def _types(value):
    """The value with every scalar replaced by its exact type."""
    if isinstance(value, (list, tuple)):
        return [_types(v) for v in value]
    return type(value)


def _assert_same(got: PacketBlock, want: PacketBlock) -> None:
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, name
        assert _types(g) == _types(w), f"{name}: element types differ"


def _round_trip(block, src, dst):
    rel = _RelativeBlock.compact(block, RegionTable(src))
    assert rel is not None
    got = rel.rebase(RegionTable(dst))
    _assert_same(got, _moved(block, src, dst))
    return rel


LAYOUTS = {
    # (sizes in lines, source bases, destination bases)
    "contiguous": ((300, 41, 2000), (0, 300, 341), (9000, 9300, 9341)),
    "shifted": ((300, 41, 2000), (0, 300, 341), (7, 400, 9000)),
    "reordered": ((300, 41, 2000), (0, 300, 341), (5000, 64, 2100)),
    "skewed source": ((300, 41, 2000), (5000, 64, 2100), (0, 300, 341)),
    "remote domain": ((300, 41, 2000), (0, 300, 341),
                      tuple((1 << _DOMAIN_LINE_SHIFT) + b
                            for b in (0, 300, 341))),
}


def _shared(sizes, bases):
    return RegionTable(_regions(sizes, bases)).shift is not None


def test_layouts_cover_both_unpack_branches():
    assert {name: (_shared(sizes, src), _shared(sizes, dst))
            for name, (sizes, src, dst) in LAYOUTS.items()} == {
        "contiguous": (True, True),
        "shifted": (True, False),
        "reordered": (True, False),
        "skewed source": (False, True),
        "remote domain": (True, True),
    }


@pytest.mark.parametrize("seed", range(4))
def test_shared_shift_agrees_with_the_region_search(seed):
    """The one-add path and the per-region search give equal results."""
    rng = random.Random(seed)
    sizes = [rng.randrange(1, 500) for _ in range(rng.randrange(1, 6))]
    base = rng.randrange(1 << 20)
    bases = [base + sum(sizes[:i]) for i in range(len(sizes))]
    fast = RegionTable(_regions(sizes, bases))
    slow = RegionTable(_regions(sizes, bases))
    assert fast.shift == base
    slow.shift = None
    total = sum(sizes)
    packed = np.asarray([rng.randrange(total) for _ in range(200)]
                        + [0, total - 1], dtype=np.uint16)
    lines = fast.unpack(packed)
    assert lines.dtype == np.int64
    assert lines.tolist() == slow.unpack(packed).tolist()
    for probe in (lines, lines[:1], np.asarray([base - 1], dtype=np.int64),
                  np.asarray([base + total], dtype=np.int64)):
        got, want = fast.pack(probe), slow.pack(probe)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", range(4))
def test_block_round_trips_onto_a_shifted_layout(layout, seed):
    sizes, src_bases, dst_bases = LAYOUTS[layout]
    src = _regions(sizes, src_bases)
    dst = _regions(sizes, dst_bases)
    block = _block(random.Random(seed), src, 37)
    rel = _round_trip(block, src, dst)
    # Rebasing onto the storing layout gives the original block back.
    _assert_same(rel.rebase(RegionTable(src)), block)
    # Small values take one or two bytes each.
    for name in ("lines", "dma", "gaps", "tags", "bounds", "dma_bounds"):
        assert getattr(rel, name).itemsize <= 2, name
    assert rel.idle.dtype == np.bool_
    assert rel.n_refs == block.n_refs


@pytest.mark.parametrize("gap_max,dtype", [
    (2**15, np.uint16),
    (2**16, np.uint32),
    (2**31, np.uint32),
    (2**40, np.int64),
])
def test_large_gaps_widen_the_dtype(gap_max, dtype):
    src = _regions((50, 50), (0, 50))
    dst = _regions((50, 50), (123, 999))
    rng = random.Random(gap_max)
    block = _block(rng, src, 9, gap_max=gap_max)
    block.gaps[0] = gap_max             # the range's top is reached
    rel = _round_trip(block, src, dst)
    assert rel.gaps.dtype == dtype


@pytest.mark.parametrize("tag_max,dtype", [
    (127, np.uint8), (255, np.uint8), (300, np.uint16)])
def test_tag_ids_above_127(tag_max, dtype):
    src = _regions((50,), (0,))
    dst = _regions((50,), (4096,))
    block = _block(random.Random(tag_max), src, 9, tag_max=tag_max)
    block.tags[-1] = tag_max
    rel = _round_trip(block, src, dst)
    assert rel.tags.dtype == dtype


def test_packed_span_beyond_int32():
    # Two regions of 2**33 lines each: packed offsets in the second one
    # need int64, and so do the absolute lines of both layouts.
    huge = 1 << 33
    src = _regions((huge, huge), (0, huge))
    dst = _regions((huge, huge), (3 * huge + 17, 64))
    rng = random.Random(9)
    block = _block(rng, src, 12)
    rel = _round_trip(block, src, dst)
    assert rel.lines.dtype == np.int64
    assert int(RegionTable(src).pack(np.asarray([2 * huge - 1]))[0]) \
        == 2 * huge - 1


def test_edge_packets_round_trip():
    """Only idle packets, only reference-free packets, no DMA at all."""
    src = _regions((64, 64), (0, 64))
    dst = _regions((64, 64), (640, 64_000))
    idle = PacketBlock(0, 3, [], [], [], [0, 0, 0, 0], [5, 5, 5], [0, 0, 0],
                       [True, True, True], [None] * 3, [0, 0, 0])
    empty = PacketBlock(3, 2, [], [], [], [0, 0, 0], [90, 7], [12, 3],
                        [False, False], [None, None], [4, 4])
    no_dma = PacketBlock(5, 2, [3, 0, 9], [1, 70, 127], [0, 1, 2],
                         [0, 2, 3], [1, 1], [4, 4], [False, False],
                         [None, None], [0, 1])
    for block in (idle, empty, no_dma):
        _round_trip(block, src, dst)


def test_uncacheable_blocks_are_refused():
    regions = _regions((64,), (0,))
    table = RegionTable(regions)
    outside = PacketBlock(0, 1, [1], [64], [0], [0, 1], [1], [1], [False],
                          [None], [0])
    assert _RelativeBlock.compact(outside, table) is None
    dma_outside = PacketBlock(0, 1, [1], [3], [0], [0, 1], [1], [1], [False],
                              [(999,)], [0])
    assert _RelativeBlock.compact(dma_outside, table) is None
    fractional = PacketBlock(0, 1, [1], [3], [0], [0, 1], [1.5], [1],
                             [False], [None], [0])
    assert _RelativeBlock.compact(fractional, table) is None
    assert _narrow([2**63]) is None
    assert _narrow([-1, 2**31]).dtype == np.int64
    assert _narrow([-1, 200]).dtype == np.int16


def _recount(cache):
    """(references, bytes) of the resident streams, summed afresh."""
    streams = list(cache._streams.values())
    blocks = [rel for stream in streams for rel in stream.blocks]
    records = [rec for stream in streams
               for recs in stream.private.values() for rec in recs]
    nbytes = sum(getattr(rel, name).nbytes for rel in blocks
                 for name in ("lines", "dma", "gaps", "tags", "bounds",
                              "trailing", "instr", "idle", "dropped",
                              "dma_bounds"))
    nbytes += sum(len(rec.codes) + rec.ck_lines.nbytes + rec.ck_bounds.nbytes
                  for rec in records)
    return sum(rel.n_refs for rel in blocks), nbytes


def test_running_totals_track_stores_and_evictions():
    cache = STREAM_CACHE
    fastpath.clear_stream_cache()
    try:
        for name in ("IP", "RE"):
            scenario(f"totals-{name}", app(name, 0), scale=64, warmup=50,
                     measure=300).run(engine="batch")
        assert len(cache) == 2
        assert (cache.total_refs, cache.total_bytes) == _recount(cache)
        cache.max_refs = 1              # evicts all but the newest stream
        cache.evict_to_capacity()
        assert len(cache) == 1
        assert (cache.total_refs, cache.total_bytes) == _recount(cache)
        stats = fastpath.stream_cache_stats()
        assert (stats["refs"], stats["bytes"]) == _recount(cache)
    finally:
        cache.max_refs = DEFAULT_CACHE_REFS
        fastpath.clear_stream_cache()


#: Stored bytes per cached reference (blocks, level codes, checkpoints):
#: about 8 at scale 64. Any field held as int64 per reference breaks it.
MAX_BYTES_PER_REF = 12


@pytest.mark.parametrize("name", ["IP", "RE"])
def test_cache_bytes_per_reference(name):
    fastpath.clear_stream_cache()
    try:
        scenario(f"bytes-{name}", app(name, 0), scale=64, warmup=100,
                 measure=600).run(engine="batch")
        stats = fastpath.stream_cache_stats()
        assert stats["streams"] == 1 and stats["refs"] > 4000
        assert stats["bytes"] <= MAX_BYTES_PER_REF * stats["refs"], stats
    finally:
        fastpath.clear_stream_cache()
