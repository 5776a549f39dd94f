"""Private-cache prefiltering against a SetAssociativeCache oracle.

The batch engine resolves every reference's L1/L2 outcome once per
cached stream (:func:`repro.fastpath.streams.prefilter`) and installs
the private state at the consumed position when a run ends
(:func:`repro.fastpath.streams.restore_private`). Both are checked here
against two plain :class:`~repro.hw.cache.SetAssociativeCache` objects
walked reference by reference, with each packet's DMA lines invalidated
at its load, over:

* random line streams with DMA invalidations;
* level codes carried across block boundaries, including from cached
  blocks into freshly generated ones;
* layouts with different region-base residues sharing one cached
  stream (one whose residues differ by a common shift, which reuses the
  codes, and one that needs its own);
* a one-set L1 (scale 64) and a multi-set L1 (scale 16).

As in ``tests/test_cache_properties.py``, `hypothesis` drives the
checker when the environment provides it, and a spread of seeds always
does.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from repro.apps.registry import app_factory
from repro.hw.cache import SetAssociativeCache
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.mem.allocator import AddressSpace
from repro.fastpath.streams import StreamCache, StreamSupplier

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SPECS = {
    "scale64": PlatformSpec.westmere().scaled(64).single_socket(),
    "scale16": PlatformSpec.westmere().scaled(16).single_socket(),
}


def _n_sets(size: int, ways: int) -> int:
    return SetAssociativeCache(size, ways).n_sets


class RandomFlow:
    """A timing-pure flow touching random lines of its own regions.

    Lines are drawn as (region, offset), so the stream is the same in
    every layout up to the region bases. Some packets carry no
    references; some return DMA lines.
    """

    name = "random"
    timing_pure = True

    def __init__(self, regions, seed: int, dma_rate: float):
        self.regions = regions
        self.rng = random.Random(seed)
        self.dma_rate = dma_rate

    def _line(self) -> int:
        region = self.rng.choice(self.regions)
        return (region.base >> 6) + self.rng.randrange(region.n_lines)

    def run_packet(self, ctx):
        rng = self.rng
        for _ in range(rng.randrange(12)):
            ctx.compute(rng.randrange(3), 1)
            ctx.touch_line(self._line())
        ctx.compute(5, 1)
        if rng.random() < self.dma_rate:
            return [self._line() for _ in range(rng.randrange(1, 5))]
        return None


def _layout(sizes, pads):
    """The flow's regions, each preceded by a pad of ``pads[i]`` lines."""
    space = AddressSpace(1)
    regions = []
    for i, (size, pad) in enumerate(zip(sizes, pads)):
        if pad:
            space.alloc(pad * 64, f"pad{i}")
        regions.append(space.alloc(size * 64, f"r{i}"))
    return regions


def _serve(spec, regions, seed, dma_rate, batch, n_blocks, cache, rng,
           known=True):
    """Serve ``n_blocks`` blocks; install the private state at random
    positions of each. Returns (blocks, {(b, k, j): (l1, l2)}).

    ``known=False`` hides the flow's regions from the supplier, as for
    a flow touching lines outside its own allocations.
    """
    fr = SimpleNamespace(flow=RandomFlow(regions, seed, dma_rate), core=0,
                         regions=regions if known else [], data_domain=0,
                         signature=("random", seed, dma_rate))
    n1 = _n_sets(spec.l1_size, spec.l1_ways)
    n2 = _n_sets(spec.l2_size, spec.l2_ways)
    sup = StreamSupplier(fr, 1, spec, n1, n2, batch=batch, cache=cache)
    blocks, installed = [], {}
    for b in range(n_blocks):
        block = sup.next_block()
        blocks.append(block)
        for _ in range(3):
            k = rng.randrange(block.n_packets)
            j = rng.randint(block.bounds[k], block.bounds[k + 1])
            l1 = [[] for _ in range(n1)]
            l2 = [[] for _ in range(n2)]
            sup.install_private(l1, l2, k, j)
            installed[(b, k, j)] = (l1, l2)
    return blocks, installed


def _oracle(spec, blocks, positions):
    """Oracle level codes per block and L1/L2 sets at ``positions``."""
    l1 = SetAssociativeCache(spec.l1_size, spec.l1_ways)
    l2 = SetAssociativeCache(spec.l2_size, spec.l2_ways)
    codes, states = [], {}
    for b, block in enumerate(blocks):
        out = bytearray()
        for k in range(block.n_packets):
            for line in block.dma[k] or ():
                l1.invalidate(line)
                l2.invalidate(line)
            lo, hi = block.bounds[k], block.bounds[k + 1]
            for j in range(lo, hi + 1):
                if (b, k, j) in positions:
                    states[(b, k, j)] = ([list(s) for s in l1.sets],
                                         [list(s) for s in l2.sets])
                if j < hi:
                    line = block.lines[j]
                    out.append(0 if l1.access(line)
                               else 1 if l2.access(line) else 2)
        codes.append(bytes(out))
    return codes, states


def _check_layout(spec, blocks, installed, where: str) -> None:
    codes, states = _oracle(spec, blocks, installed)
    for b, block in enumerate(blocks):
        assert block.codes == codes[b], f"{where}: codes of block {b}"
    for pos, state in installed.items():
        assert state == states[pos], f"{where}: private state at {pos}"


def check_prefilter(spec_name: str, seed: int, batch: int, n_blocks: int,
                    dma_rate: float, shift: int, skew: int) -> None:
    spec = SPECS[spec_name]
    rng = random.Random(seed)
    capacity = (spec.l1_size + spec.l2_size) // 64
    sizes = [rng.randrange(1, capacity) for _ in range(3)]
    modulus = math.lcm(_n_sets(spec.l1_size, spec.l1_ways),
                       _n_sets(spec.l2_size, spec.l2_ways))
    cache = StreamCache()

    # Cold: generated blocks, codes carried block to block.
    layout = _layout(sizes, (0, 0, 0))
    blocks, installed = _serve(spec, layout, seed, dma_rate, batch,
                               n_blocks, cache, rng)
    _check_layout(spec, blocks, installed, "cold")
    (stream,) = cache._streams.values()
    assert len(stream.private) == 1

    # Warm, all regions shifted alike: other residues, same codes; one
    # block past the cache carries restored state into a fresh prefilter.
    shifted = _layout(sizes, (shift, 0, 0))
    blocks, installed = _serve(spec, shifted, seed, dma_rate, batch,
                               n_blocks + 1, cache, rng)
    _check_layout(spec, blocks, installed, "shifted")
    assert len(stream.private) == 1

    # Warm, regions skewed against each other: the layout gets codes of
    # its own, computed over the same cached stream.
    skewed = _layout(sizes, (0, skew, 0))
    blocks, installed = _serve(spec, skewed, seed, dma_rate, batch,
                               n_blocks, cache, rng)
    _check_layout(spec, blocks, installed, "skewed")
    assert len(stream.private) == (1 if skew % modulus == 0 else 2)


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_prefilter_random(spec_name, seed):
    rng = random.Random(seed)
    check_prefilter(spec_name, seed, batch=rng.choice((3, 16, 64)),
                    n_blocks=3, dma_rate=0.3, shift=rng.randrange(1, 40),
                    skew=rng.randrange(1, 7))


def _records(cache):
    (stream,) = cache._streams.values()
    (records,) = stream.private.values()
    return records


def test_checkpoint_spacing_follows_scale():
    """A scale-64 block checkpoints every few packets (and restores from
    the middle of the block); a full-scale block checkpoints once."""
    spec = SPECS["scale64"]
    cache = StreamCache()
    blocks, installed = _serve(spec, _layout((40, 9, 70), (0, 0, 0)), 3,
                               0.2, 128, 2, cache, random.Random(3))
    _check_layout(spec, blocks, installed, "dense")
    assert all(1 < rec.spacing < 16 for rec in _records(cache))
    full = PlatformSpec.westmere().single_socket()
    cache = StreamCache()
    blocks, installed = _serve(full, _layout((40, 9, 70), (0, 0, 0)), 3,
                               0.2, 128, 1, cache, random.Random(3))
    _check_layout(full, blocks, installed, "full")
    assert [rec.spacing for rec in _records(cache)] == [128]


def test_prefilter_outside_known_regions():
    """Lines outside the flow's regions: never cached, still exact."""
    spec = SPECS["scale64"]
    cache = StreamCache()
    blocks, installed = _serve(spec, _layout((40, 9, 70), (0, 0, 0)), 5,
                               0.3, 64, 3, cache, random.Random(5),
                               known=False)
    _check_layout(spec, blocks, installed, "unknown regions")
    assert len(cache) == 0


if HAVE_HYPOTHESIS:
    @settings(max_examples=40, deadline=None)
    @given(spec_name=st.sampled_from(sorted(SPECS)),
           seed=st.integers(0, 2**16),
           batch=st.integers(1, 40),
           n_blocks=st.integers(1, 3),
           dma_rate=st.sampled_from((0.0, 0.3, 1.0)),
           shift=st.integers(0, 80),
           skew=st.integers(0, 80))
    def test_prefilter_hypothesis(spec_name, seed, batch, n_blocks,
                                  dma_rate, shift, skew):
        check_prefilter(spec_name, seed, batch, n_blocks, dma_rate, shift,
                        skew)


class _Invalidator:
    """A live flow invalidating another core's private copy per packet."""

    name = "invalidator"

    def __init__(self, env, target: int):
        self.region = env.space.domain(env.domain).alloc(64, "inv")
        self.target = target
        self.machine = None

    def attach_run(self, machine, flow_run):
        self.machine = machine

    def run_packet(self, ctx):
        ctx.compute(50, 10)
        ctx.touch(self.region, 0, 8)
        self.machine.invalidate_private([self.region.base >> 6], self.target)
        return None


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_invalidate_private_refuses_prefiltered_cores(engine):
    machine = Machine(SPECS["scale64"], seed=5)
    machine.add_flow(app_factory("IP"), core=0)
    machine.add_flow(lambda env: _Invalidator(env, target=0), core=1,
                     measured=False)
    if engine == "scalar":
        machine.run(warmup_packets=50, measure_packets=100, engine=engine)
        return
    with pytest.raises(RuntimeError, match="prefiltered"):
        machine.run(warmup_packets=50, measure_packets=100, engine=engine)


def test_mixed_block_sizes_serve_every_start_in_order():
    """Suppliers with different ``batch`` values extend one stream. Each
    block is found by its start and a start inside a block finds none."""
    spec = SPECS["scale64"]
    cache = StreamCache()
    layout = _layout((40, 9, 70), (0, 0, 0))
    rng = random.Random(11)
    cached = 0
    for batch in (7, 3, 1, 32):
        # Serve the cached blocks, then generate two of this size.
        _serve(spec, layout, 11, 0.3, batch, cached + 2, cache, rng)
        cached += 2
    (stream,) = cache._streams.values()
    sizes = [rel.n_packets for rel in stream.blocks]
    assert sizes == [7, 7, 3, 3, 1, 1, 32, 32]
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    assert stream.starts == starts
    for rel in stream.blocks:
        assert stream.block_at(rel.start) is rel
        if rel.n_packets > 1:
            assert stream.block_at(rel.start + 1) is None
    assert stream.block_at(stream.n_packets) is None
    blocks, _ = _serve(spec, layout, 11, 0.3, 5, len(sizes), cache, rng)
    assert [block.start for block in blocks] == starts
    assert [block.n_packets for block in blocks] == sizes
