"""The bulk recording paths against the per-reference calls they replace.

* :meth:`AccessContext.record` and :meth:`AccessContext.record_each`
  equal their ``cost``/``touch_line`` sequences, with a pending gap
  carried in and out, and with an empty line list.
* ``RadixIPLookup``'s fused walk equals ``RadixTrie.lookup`` replayed as
  one ``cost(COST_TRIE_NODE)`` plus ``touch`` per probed slot, over random
  tries (random strides too), addresses and region bases shifted by
  other allocations or moved to the second NUMA domain.
* ``RabinFingerprinter.aligned`` (limb-split NumPy product) equals
  ``fingerprint`` per chunk, for payload lengths 0-1100, all-``0xFF``
  payloads (the largest limb sums) and windows 1, 32 and 64; so does its
  per-chunk fallback.

As in ``tests/differential/test_prefilter.py``, `hypothesis` drives the
checks when the environment provides it, and a spread of seeds always
does.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.fingerprint import RabinFingerprinter
from repro.apps.ipforward import RadixIPLookup
from repro.apps.radixtrie import SLOT_BYTES, RadixTrie
from repro.constants import COST_TRIE_NODE
from repro.hw.machine import FlowEnv
from repro.hw.topology import PlatformSpec
from repro.mem.access import TAGS, AccessContext
from repro.mem.allocator import AddressSpace
from repro.net.packet import Packet

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SEEDS = [0, 1, 7, 42, 12345]


def _state(ctx: AccessContext) -> tuple:
    """Everything a context has recorded, pending gap sealed."""
    ctx.finish_packet()
    return list(ctx.program), ctx.instructions, ctx.trailing_gap


# -- the recording primitives ---------------------------------------------

def check_primitives(seed: int) -> None:
    rng = random.Random(seed)
    tag = rng.randrange(4)
    for _ in range(20):
        carried = (rng.randrange(500), rng.randrange(500))
        cost = (rng.randrange(500), rng.randrange(500))
        lines = [rng.randrange(1 << 30)
                 for _ in range(rng.choice((0, 1, 2, 13)))]
        first = rng.randrange(1 << 20)
        for as_seq in (list, tuple,
                       lambda ls: range(first, first + len(ls))):
            seq = as_seq(lines)
            after = (rng.randrange(100), rng.randrange(100))

            bulk, ref = AccessContext(), AccessContext()
            bulk.cost(carried)
            ref.cost(carried)
            bulk.record(cost, seq, tag)
            ref.cost(cost)
            for line in seq:
                ref.touch_line(line, tag)
            for ctx in (bulk, ref):
                ctx.cost(after)
            assert _state(bulk) == _state(ref)

            bulk, ref = AccessContext(), AccessContext()
            bulk.cost(carried)
            ref.cost(carried)
            bulk.record_each(cost, seq, tag)
            for line in seq:
                ref.cost(cost)
                ref.touch_line(line, tag)
            for ctx in (bulk, ref):
                ctx.cost(after)
                ctx.touch_line(7, tag)
            assert _state(bulk) == _state(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_primitives_equal_cost_touch_pairs(seed):
    check_primitives(seed)


def test_empty_runs():
    ctx = AccessContext()
    ctx.compute(5, 1)
    ctx.record_each((10, 3), [], 1)
    assert _state(ctx) == ([], 1, 5)
    ctx = AccessContext()
    ctx.compute(5, 1)
    ctx.record((10, 3), (), 1)
    assert _state(ctx) == ([], 4, 15)


# -- the fused radix-trie walk --------------------------------------------

def _random_strides(rng: random.Random) -> tuple:
    if rng.random() < 0.5:
        return RadixTrie().strides
    strides = []
    while sum(strides) < 32:
        strides.append(min(rng.choice((1, 2, 4, 8)), 32 - sum(strides)))
    return tuple(strides)


def check_fused_walk(seed: int) -> None:
    rng = random.Random(seed)
    trie = RadixTrie(_random_strides(rng))
    if rng.random() < 0.8:
        trie.insert(0, 0, rng.randrange(16))
    for _ in range(rng.randrange(1, 200)):
        plen = rng.randrange(1, 33)
        prefix = rng.getrandbits(32) & ~((1 << (32 - plen)) - 1)
        trie.insert(prefix, plen, rng.choice((rng.randrange(4),
                                              rng.randrange(1 << 31))))

    spec = PlatformSpec.westmere().scaled(64)
    domain = rng.randrange(spec.n_sockets)
    space = AddressSpace(spec.n_sockets)
    # Shift the trie's region base by whole lines.
    for _ in range(rng.randrange(3)):
        space.domain(domain).alloc(64 * rng.randrange(1, 5000), "pad")
    element = RadixIPLookup(trie=trie)
    element.initialize(FlowEnv(space=space, domain=domain, spec=spec,
                               rng=random.Random(seed)))
    tag = TAGS.register("radix_ip_lookup")

    for _ in range(50):
        addr = rng.getrandbits(32)
        carried = rng.randrange(300)
        fused, ref = AccessContext(), AccessContext()
        fused.compute(carried, 1)
        ref.compute(carried, 1)
        out = element.process(fused, Packet.udp(src=1, dst=addr))

        hop, visited = trie.lookup(addr)
        for offset in visited:
            ref.cost(COST_TRIE_NODE)
            ref.touch(element.region, offset, SLOT_BYTES, tag)
        assert _state(fused) == _state(ref)
        if hop is None:
            assert out is None
        else:
            assert out.annotations["next_hop"] == hop


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_walk_equals_lookup_replay(seed):
    check_fused_walk(seed)


# -- limb-split aligned fingerprints ----------------------------------------

def check_aligned(data: bytes, window: int) -> None:
    fp = RabinFingerprinter(window=window)
    expected = [(off, fp.fingerprint(data[off:off + window]))
                for off in range(0, len(data) - window + 1, window)]
    assert fp.aligned(data) == expected
    fp._limbs = None  # the per-chunk fallback for windows past the bound
    assert fp.aligned(data) == expected


@pytest.mark.parametrize("window", [1, 32, 64])
@pytest.mark.parametrize("seed", SEEDS)
def test_aligned_equals_per_chunk_fingerprints(window, seed):
    rng = random.Random(seed)
    for length in (0, window - 1, window, window + 1, 512, 1100,
                   rng.randrange(1101)):
        check_aligned(rng.randbytes(length), window)
        check_aligned(b"\xff" * length, window)


def test_limb_bound_holds_for_every_window_used():
    for window in (1, 32, 64):
        assert RabinFingerprinter(window=window)._limbs is not None


if HAVE_HYPOTHESIS:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_primitives_hypothesis(seed):
        check_primitives(seed)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_fused_walk_hypothesis(seed):
        check_fused_walk(seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.one_of(st.binary(max_size=1100),
                          st.integers(0, 1100).map(lambda n: b"\xff" * n)),
           window=st.sampled_from([1, 32, 64]))
    def test_aligned_hypothesis(data, window):
        check_aligned(data, window)
