"""Radix trie: LPM correctness against a brute-force reference model."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import radixtrie
from repro.apps.radixtrie import (
    BUILD_MEMO_SIZE,
    DEFAULT_STRIDES,
    RadixTrie,
    RouteTableBuilder,
    SLOT_BYTES,
)
from repro.net.addresses import prefix_mask


def brute_force_lpm(routes, addr):
    """Reference LPM: longest matching prefix wins; later inserts overwrite."""
    best = None
    best_len = -1
    for prefix, plen, hop in routes:
        if addr & prefix_mask(plen) == prefix and plen >= best_len:
            # Equal length: the most recently inserted wins.
            if plen > best_len:
                best, best_len = hop, plen
            else:
                best = hop
    return best


def build(routes, strides=DEFAULT_STRIDES):
    trie = RadixTrie(strides)
    for prefix, plen, hop in routes:
        trie.insert(prefix, plen, hop)
    return trie


def test_strides_must_cover_32_bits():
    with pytest.raises(ValueError):
        RadixTrie(strides=(8, 8))
    with pytest.raises(ValueError):
        RadixTrie(strides=(8, -4, 28))


def test_empty_trie_returns_none():
    trie = RadixTrie()
    hop, visited = trie.lookup(0x01020304)
    assert hop is None
    assert visited  # root is always probed


def test_default_route():
    trie = RadixTrie()
    trie.insert(0, 0, 42)
    assert trie.lookup_route(0xDEADBEEF) == 42


def test_exact_and_longest_match():
    routes = [
        (0x0A000000, 8, 1),     # 10/8
        (0x0A010000, 16, 2),    # 10.1/16
        (0x0A010100, 24, 3),    # 10.1.1/24
    ]
    trie = build(routes)
    assert trie.lookup_route(0x0A020202) == 1
    assert trie.lookup_route(0x0A01FF01) == 2
    assert trie.lookup_route(0x0A010105) == 3
    assert trie.lookup_route(0x0B000000) is None


def test_non_stride_aligned_prefix_expansion():
    # /18 does not align with any stride boundary below the 8-bit root.
    prefix = 0xC0A84000  # 192.168.64/18
    trie = build([(prefix, 18, 9)])
    assert trie.lookup_route(0xC0A84001) == 9
    assert trie.lookup_route(0xC0A87FFF) == 9
    assert trie.lookup_route(0xC0A88000) is None


def test_host_route():
    trie = build([(0x0A0B0C0D, 32, 7)])
    assert trie.lookup_route(0x0A0B0C0D) == 7
    assert trie.lookup_route(0x0A0B0C0C) is None


def test_insert_validates():
    trie = RadixTrie()
    with pytest.raises(ValueError):
        trie.insert(0, 33, 1)
    with pytest.raises(ValueError):
        trie.insert(1 << 32, 8, 1)
    with pytest.raises(ValueError):
        trie.insert(0x0A000001, 8, 1)  # bits beyond /8
    for plen in (0, 8, 24):  # -1 is the empty-slot sentinel
        with pytest.raises(ValueError):
            trie.insert(0x0A000000 & prefix_mask(plen), plen, -1)
    assert trie.n_routes == 0


def test_visited_offsets_are_slot_aligned():
    trie = build([(0x0A000000, 8, 1), (0x0A010000, 16, 2)])
    _, visited = trie.lookup(0x0A010203)
    assert all(off % SLOT_BYTES == 0 for off in visited)
    assert all(0 <= off < trie.total_bytes for off in visited)
    assert len(visited) >= 2


def test_total_bytes_grows_with_nodes():
    trie = RadixTrie()
    before = trie.total_bytes
    trie.insert(0x0A010100, 24, 1)
    assert trie.total_bytes > before
    assert trie.n_nodes > 1


@st.composite
def route_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    routes = []
    for _ in range(n):
        plen = draw(st.integers(min_value=1, max_value=32))
        prefix = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
        prefix &= prefix_mask(plen)
        hop = draw(st.integers(min_value=0, max_value=100))
        routes.append((prefix, plen, hop))
    return routes


@given(routes=route_sets(), addrs=st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_property_matches_brute_force(routes, addrs):
    trie = build(routes)
    for addr in addrs:
        assert trie.lookup_route(addr) == brute_force_lpm(routes, addr)


@given(routes=route_sets())
@settings(max_examples=40, deadline=None)
def test_property_lookup_hits_inserted_prefixes(routes):
    trie = build(routes)
    for prefix, plen, _ in routes:
        assert trie.lookup_route(prefix) == brute_force_lpm(routes, prefix)


def test_builder_respects_entry_count():
    rng = random.Random(3)
    trie = RouteTableBuilder(rng).build(500)
    assert trie.n_routes == 501  # 500 + default route
    assert trie.default_route is not None


def test_builder_addr_bits_bounds_prefixes():
    rng = random.Random(3)
    builder = RouteTableBuilder(rng, addr_bits=24)
    for _ in range(200):
        prefix, plen = builder.random_prefix()
        assert prefix < (1 << 24)


def test_builder_rejects_bad_universe():
    with pytest.raises(ValueError):
        RouteTableBuilder(random.Random(0), addr_bits=4)


def test_builder_lookup_always_resolves_via_default():
    rng = random.Random(5)
    trie = RouteTableBuilder(rng).build(100)
    for _ in range(100):
        assert trie.lookup_route(rng.getrandbits(32)) is not None


def _lookup_digest(trie, seed, addr_bits, n_addrs=512):
    """Digest of ``lookup(a)`` (hop and probed offsets) for seeded addresses."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(n_addrs):
        hop, visited = trie.lookup(rng.getrandbits(addr_bits))
        h.update(repr((hop, visited)).encode())
    return h.hexdigest()[:16]


# (seed, addr_bits, n_entries) -> (total_bytes, n_nodes, lookup digest).
# Includes the scale-64 (2000 routes, 26-bit universe) and scale-16
# (8000 routes, 28-bit universe) IP tables. The simulated layout is part
# of every cached stream and golden, so these values must never drift.
PINNED_TABLES = {
    (7, 26, 2000): (83824, 5176, "3137632ddc9b3ed0"),
    (11, 28, 8000): (327904, 20431, "7f76116ba6719f6e"),
    (3, 32, 500): (48976, 2998, "08361b7bc8215743"),
    (0, 24, 16): (2256, 78, "caa9297f7f523f2e"),
}


@pytest.mark.parametrize("seed,addr_bits,n_entries", sorted(PINNED_TABLES))
def test_built_table_layout_is_pinned(seed, addr_bits, n_entries):
    trie = RouteTableBuilder(random.Random(seed),
                             addr_bits=addr_bits).build(n_entries)
    got = (trie.total_bytes, trie.n_nodes,
           _lookup_digest(trie, seed + 1000, addr_bits))
    assert got == PINNED_TABLES[(seed, addr_bits, n_entries)]


@pytest.fixture
def cold_memo():
    """An empty build memo, so the first build of each table is cold."""
    radixtrie._BUILD_MEMO.clear()
    yield radixtrie._BUILD_MEMO
    radixtrie._BUILD_MEMO.clear()


def test_build_memo_shares_trie_and_replays_rng_state(cold_memo):
    cold_rng = random.Random(21)
    cold = RouteTableBuilder(cold_rng, addr_bits=26).build(300)
    warm_rng = random.Random(21)
    warm = RouteTableBuilder(warm_rng, addr_bits=26).build(300)
    assert warm is cold
    assert warm_rng.getstate() == cold_rng.getstate()
    # Later draws (traffic, rules, keys) continue identically.
    assert warm_rng.getrandbits(64) == cold_rng.getrandbits(64)
    assert len(cold_memo) == 1


class SlashTwentyFours(RouteTableBuilder):
    LENGTH_MIX = ((24, 1),)


@pytest.mark.parametrize("builder,seed,addr_bits,n_entries,n_next_hops", [
    (RouteTableBuilder, 22, 26, 300, 16),   # different RNG state
    (RouteTableBuilder, 21, 27, 300, 16),   # different address universe
    (RouteTableBuilder, 21, 26, 301, 16),   # different entry count
    (RouteTableBuilder, 21, 26, 300, 8),    # different next-hop count
    (SlashTwentyFours, 21, 26, 300, 16),    # different builder class
])
def test_build_memo_misses_on_any_input_change(cold_memo, builder, seed,
                                                addr_bits, n_entries,
                                                n_next_hops):
    base = RouteTableBuilder(random.Random(21), addr_bits=26).build(300, 16)
    other = builder(random.Random(seed), addr_bits=addr_bits).build(
        n_entries, n_next_hops)
    assert other is not base
    assert len(cold_memo) == 2


def test_build_memo_is_bounded_lru(cold_memo):
    first = RouteTableBuilder(random.Random(0), addr_bits=24).build(16)
    for seed in range(1, BUILD_MEMO_SIZE + 8):
        RouteTableBuilder(random.Random(seed), addr_bits=24).build(16)
        assert len(cold_memo) <= BUILD_MEMO_SIZE
        # Touching the first table keeps it most recently used.
        assert RouteTableBuilder(random.Random(0),
                                 addr_bits=24).build(16) is first
    assert len(cold_memo) == BUILD_MEMO_SIZE
    # The least recently used table (seed 1) was evicted.
    evicted_state = random.Random(1).getstate()
    assert all(key[-1] != evicted_state for key in cold_memo)


def test_built_trie_is_read_only():
    assert not RadixTrie().read_only  # hand-built tries stay writable
    trie = RouteTableBuilder(random.Random(8), addr_bits=24).build(32)
    assert trie.read_only
    before = _lookup_digest(trie, 1, 24)
    with pytest.raises(RuntimeError):
        trie.insert(0x0A0000, 24, 1)
    with pytest.raises(RuntimeError):
        trie.insert(0, 0, 3)
    assert _lookup_digest(trie, 1, 24) == before

