"""Multibit radix trie for longest-prefix-match IP lookup.

This is the lookup structure behind the paper's IP application ("the
RadixTrie lookup algorithm provided with the Click distribution and a
routing-table of 128000 entries"). Like Click's RadixIPLookup, the trie
uses a wide first stride and 4-bit strides below it, with controlled
prefix expansion at the terminal level; each slot packs its child pointer
and route into one 4-byte entry, so one slot probe is one 4-byte memory
reference.

The trie is purely functional here. ``lookup`` returns the matched route
together with the byte offsets of the probed slots; it is the reference
for the ``RadixIPLookup`` element, which walks the same ``steps`` itself
and records each probed slot's cache line as it goes. The top levels are
small and probed by every packet — the "hot spots" of the paper's
Figure 7 — while the deep levels are large, uniformly accessed, and
cache-sensitive.

Storage mirrors that packed layout: the slots of all nodes live in flat
``array`` buffers, node by node in allocation order, so slot ``i`` is at
simulated byte offset ``i * SLOT_BYTES`` and a child pointer is the
child's first-slot index. ``RouteTableBuilder.build`` is a pure function
of its inputs and the RNG state, so it is memoized process-wide: every
flow built from the same (seed, core) shares one read-only trie, and the
RNG is left exactly where a fresh build would leave it. Each flow still
allocates its own simulated region for the trie; only the host-side
tables are shared.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..net.addresses import prefix_mask
from ..rngmemo import rng_memo

#: Default strides: 8-bit root, then 2-bit levels (sums to 32). The fine
#: strides give lookups the deep pointer-chasing walk of Click's radix
#: trie: the handful of top levels are hot, the populous middle levels are
#: large, uniformly visited, and cache-sensitive.
DEFAULT_STRIDES = (8,) + (2,) * 12

#: Packed slot width in the simulated layout (child/route union, Click-style).
SLOT_BYTES = 4

#: Distinct routing tables :meth:`RouteTableBuilder.build` keeps (LRU).
BUILD_MEMO_SIZE = 64


class RadixTrie:
    """Variable-stride multibit trie mapping IPv4 prefixes to next hops."""

    def __init__(self, strides: Sequence[int] = DEFAULT_STRIDES):
        if sum(strides) != 32:
            raise ValueError(f"strides must cover 32 bits, got {sum(strides)}")
        if any(s <= 0 for s in strides):
            raise ValueError("every stride must be positive")
        self.strides = tuple(strides)
        #: ``(shift, mask)`` per level: level ``i``'s slot index within its
        #: node is ``(addr >> shift) & mask``.
        self.steps = tuple(
            (32 - sum(self.strides[:i + 1]), (1 << stride) - 1)
            for i, stride in enumerate(self.strides))
        # Flat per-slot buffers; the root's slots come first. -1 marks an
        # empty child or no route. ``route_plens`` remembers the
        # originating prefix length of each expanded slot so that a
        # shorter prefix never overwrites a longer one's expansion.
        self.children = array("i")
        self.routes = array("i")
        self.route_plens = array("b")
        self.n_nodes = 0
        self._new_node(0)
        self.default_route: Optional[int] = None
        self.n_routes = 0
        #: Set on tries shared through the build memo: ``insert`` refuses.
        self.read_only = False

    # -- geometry ---------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Simulated memory footprint of all nodes."""
        return len(self.children) * SLOT_BYTES

    def _new_node(self, level: int) -> int:
        """Append a node's empty slots; return its first-slot index."""
        first = len(self.children)
        slots = 1 << self.strides[level]
        empty = array("i", [-1]) * slots
        self.children.extend(empty)
        self.routes.extend(empty)
        self.route_plens.extend(array("b", [-1]) * slots)
        self.n_nodes += 1
        return first

    # -- insertion -------------------------------------------------------------

    def insert(self, prefix: int, plen: int, next_hop: int) -> None:
        """Install ``prefix/plen -> next_hop`` (later inserts overwrite)."""
        if self.read_only:
            raise RuntimeError(
                "routing table is shared by every flow built from the same "
                "RNG state; build a private RadixTrie to change routes")
        if not 0 <= plen <= 32:
            raise ValueError(f"bad prefix length {plen}")
        if not 0 <= prefix <= 0xFFFFFFFF:
            raise ValueError("prefix must be a 32-bit value")
        if prefix & ~prefix_mask(plen):
            raise ValueError("prefix has bits set beyond its length")
        if not 0 <= next_hop <= 0x7FFFFFFF:
            raise ValueError(
                f"next_hop must be a non-negative 31-bit value, got {next_hop}")
        if plen == 0:
            self.default_route = next_hop
            self.n_routes += 1
            return
        children = self.children
        base = 0
        level = 0
        consumed = 0
        while plen > consumed + self.strides[level]:
            stride = self.strides[level]
            shift = 32 - consumed - stride
            slot = base + ((prefix >> shift) & ((1 << stride) - 1))
            child = children[slot]
            if child < 0:
                child = self._new_node(level + 1)
                children[slot] = child
            base = child
            consumed += stride
            level += 1
        # Controlled prefix expansion within the terminal node: a slot is
        # overwritten only by an equal-or-longer prefix (longest match wins;
        # equal-length re-inserts overwrite).
        stride = self.strides[level]
        rem = plen - consumed
        shift = 32 - consumed - stride
        first = base + ((prefix >> shift) & ((1 << stride) - 1))
        routes = self.routes
        plens = self.route_plens
        for i in range(first, first + (1 << (stride - rem))):
            if plen >= plens[i]:
                routes[i] = next_hop
                plens[i] = plen
        self.n_routes += 1

    # -- lookup ---------------------------------------------------------------

    def lookup(self, addr: int) -> Tuple[Optional[int], List[int]]:
        """Longest-prefix-match for ``addr``.

        Returns ``(next_hop, probed_offsets)`` where ``probed_offsets`` are
        the byte offsets of every slot probed, root first.
        """
        best = self.default_route
        base = 0
        shift = 32
        visited: List[int] = []
        children = self.children
        routes = self.routes
        for stride in self.strides:
            shift -= stride
            slot = base + ((addr >> shift) & ((1 << stride) - 1))
            visited.append(slot * SLOT_BYTES)
            route = routes[slot]
            if route >= 0:
                best = route
            base = children[slot]
            if base < 0:
                break
        return best, visited

    def lookup_route(self, addr: int) -> Optional[int]:
        """Just the next hop (reference-model helper for tests)."""
        return self.lookup(addr)[0]


#: ``RouteTableBuilder.build`` memo: key -> (shared trie, RNG state after).
_BUILD_MEMO: "OrderedDict[tuple, Tuple[RadixTrie, tuple]]" = OrderedDict()


class RouteTableBuilder:
    """Generate realistic random routing tables.

    Prefix lengths follow a BGP-like distribution (dominated by /24s) so
    that lookups on uniformly random destinations walk deep, mostly
    distinct paths — the paper's worst case for cache sensitivity.
    """

    #: (prefix_len, weight) pairs approximating a BGP table's length mix.
    LENGTH_MIX = ((8, 1), (12, 3), (16, 12), (20, 26), (24, 53), (28, 5))

    def __init__(self, rng: random.Random, addr_bits: int = 32):
        if not 8 <= addr_bits <= 32:
            raise ValueError("addr_bits must be in [8, 32]")
        self.rng = rng
        self.addr_bits = addr_bits
        lengths = []
        for plen, weight in self.LENGTH_MIX:
            lengths.extend([plen] * weight)
        self._lengths = lengths

    def random_prefix(self) -> Tuple[int, int]:
        """One random ``(prefix, plen)`` with a realistic length.

        Prefixes live in the (possibly reduced) address universe: the top
        ``32 - addr_bits`` bits are zero, matching the traffic generators
        on a scaled platform.
        """
        plen = self.rng.choice(self._lengths)
        prefix = self.rng.getrandbits(self.addr_bits) & prefix_mask(plen)
        return prefix, plen

    def build(self, n_entries: int, n_next_hops: int = 16) -> RadixTrie:
        """A trie with ``n_entries`` random routes plus a default route.

        The result is a pure function of the builder and RNG classes, the
        arguments, ``addr_bits`` and the RNG state, so equal inputs share
        one read-only trie; a memo hit leaves the RNG in the state a fresh
        build would have left it in.
        """
        if n_entries <= 0:
            raise ValueError("need at least one route")
        return rng_memo(_BUILD_MEMO, BUILD_MEMO_SIZE,
                        (type(self), n_entries, n_next_hops, self.addr_bits),
                        self.rng, lambda: self._build(n_entries, n_next_hops))

    def _build(self, n_entries: int, n_next_hops: int) -> RadixTrie:
        rng = self.rng
        trie = RadixTrie()
        trie.insert(0, 0, 0)  # default route
        inserted = 0
        seen = set()
        while inserted < n_entries:
            prefix, plen = self.random_prefix()
            if (prefix, plen) in seen:
                continue
            seen.add((prefix, plen))
            trie.insert(prefix, plen, rng.randrange(n_next_hops))
            inserted += 1
        trie.read_only = True
        return trie
