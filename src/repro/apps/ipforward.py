"""IP forwarding elements: longest-prefix-match lookup and TTL/checksum.

The paper's baseline application: "full IP forwarding, including
longest-prefix-match lookup, checksum computation, and time-to-live
update", using a radix trie with 128000 routes. Every trie node visited
during a lookup is one cache-line reference tagged ``radix_ip_lookup`` —
the function whose hit-to-miss conversion Figure 7 tracks.
"""

from __future__ import annotations

from typing import Optional

from ..constants import (
    CACHE_LINE_BITS,
    COST_IP_FINISH,
    COST_TRIE_NODE,
    IP_ROUTING_TABLE_ENTRIES,
)
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.checksum import incremental_update16
from ..net.packet import Packet
from .radixtrie import RadixTrie, RouteTableBuilder, SLOT_BYTES

#: Slot index -> line offset within the trie region (slots never straddle).
_SLOT_LINE_SHIFT = CACHE_LINE_BITS - (SLOT_BYTES.bit_length() - 1)


class RadixIPLookup(Element):
    """Longest-prefix-match against a radix trie."""

    def __init__(self, n_routes: Optional[int] = None,
                 trie: Optional[RadixTrie] = None):
        self._cfg_routes = n_routes
        self._cfg_trie = trie
        self.trie: RadixTrie = None  # type: ignore[assignment]
        self.region = None
        self._region_line = 0
        self.lookups = 0
        self.no_route = 0
        self._tag = TAGS.register("radix_ip_lookup")

    def initialize(self, env: FlowEnv) -> None:
        if self._cfg_trie is not None:
            self.trie = self._cfg_trie
        else:
            n_routes = (self._cfg_routes if self._cfg_routes is not None
                        else env.spec.scale_table(IP_ROUTING_TABLE_ENTRIES))
            self.trie = RouteTableBuilder(
                env.rng, addr_bits=env.spec.address_bits).build(n_routes)
        self.region = env.space.domain(env.domain).alloc(
            self.trie.total_bytes, "ip.trie"
        )
        self._region_line = self.region.base >> CACHE_LINE_BITS

    def process(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        if self.region is None:
            raise RuntimeError("RadixIPLookup used before initialize()")
        # RadixTrie.lookup's walk, fused with the recording: each probed
        # slot is one reference to the line holding it.
        trie = self.trie
        children = trie.children
        routes = trie.routes
        next_hop = trie.default_route
        addr = packet.ip.dst
        base_line = self._region_line
        base = 0
        lines = []
        append = lines.append
        for shift, mask in trie.steps:
            slot = base + ((addr >> shift) & mask)
            append(base_line + (slot >> _SLOT_LINE_SHIFT))
            route = routes[slot]
            if route >= 0:
                next_hop = route
            base = children[slot]
            if base < 0:
                break
        ctx.record_each(COST_TRIE_NODE, lines, self._tag)
        self.lookups += 1
        if next_hop is None:
            self.no_route += 1
            return None
        annotations = packet.annotations or {}
        annotations["next_hop"] = next_hop
        packet.annotations = annotations
        return packet


class DecIPTTL(Element):
    """Decrement TTL and incrementally update the header checksum."""

    def __init__(self) -> None:
        self.expired = 0
        self._tag = TAGS.register("dec_ttl")

    def process(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        ip = packet.ip
        if ip.ttl <= 1:
            ctx.cost(COST_IP_FINISH)
            self.expired += 1
            return None
        # RFC 1624: the TTL/protocol 16-bit word changes by one TTL step.
        old_word = (ip.ttl << 8) | ip.protocol
        ip.ttl -= 1
        new_word = (ip.ttl << 8) | ip.protocol
        if ip.checksum:
            ip.checksum = incremental_update16(ip.checksum, old_word, new_word)
        # The TTL and checksum live in the first header line.
        buf = packet.buffer
        ctx.record(COST_IP_FINISH,
                   () if buf is None else (buf.base >> CACHE_LINE_BITS,),
                   self._tag)
        return packet
