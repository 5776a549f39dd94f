"""NetFlow monitoring (the paper's MON increment).

"NetFlow collects statistics as follows: it applies a hash function to
the IP and transport-layer header of each packet, uses the outcome to
index a hash table with per-TCP/UDP-flow entries, and updates a few
fields (a packet count and a timestamp) of the corresponding entry."

The table is a fixed-size slot array (entries evict on collision, as in
fixed-memory flow caches); the touched entry is one reference tagged
``flow_statistics`` — the paper's uniformly-accessed, fully convertible
function in Figure 7.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..constants import (
    CACHE_LINE_BITS,
    COST_NETFLOW,
    NETFLOW_ENTRY_BYTES,
    NETFLOW_TABLE_ENTRIES,
)
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.headers import EthernetHeader
from ..net.packet import Packet


class FlowRecord:
    """One flow-table entry."""

    __slots__ = ("key", "packets", "bytes", "first_seen", "last_seen")

    def __init__(self, key: tuple, now: int, nbytes: int):
        self.key = key
        self.packets = 1
        self.bytes = nbytes
        self.first_seen = now
        self.last_seen = now

    def update(self, now: int, nbytes: int) -> None:
        """Account one more packet for this flow."""
        self.packets += 1
        self.bytes += nbytes
        self.last_seen = now


class NetFlow(Element):
    """Per-flow statistics collection over a fixed-size hash table."""

    #: Bytes per bucket head (hash-chain pointer), 8 per cache line.
    BUCKET_BYTES = 8
    #: Buckets per entry: a sparse bucket array keeps chains short, and its
    #: cache lines see the same uniform, long-reuse access pattern as the
    #: entries themselves.
    BUCKETS_PER_ENTRY = 4

    def __init__(self, n_entries: Optional[int] = None):
        self._cfg_entries = n_entries
        self.n_entries = 0
        self.n_buckets = 0
        self.slots: List[Optional[FlowRecord]] = []
        self.buckets_region = None
        self.region = None
        self._buckets_line = 0
        self._entries_line = 0
        self.packets = 0
        self.evictions = 0
        self._tag = TAGS.register("flow_statistics")

    def initialize(self, env: FlowEnv) -> None:
        self.n_entries = (self._cfg_entries if self._cfg_entries is not None
                          else env.spec.scale_table(NETFLOW_TABLE_ENTRIES))
        self.n_buckets = self.n_entries * self.BUCKETS_PER_ENTRY
        self.slots = [None] * self.n_entries
        alloc = env.space.domain(env.domain)
        self.buckets_region = alloc.alloc(
            self.n_buckets * self.BUCKET_BYTES, "netflow.buckets"
        )
        self.region = alloc.alloc(
            self.n_entries * NETFLOW_ENTRY_BYTES, "netflow.table"
        )
        self._buckets_line = self.buckets_region.base >> CACHE_LINE_BITS
        self._entries_line = self.region.base >> CACHE_LINE_BITS

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        if self.region is None:
            raise RuntimeError("NetFlow used before initialize()")
        ip = packet.ip
        l4 = packet.l4
        src = ip.src
        dst = ip.dst
        proto = ip.protocol
        sport = l4.sport
        dport = l4.dport
        key = (src, dst, proto, sport, dport)
        # five_tuple_hash(key), inline.
        h = (src * 0x9E3779B1) & 0xFFFFFFFF
        h ^= (dst * 0x85EBCA77) & 0xFFFFFFFF
        h ^= (((sport << 16) | dport) * 0xC2B2AE3D) & 0xFFFFFFFF
        h ^= proto * 0x27D4EB2F
        h &= 0xFFFFFFFF
        h ^= h >> 15
        h = (h * 0x2545F491) & 0xFFFFFFFF
        h ^= h >> 13
        index = h % self.n_entries
        # Real flow caches resolve hash -> bucket head -> entry: two
        # dependent references into two large tables. Bucket heads and
        # entries (NETFLOW_ENTRY_BYTES is one line) never straddle a line.
        ctx.record(COST_NETFLOW, (
            self._buckets_line
            + (((h % self.n_buckets) * self.BUCKET_BYTES) >> CACHE_LINE_BITS),
            self._entries_line
            + ((index * NETFLOW_ENTRY_BYTES) >> CACHE_LINE_BITS),
        ), self._tag)
        self.packets += 1
        wire_length = EthernetHeader.LENGTH + ip.total_length
        record = self.slots[index]
        if record is not None and record.key == key:
            record.update(self.packets, wire_length)
        else:
            if record is not None:
                self.evictions += 1
            self.slots[index] = FlowRecord(key, self.packets, wire_length)
        return packet

    # -- export (the operator-facing side of NetFlow) --------------------------

    def active_flows(self) -> int:
        """Number of live table entries."""
        return sum(1 for record in self.slots if record is not None)

    def export(self) -> List[Tuple[tuple, int, int]]:
        """All records as ``(key, packets, bytes)`` (collector format)."""
        return [
            (record.key, record.packets, record.bytes)
            for record in self.slots if record is not None
        ]

    def top_flows(self, n: int = 10) -> List[Tuple[tuple, int]]:
        """The ``n`` heaviest flows by packet count."""
        live = [(record.packets, record.key)
                for record in self.slots if record is not None]
        live.sort(reverse=True)
        return [(key, packets) for packets, key in live[:n]]
