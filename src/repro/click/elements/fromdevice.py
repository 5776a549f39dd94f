"""FromDevice: the receive path.

Models what the NIC driver does per packet: advance the descriptor ring,
recycle a buffer from the per-core pool (the paper's ``skb_recycle``
bookkeeping), and bind the packet to its receive buffer. The buffer lines
covered by the DMA write are returned so the engine can invalidate them —
making the first touch of packet data a compulsory cache miss, as on
hardware without DCA.
"""

from __future__ import annotations

from typing import List, Tuple

from ...constants import (
    CACHE_LINE_BITS,
    COST_PACKET_BASE,
    PACKET_BUFFER_BYTES,
    RX_RING_ENTRIES,
)
from ...hw.machine import FlowEnv
from ...mem.access import AccessContext, TAGS
from ...mem.region import Region
from ...net.headers import EthernetHeader
from ...net.packet import Packet
from ..element import Element

_DESCRIPTOR_BYTES = 16
_SKB_BYTES = 64


class FromDevice(Element):
    """Per-core receive path with a recycled buffer pool."""

    def __init__(self, n_buffers: int = RX_RING_ENTRIES,
                 buffer_bytes: int = PACKET_BUFFER_BYTES):
        if n_buffers <= 0:
            raise ValueError("need at least one buffer")
        self._cfg_buffers = n_buffers
        self.buffer_bytes = buffer_bytes
        self.n_buffers = 0
        self.received = 0
        self._index = 0
        self.ring: Region = None  # type: ignore[assignment]
        self.skb_pool: Region = None  # type: ignore[assignment]
        self._ring_line = 0
        self._skb_line = 0
        self.buffers: List[Region] = []
        #: Per ring slot: (its descriptor and skb lines, its buffer).
        self._slots: List[Tuple[Tuple[int, int], Region]] = []
        self._tag_skb = TAGS.register("skb_recycle")

    def initialize(self, env: FlowEnv) -> None:
        # The buffer pool scales with the platform so its cache footprint
        # keeps the same proportion on scaled-down configurations.
        self.n_buffers = max(16, self._cfg_buffers // env.spec.scale)
        alloc = env.space.domain(env.domain)
        self.ring = alloc.alloc(self.n_buffers * _DESCRIPTOR_BYTES, "rx.ring")
        self.skb_pool = alloc.alloc(self.n_buffers * _SKB_BYTES, "rx.skbs")
        self._ring_line = self.ring.base >> CACHE_LINE_BITS
        self._skb_line = self.skb_pool.base >> CACHE_LINE_BITS
        data = alloc.alloc(self.n_buffers * self.buffer_bytes, "rx.buffers")
        self.buffers = [
            Region(name=f"rx.buf{i}", base=data.base + i * self.buffer_bytes,
                   size=self.buffer_bytes, domain=env.domain)
            for i in range(self.n_buffers)
        ]
        # One descriptor line (descriptors never straddle a line) and one
        # skb line per slot.
        self._slots = [
            ((self._ring_line + ((i * _DESCRIPTOR_BYTES) >> CACHE_LINE_BITS),
              self._skb_line + ((i * _SKB_BYTES) >> CACHE_LINE_BITS)), buf)
            for i, buf in enumerate(self.buffers)
        ]

    def receive(self, ctx: AccessContext, packet: Packet) -> List[int]:
        """Accept one packet; returns the DMA-invalidated buffer lines."""
        if not self.buffers:
            raise RuntimeError("FromDevice used before initialize()")
        i = self._index
        self._index = (i + 1) % self.n_buffers
        self.received += 1
        lines, buf = self._slots[i]
        ctx.record(COST_PACKET_BASE, lines, self._tag_skb)
        packet.buffer = buf
        # min(packet.wire_length, buf.size), inline.
        length = EthernetHeader.LENGTH + packet.ip.total_length
        if length > buf.size:
            length = buf.size
        base = buf.base
        return list(range(base >> CACHE_LINE_BITS,
                          ((base + length - 1) >> CACHE_LINE_BITS) + 1))

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        """Element-style entry point (ignores DMA lines)."""
        self.receive(ctx, packet)
        return packet
