"""ToDevice: the transmit path (descriptor write + statistics)."""

from __future__ import annotations

from typing import List, Tuple

from ...constants import CACHE_LINE_BITS, COST_TX, RX_RING_ENTRIES
from ...hw.machine import FlowEnv
from ...mem.access import AccessContext, TAGS
from ...mem.region import Region
from ...net.headers import EthernetHeader
from ...net.packet import Packet
from ..element import Element

_DESCRIPTOR_BYTES = 16


class ToDevice(Element):
    """Per-core transmit queue."""

    def __init__(self, ring_entries: int = RX_RING_ENTRIES):
        if ring_entries <= 0:
            raise ValueError("ring must have at least one descriptor")
        self._cfg_entries = ring_entries
        self.ring_entries = 0
        self.ring: Region = None  # type: ignore[assignment]
        self._ring_line = 0
        #: Per ring slot: the one-line tuple its descriptor write records.
        self._slot_lines: List[Tuple[int]] = []
        self.sent = 0
        self.bytes_sent = 0
        self._index = 0
        self._tag_skb = TAGS.register("skb_recycle")

    def initialize(self, env: FlowEnv) -> None:
        self.ring_entries = max(16, self._cfg_entries // env.spec.scale)
        self.ring = env.space.domain(env.domain).alloc(
            self.ring_entries * _DESCRIPTOR_BYTES, "tx.ring"
        )
        self._ring_line = self.ring.base >> CACHE_LINE_BITS
        self._slot_lines = [
            (self._ring_line + ((i * _DESCRIPTOR_BYTES) >> CACHE_LINE_BITS),)
            for i in range(self.ring_entries)
        ]

    def send(self, ctx: AccessContext, packet: Packet) -> None:
        """Queue one packet for transmission."""
        if self.ring is None:
            raise RuntimeError("ToDevice used before initialize()")
        i = self._index
        self._index = (i + 1) % self.ring_entries
        ctx.record(COST_TX, self._slot_lines[i], self._tag_skb)
        self.sent += 1
        # packet.wire_length, inline.
        self.bytes_sent += EthernetHeader.LENGTH + packet.ip.total_length

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        self.send(ctx, packet)
        return packet
