"""CheckIPHeader: validate the IP header (Click's element of the same name).

Drops packets with an exhausted TTL, a bogus length, or — when the packet
carries a checksum (our sources may offload it) — a checksum mismatch.
Touches the header's cache lines in the packet buffer; these are the
references Figure 7 attributes to ``check_ip_header`` (same few lines every
packet, hence almost never converted to misses by contention).
"""

from __future__ import annotations

from typing import Optional

from ...constants import CACHE_LINE_BITS, COST_CHECK_IP
from ...mem.access import AccessContext, TAGS
from ...net.headers import IPv4Header
from ...net.packet import Packet
from ..element import Element


class CheckIPHeader(Element):
    """Header validation; output is the verified packet or a drop."""

    def __init__(self, verify_checksum: bool = True):
        self.verify_checksum = verify_checksum
        self.dropped = 0
        self._tag = TAGS.register("check_ip_header")

    def process(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        # The headers (at most 54 bytes) fill part of the buffer's first line.
        buf = packet.buffer
        ctx.record(COST_CHECK_IP,
                   () if buf is None else (buf.base >> CACHE_LINE_BITS,),
                   self._tag)
        ip = packet.ip
        if ip.ttl <= 0 or ip.total_length < IPv4Header.LENGTH:
            self.dropped += 1
            return None
        if (self.verify_checksum and ip.checksum
                and ip.checksum != ip.compute_checksum()):
            self.dropped += 1
            return None
        return packet
