"""The simulated packet.

A :class:`Packet` carries real header objects and payload bytes (the
functional layer forwards, filters, fingerprints, and encrypts them), plus
an optional ``buffer`` :class:`~repro.mem.region.Region` binding the packet
to simulated memory so its cache-line footprint can be modeled.
"""

from __future__ import annotations

from typing import Optional

from ..mem.region import Region
from .headers import (
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)

#: IP total length of a UDP / TCP packet before its payload.
_UDP_IP_LENGTH = IPv4Header.LENGTH + UDPHeader.LENGTH
_TCP_IP_LENGTH = IPv4Header.LENGTH + TCPHeader.LENGTH


class Packet:
    """One packet: Ethernet + IPv4 + (UDP|TCP) + payload."""

    __slots__ = ("eth", "ip", "l4", "payload", "buffer", "annotations")

    def __init__(self, ip: IPv4Header, l4, payload: bytes = b"",
                 eth: Optional[EthernetHeader] = None,
                 buffer: Optional[Region] = None):
        self.eth = eth if eth is not None else EthernetHeader()
        self.ip = ip
        self.l4 = l4
        self.payload = payload
        self.buffer = buffer
        self.annotations: Optional[dict] = None

    # -- construction helpers -------------------------------------------------

    #: Shared default Ethernet header for generated packets. Elements never
    #: mutate layer-2 fields, so sources may share one instance (pass a
    #: fresh ``eth=`` to a constructor if a packet needs its own).
    DEFAULT_ETH = EthernetHeader()

    @classmethod
    def udp(cls, src: int, dst: int, sport: int = 1000, dport: int = 2000,
            payload: bytes = b"", ttl: int = 64,
            compute_checksum: bool = False) -> "Packet":
        """Build a UDP packet with a consistent length field.

        ``compute_checksum=False`` leaves the IP checksum zero — checksum
        offload, as a NIC would do; validating elements treat a zero
        checksum as offloaded. Pass True for fully self-contained packets.
        """
        n = len(payload)
        ip = IPv4Header(src, dst, ttl, PROTO_UDP, _UDP_IP_LENGTH + n)
        if compute_checksum:
            ip.finalize()
        return cls(ip, UDPHeader(sport, dport, UDPHeader.LENGTH + n),
                   payload, cls.DEFAULT_ETH)

    @classmethod
    def tcp(cls, src: int, dst: int, sport: int = 1000, dport: int = 2000,
            payload: bytes = b"", ttl: int = 64, seq: int = 0,
            compute_checksum: bool = False) -> "Packet":
        """Build a TCP packet with a consistent length field."""
        ip = IPv4Header(src, dst, ttl, PROTO_TCP,
                        _TCP_IP_LENGTH + len(payload))
        if compute_checksum:
            ip.finalize()
        return cls(ip, TCPHeader(sport, dport, seq), payload,
                   cls.DEFAULT_ETH)

    # -- properties -------------------------------------------------------------

    @property
    def wire_length(self) -> int:
        """Bytes on the wire (Ethernet header + IP total length)."""
        return EthernetHeader.LENGTH + self.ip.total_length

    @property
    def header_bytes(self) -> int:
        """Bytes of headers preceding the payload."""
        return EthernetHeader.LENGTH + IPv4Header.LENGTH + self.l4.LENGTH

    def five_tuple(self) -> tuple:
        """(src, dst, proto, sport, dport) — the NetFlow key."""
        return (self.ip.src, self.ip.dst, self.ip.protocol,
                self.l4.sport, self.l4.dport)

    def flow_hash(self) -> int:
        """Deterministic hash of the 5-tuple (used by RSS and NetFlow)."""
        return five_tuple_hash(self.five_tuple())

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to actual wire bytes."""
        return self.eth.pack() + self.ip.pack() + self.l4.pack() + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse wire bytes back into a Packet (UDP and TCP only)."""
        eth = EthernetHeader.unpack(data)
        ip = IPv4Header.unpack(data[EthernetHeader.LENGTH:])
        off = EthernetHeader.LENGTH + IPv4Header.LENGTH
        if ip.protocol == PROTO_TCP:
            l4 = TCPHeader.unpack(data[off:])
            off += TCPHeader.LENGTH
        elif ip.protocol == PROTO_UDP:
            l4 = UDPHeader.unpack(data[off:])
            off += UDPHeader.LENGTH
        else:
            raise ValueError(f"unsupported protocol {ip.protocol}")
        end = EthernetHeader.LENGTH + ip.total_length
        return cls(eth=eth, ip=ip, l4=l4, payload=data[off:end])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        from .addresses import int_to_ip

        return (
            f"Packet({int_to_ip(self.ip.src)}:{self.l4.sport} -> "
            f"{int_to_ip(self.ip.dst)}:{self.l4.dport}, "
            f"proto={self.ip.protocol}, len={self.wire_length})"
        )


def five_tuple_hash(key: tuple) -> int:
    """:meth:`Packet.flow_hash` of a packet whose 5-tuple is ``key``."""
    src, dst, proto, sport, dport = key
    h = (src * 0x9E3779B1) & 0xFFFFFFFF
    h ^= (dst * 0x85EBCA77) & 0xFFFFFFFF
    h ^= (((sport << 16) | dport) * 0xC2B2AE3D) & 0xFFFFFFFF
    h ^= proto * 0x27D4EB2F
    h &= 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2545F491) & 0xFFFFFFFF
    h ^= h >> 13
    return h
