"""Protocol headers with real serialization.

Headers are small mutable ``__slots__`` classes kept in native Python
fields for speed in the simulation hot path (every generated packet
builds two). They compare and print field by field, like dataclasses,
and reject unknown attributes. :meth:`pack`/:meth:`unpack` produce and
parse the actual wire format (big-endian, per the RFCs) and are exercised
by the functional tests and the pcap-style replay tooling.
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_ETH_FMT = struct.Struct("!6s6sH")
_IPV4_FMT = struct.Struct("!BBHHHBBHII")
_UDP_FMT = struct.Struct("!HHHH")
_TCP_FMT = struct.Struct("!HHIIBBHHH")


def _mac_bytes(mac: int) -> bytes:
    return mac.to_bytes(6, "big")


class _Header:
    """Field-wise ``==`` and ``repr`` over a header's ``__slots__``."""

    __slots__ = ()
    #: Mutable and compared by value, so unhashable (as a dataclass is).
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class EthernetHeader(_Header):
    """Ethernet II header (MACs as 48-bit ints)."""

    __slots__ = ("dst", "src", "ethertype")

    LENGTH = 14

    def __init__(self, dst: int = 0, src: int = 0, ethertype: int = 0x0800):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype

    def pack(self) -> bytes:
        return _ETH_FMT.pack(_mac_bytes(self.dst), _mac_bytes(self.src),
                             self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        dst, src, ethertype = _ETH_FMT.unpack_from(data)
        return cls(dst=int.from_bytes(dst, "big"),
                   src=int.from_bytes(src, "big"), ethertype=ethertype)


class IPv4Header(_Header):
    """IPv4 header (no options; IHL fixed at 5)."""

    __slots__ = ("src", "dst", "ttl", "protocol", "total_length",
                 "identification", "tos", "flags_fragment", "checksum")

    LENGTH = 20

    def __init__(self, src: int = 0, dst: int = 0, ttl: int = 64,
                 protocol: int = PROTO_UDP, total_length: int = 20,
                 identification: int = 0, tos: int = 0,
                 flags_fragment: int = 0, checksum: int = 0):
        self.src = src
        self.dst = dst
        self.ttl = ttl
        self.protocol = protocol
        self.total_length = total_length
        self.identification = identification
        self.tos = tos
        self.flags_fragment = flags_fragment
        self.checksum = checksum

    def compute_checksum(self) -> int:
        """Checksum of this header with the checksum field zeroed."""
        return internet_checksum(self._pack_with_checksum(0))

    def finalize(self) -> "IPv4Header":
        """Fill in the checksum field; returns self for chaining."""
        self.checksum = self.compute_checksum()
        return self

    def _pack_with_checksum(self, checksum: int) -> bytes:
        return _IPV4_FMT.pack(
            (4 << 4) | 5, self.tos, self.total_length, self.identification,
            self.flags_fragment, self.ttl, self.protocol, checksum,
            self.src, self.dst,
        )

    def pack(self) -> bytes:
        return self._pack_with_checksum(self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        (vihl, tos, total_length, ident, flags_frag, ttl, proto, checksum,
         src, dst) = _IPV4_FMT.unpack_from(data)
        if vihl >> 4 != 4:
            raise ValueError(f"not an IPv4 header (version {vihl >> 4})")
        if vihl & 0xF != 5:
            raise ValueError("IPv4 options are not supported")
        return cls(src=src, dst=dst, ttl=ttl, protocol=proto,
                   total_length=total_length, identification=ident, tos=tos,
                   flags_fragment=flags_frag, checksum=checksum)

    def is_valid(self) -> bool:
        """Header-level validity: version/ttl/length sanity plus checksum."""
        return (
            0 < self.ttl <= 255
            and self.total_length >= self.LENGTH
            and self.checksum == self.compute_checksum()
        )


class UDPHeader(_Header):
    """UDP header (checksum optional, as the RFC allows for IPv4)."""

    __slots__ = ("sport", "dport", "length", "checksum")

    LENGTH = 8

    def __init__(self, sport: int = 0, dport: int = 0, length: int = 8,
                 checksum: int = 0):
        self.sport = sport
        self.dport = dport
        self.length = length
        self.checksum = checksum

    def pack(self) -> bytes:
        return _UDP_FMT.pack(self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        sport, dport, length, checksum = _UDP_FMT.unpack_from(data)
        return cls(sport=sport, dport=dport, length=length, checksum=checksum)


class TCPHeader(_Header):
    """TCP header (no options; data offset fixed at 5)."""

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window",
                 "checksum", "urgent")

    LENGTH = 20

    def __init__(self, sport: int = 0, dport: int = 0, seq: int = 0,
                 ack: int = 0, flags: int = 0, window: int = 65535,
                 checksum: int = 0, urgent: int = 0):
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.checksum = checksum
        self.urgent = urgent

    def pack(self) -> bytes:
        return _TCP_FMT.pack(self.sport, self.dport, self.seq, self.ack,
                             5 << 4, self.flags, self.window, self.checksum,
                             self.urgent)

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        (sport, dport, seq, ack, offset, flags, window, checksum,
         urgent) = _TCP_FMT.unpack_from(data)
        if offset >> 4 != 5:
            raise ValueError("TCP options are not supported")
        return cls(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags,
                   window=window, checksum=checksum, urgent=urgent)
