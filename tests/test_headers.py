"""Header serialization round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.net.headers import (
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)


def test_ethernet_roundtrip():
    eth = EthernetHeader(dst=0x001122334455, src=0xAABBCCDDEEFF,
                         ethertype=0x0800)
    packed = eth.pack()
    assert len(packed) == EthernetHeader.LENGTH
    again = EthernetHeader.unpack(packed)
    assert again == eth


def test_ipv4_pack_length_and_version():
    ip = IPv4Header(src=1, dst=2, total_length=40).finalize()
    packed = ip.pack()
    assert len(packed) == IPv4Header.LENGTH
    assert packed[0] == 0x45  # version 4, IHL 5


def test_ipv4_roundtrip():
    ip = IPv4Header(src=0x0A000001, dst=0xC0A80101, ttl=17, protocol=6,
                    total_length=52, identification=99, tos=4,
                    flags_fragment=0x4000).finalize()
    again = IPv4Header.unpack(ip.pack())
    assert again == ip


def test_ipv4_checksum_valid_after_finalize():
    ip = IPv4Header(src=3, dst=4, total_length=28).finalize()
    assert ip.is_valid()
    ip.ttl = 0
    assert not ip.is_valid()


def test_ipv4_unpack_rejects_non_v4():
    data = bytearray(IPv4Header().finalize().pack())
    data[0] = 0x65  # version 6
    with pytest.raises(ValueError):
        IPv4Header.unpack(bytes(data))


def test_ipv4_unpack_rejects_options():
    data = bytearray(IPv4Header().finalize().pack())
    data[0] = 0x46  # IHL 6
    with pytest.raises(ValueError):
        IPv4Header.unpack(bytes(data))


def test_udp_roundtrip():
    udp = UDPHeader(sport=53, dport=3333, length=20, checksum=0xBEEF)
    assert UDPHeader.unpack(udp.pack()) == udp
    assert len(udp.pack()) == UDPHeader.LENGTH


def test_tcp_roundtrip():
    tcp = TCPHeader(sport=80, dport=1024, seq=12345, ack=999, flags=0x18,
                    window=4096, checksum=7, urgent=0)
    assert TCPHeader.unpack(tcp.pack()) == tcp
    assert len(tcp.pack()) == TCPHeader.LENGTH


@given(
    src=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    ttl=st.integers(min_value=1, max_value=255),
    proto=st.integers(min_value=0, max_value=255),
    length=st.integers(min_value=20, max_value=65535),
)
def test_property_ipv4_roundtrip(src, dst, ttl, proto, length):
    ip = IPv4Header(src=src, dst=dst, ttl=ttl, protocol=proto,
                    total_length=length).finalize()
    again = IPv4Header.unpack(ip.pack())
    assert again == ip
    assert again.is_valid()


HEADERS = (EthernetHeader, IPv4Header, UDPHeader, TCPHeader)


@pytest.mark.parametrize("cls", HEADERS)
def test_header_equality_is_field_wise(cls):
    first = cls()
    assert first == cls()
    assert first is not cls()
    name = cls.__slots__[0]
    setattr(first, name, getattr(first, name) + 1)
    assert first != cls()
    assert cls() != (0,) * len(cls.__slots__)
    with pytest.raises(TypeError):
        hash(first)  # mutable and compared by value, as a dataclass


def test_header_repr_lists_every_field():
    assert repr(UDPHeader(sport=53, dport=3333, length=20)) == (
        "UDPHeader(sport=53, dport=3333, length=20, checksum=0)")
    assert repr(IPv4Header(src=1, dst=2)) == (
        "IPv4Header(src=1, dst=2, ttl=64, protocol=17, total_length=20, "
        "identification=0, tos=0, flags_fragment=0, checksum=0)")
    assert repr(EthernetHeader()) == (
        "EthernetHeader(dst=0, src=0, ethertype=2048)")
    assert repr(TCPHeader(seq=5)) == (
        "TCPHeader(sport=0, dport=0, seq=5, ack=0, flags=0, window=65535, "
        "checksum=0, urgent=0)")


@pytest.mark.parametrize("cls", HEADERS)
def test_header_rejects_unknown_attribute(cls):
    header = cls()
    with pytest.raises(AttributeError):
        header.ttll = 3
    assert not hasattr(header, "__dict__")


def test_positional_construction_matches_keywords():
    assert IPv4Header(1, 2, 9, 6, 40) == IPv4Header(
        src=1, dst=2, ttl=9, protocol=6, total_length=40)
    assert UDPHeader(1, 2, 30) == UDPHeader(sport=1, dport=2, length=30)
    assert TCPHeader(1, 2, 3) == TCPHeader(sport=1, dport=2, seq=3)
    assert EthernetHeader(1, 2, 3) == EthernetHeader(dst=1, src=2,
                                                     ethertype=3)
