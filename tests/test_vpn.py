"""VPN element: real encryption with simulated payload accesses."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.aes import AES128, ctr_crypt
from repro.apps.vpn import RUN_AHEAD_PACKETS, VPNEncrypt
from repro.mem.access import AccessContext
from repro.net.packet import Packet
from tests.conftest import make_env


def make_vpn(key=b"\x07" * 16):
    element = VPNEncrypt(key=key)
    element.initialize(make_env())
    return element


def test_encrypts_payload():
    element = make_vpn()
    payload = b"confidential data!!!"
    pkt = Packet.udp(src=1, dst=2, payload=payload)
    out = element.process(AccessContext(), pkt)
    assert out.payload != payload
    assert len(out.payload) == len(payload)
    assert element.bytes_encrypted == len(payload)


def test_ciphertext_is_decryptable():
    key = b"\x07" * 16
    element = make_vpn(key)
    payload = bytes(range(48))
    pkt = Packet.udp(src=1, dst=2, payload=payload)
    element.process(AccessContext(), pkt)
    # First packet: nonce 0, counter 0.
    recovered = ctr_crypt(AES128(key), nonce=0, counter0=0, data=pkt.payload)
    assert recovered == payload


def test_counter_advances_per_packet():
    element = make_vpn()
    p1 = Packet.udp(src=1, dst=2, payload=b"A" * 32)
    p2 = Packet.udp(src=1, dst=2, payload=b"A" * 32)
    element.process(AccessContext(), p1)
    element.process(AccessContext(), p2)
    # Same plaintext must not produce the same ciphertext (fresh keystream).
    assert p1.payload != p2.payload
    assert element.counter == 4


def test_empty_payload_is_noop_crypto():
    element = make_vpn()
    pkt = Packet.udp(src=1, dst=2, payload=b"")
    out = element.process(AccessContext(), pkt)
    assert out.payload == b""
    assert element.packets == 1


def test_records_payload_references():
    element = make_vpn()
    ctx = AccessContext()
    pkt = Packet.udp(src=1, dst=2, payload=b"B" * 128)
    # Bind the packet to a buffer so payload lines are attributable.
    env = make_env(seed=99)
    buf = env.space.domain(0).alloc(2048, "buf")
    pkt.buffer = buf
    element.process(ctx, pkt)
    buf_lines = set(range(buf.base >> 6, buf.end >> 6))
    assert any(line in buf_lines for line in ctx.lines_touched())


def test_random_key_when_unconfigured():
    env = make_env()
    a = VPNEncrypt()
    a.initialize(env)
    b = VPNEncrypt()
    b.initialize(make_env(seed=1234))
    assert a.cipher.key != b.cipher.key


def test_requires_initialize():
    with pytest.raises(RuntimeError):
        VPNEncrypt().process(AccessContext(), Packet.udp(src=1, dst=2))


def _encrypt_sequence(key, lengths):
    """Run one element over payloads of ``lengths``; check each ciphertext
    against encrypting that packet on its own."""
    element = make_vpn(key)
    cipher = AES128(key)
    counter = 0
    for i, n in enumerate(lengths):
        payload = bytes((i + k) % 256 for k in range(n))
        pkt = Packet.udp(src=1, dst=2, payload=payload)
        element.process(AccessContext(), pkt)
        assert pkt.payload == ctr_crypt(cipher, nonce=i, counter0=counter,
                                        data=payload)
        assert len(element._ahead) <= RUN_AHEAD_PACKETS
        counter += (n + 15) // 16
    assert element.packets == len(lengths)
    assert element.counter == counter
    return element


def test_run_ahead_matches_per_packet_encryption():
    # 150 packets of one length cross two refills.
    _encrypt_sequence(b"\x07" * 16, [256] * 150)


def test_run_ahead_survives_length_changes_mid_batch():
    lengths = [256, 256, 20, 48, 0, 256, 17] * 12
    element = _encrypt_sequence(b"\x09" * 16, lengths)
    assert element.bytes_encrypted == sum(lengths)


@given(key=st.binary(min_size=16, max_size=16),
       lengths=st.lists(st.sampled_from([0, 1, 16, 17, 48, 256]),
                        max_size=80))
@settings(max_examples=15, deadline=None)
def test_property_run_ahead_is_per_packet_ctr(key, lengths):
    _encrypt_sequence(key, lengths)
