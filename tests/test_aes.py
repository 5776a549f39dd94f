"""AES-128 against the FIPS-197 / SP 800-38A vectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.aes import AES128, aes_ctr_keystream, ctr_crypt, ctr_keystreams


def test_fips197_appendix_b():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    assert AES128(key).encrypt_block(plaintext) == expected


def test_fips197_appendix_c1():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES128(key)
    assert cipher.encrypt_block(plaintext) == expected
    assert cipher.decrypt_block(expected) == plaintext


def test_sp800_38a_ecb_vectors():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    cipher = AES128(key)
    vectors = [
        ("6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"),
        ("30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"),
        ("f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"),
    ]
    for pt_hex, ct_hex in vectors:
        assert cipher.encrypt_block(bytes.fromhex(pt_hex)) == \
            bytes.fromhex(ct_hex)


def test_sp800_38a_ctr_vector():
    # SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    counter_block = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
    ks = AES128(key).encrypt_block(counter_block)
    ct = bytes(a ^ b for a, b in zip(plaintext, ks))
    assert ct == expected


def test_key_length_validated():
    with pytest.raises(ValueError):
        AES128(b"short")


def test_block_length_validated():
    cipher = AES128(b"\x00" * 16)
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"\x00" * 15)
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"\x00" * 17)


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_property_decrypt_inverts_encrypt(key, block):
    cipher = AES128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16),
       data=st.binary(max_size=200),
       nonce=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_property_ctr_is_symmetric(key, data, nonce):
    cipher = AES128(key)
    ct = ctr_crypt(cipher, nonce, 0, data)
    assert ctr_crypt(cipher, nonce, 0, ct) == data
    if data:
        assert ct != data or len(data) == 0 or True  # keystream may be weak only by chance


def test_ctr_keystream_length_and_determinism():
    cipher = AES128(b"\x01" * 16)
    ks1 = aes_ctr_keystream(cipher, nonce=5, counter0=0, n_bytes=33)
    ks2 = aes_ctr_keystream(cipher, nonce=5, counter0=0, n_bytes=33)
    assert len(ks1) == 33
    assert ks1 == ks2
    ks3 = aes_ctr_keystream(cipher, nonce=6, counter0=0, n_bytes=33)
    assert ks3 != ks1


def test_ctr_keystream_rejects_negative():
    with pytest.raises(ValueError):
        aes_ctr_keystream(AES128(b"\x00" * 16), 0, 0, -1)


@pytest.mark.parametrize("n_bytes", [0, 16])
def test_ctr_rejects_negative_counter(n_bytes):
    # A negative counter is an error, not a wrap to 2**64 - 1.
    cipher = AES128(b"\x00" * 16)
    with pytest.raises(ValueError):
        aes_ctr_keystream(cipher, 0, -1, n_bytes)
    with pytest.raises(ValueError):
        ctr_keystreams(cipher, [(0, 0, 16), (1, -1, n_bytes)])


def test_avalanche():
    cipher = AES128(b"\x00" * 16)
    a = cipher.encrypt_block(b"\x00" * 16)
    b = cipher.encrypt_block(b"\x00" * 15 + b"\x01")
    differing = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    assert differing > 30  # roughly half of 128 bits flip


def _blockwise_keystream(cipher, nonce, counter0, n_bytes):
    """Reference CTR keystream: one ``encrypt_block`` per 16 bytes."""
    out = b""
    counter = counter0
    while len(out) < n_bytes:
        out += cipher.encrypt_block(
            nonce.to_bytes(8, "big")
            + (counter % 2**64).to_bytes(8, "big"))
        counter += 1
    return out[:n_bytes]


@given(key=st.binary(min_size=16, max_size=16),
       n_bytes=st.integers(min_value=0, max_value=80),
       nonce=st.integers(min_value=0, max_value=2**64 - 1),
       counter0=st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                          st.integers(min_value=2**64 - 3, max_value=2**64 + 3)))
@settings(max_examples=60, deadline=None)
def test_property_ctr_matches_blockwise_keystream(key, n_bytes, nonce, counter0):
    cipher = AES128(key)
    expected = _blockwise_keystream(cipher, nonce, counter0, n_bytes)
    assert aes_ctr_keystream(cipher, nonce, counter0, n_bytes) == expected
    data = bytes(range(n_bytes))
    assert ctr_crypt(cipher, nonce, counter0, data) == bytes(
        a ^ b for a, b in zip(data, expected))


@pytest.mark.parametrize("nonce", [2**64, -1])
def test_ctr_rejects_nonce_beyond_64_bits(nonce):
    cipher = AES128(b"\x00" * 16)
    with pytest.raises(OverflowError):
        ctr_crypt(cipher, nonce, 0, b"payload")
    assert aes_ctr_keystream(cipher, nonce, 0, 0) == b""


_REQUESTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
              st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                        st.integers(min_value=2**64 - 3,
                                    max_value=2**64 + 3)),
              st.integers(min_value=0, max_value=80)),
    max_size=12)


@given(key=st.binary(min_size=16, max_size=16), requests=_REQUESTS)
@settings(max_examples=40, deadline=None)
def test_property_batched_keystreams_match_one_request_calls(key, requests):
    cipher = AES128(key)
    assert ctr_keystreams(cipher, requests) == [
        aes_ctr_keystream(cipher, *request) for request in requests]


@given(key=st.binary(min_size=16, max_size=16), requests=_REQUESTS)
@settings(max_examples=20, deadline=None)
def test_property_keystream_blocks_decrypt_to_counter_blocks(key, requests):
    # The textbook inverse cipher shares no tables with the T-table kernel.
    cipher = AES128(key)
    for (nonce, counter0, n_bytes), ks in zip(
            requests, ctr_keystreams(cipher, requests)):
        assert len(ks) == n_bytes
        for i in range(n_bytes // 16):
            counter = (counter0 + i) % 2**64
            assert cipher.decrypt_block(ks[16 * i:16 * i + 16]) == (
                nonce.to_bytes(8, "big") + counter.to_bytes(8, "big"))


@given(key=st.binary(min_size=16, max_size=16),
       blocks=st.lists(st.integers(min_value=0, max_value=2**128 - 1),
                       min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_property_kernel_matches_scalar_rounds(key, blocks):
    cipher = AES128(key)
    state = np.array([[(b >> (96 - 32 * w)) & 0xFFFFFFFF for b in blocks]
                      for w in range(4)], dtype=np.dtype("<u4"))
    out = cipher._encrypt_words(state)
    got = [(int(out[0, i]) << 96) | (int(out[1, i]) << 64)
           | (int(out[2, i]) << 32) | int(out[3, i])
           for i in range(len(blocks))]
    assert got == [cipher._encrypt_int(b) for b in blocks]


def test_batched_keystreams_empty_and_zero_length():
    cipher = AES128(b"\x05" * 16)
    assert ctr_keystreams(cipher, []) == []
    assert ctr_keystreams(cipher, [(2**64, 0, 0), (-1, 3, 0)]) == [b"", b""]
    with pytest.raises(OverflowError):
        ctr_keystreams(cipher, [(0, 0, 16), (2**64, 0, 1)])
