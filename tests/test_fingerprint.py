"""Rabin fingerprinting: rolling updates, sampling, aligned mode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.fingerprint import RabinFingerprinter


def test_fingerprint_requires_exact_window():
    fp = RabinFingerprinter(window=8)
    with pytest.raises(ValueError):
        fp.fingerprint(b"short")
    with pytest.raises(ValueError):
        fp.fingerprint(b"x" * 9)


def test_fingerprint_deterministic_and_content_sensitive():
    fp = RabinFingerprinter(window=8)
    a = fp.fingerprint(b"abcdefgh")
    assert a == fp.fingerprint(b"abcdefgh")
    assert a != fp.fingerprint(b"abcdefgi")


def test_rolling_covers_every_window():
    fp = RabinFingerprinter(window=4)
    data = b"0123456789"
    offsets = [off for off, _ in fp.rolling(data)]
    assert offsets == list(range(7))


def test_rolling_short_input_yields_nothing():
    fp = RabinFingerprinter(window=16)
    assert list(fp.rolling(b"tiny")) == []


@given(st.binary(min_size=4, max_size=120))
@settings(max_examples=60, deadline=None)
def test_property_rolling_equals_direct(data):
    """O(1) rolling updates must match recomputing each window."""
    fp = RabinFingerprinter(window=4)
    for off, value in fp.rolling(data):
        assert value == fp.fingerprint(data[off:off + 4])


def test_representative_sampling_subset_of_rolling():
    fp = RabinFingerprinter(window=8, sample_bits=3)
    data = bytes(range(256)) * 2
    rep = fp.representative(data)
    all_fps = dict(fp.rolling(data))
    for off, value in rep:
        assert all_fps[off] == value
        assert value & 0b111 == 0


def test_sampling_rate_roughly_matches_bits():
    fp = RabinFingerprinter(window=8, sample_bits=3)
    data = bytes((i * 37 + 11) % 256 for i in range(4096))
    rep = fp.representative(data)
    total = len(data) - 8 + 1
    # Expect ~1/8 of windows sampled; allow generous slack.
    assert total / 16 < len(rep) < total / 3


def test_aligned_chunks():
    fp = RabinFingerprinter(window=8)
    data = b"A" * 8 + b"B" * 8 + b"C" * 4  # trailing partial chunk ignored
    chunks = fp.aligned(data)
    assert [off for off, _ in chunks] == [0, 8]
    assert chunks[0][1] == fp.fingerprint(b"A" * 8)
    assert chunks[1][1] == fp.fingerprint(b"B" * 8)


def test_aligned_matches_rolling_at_aligned_offsets():
    fp = RabinFingerprinter(window=16)
    data = bytes((i * 13) % 256 for i in range(80))
    rolling = dict(fp.rolling(data))
    for off, value in fp.aligned(data):
        assert rolling[off] == value


def test_constructor_validation():
    with pytest.raises(ValueError):
        RabinFingerprinter(window=0)
    with pytest.raises(ValueError):
        RabinFingerprinter(window=8, sample_bits=-1)


def test_identical_chunks_share_fingerprints():
    fp = RabinFingerprinter(window=32)
    chunk = bytes(range(32))
    data = chunk * 3
    values = {v for _, v in fp.aligned(data)}
    assert len(values) == 1


def _horner(data):
    fp = 0
    for byte in data:
        fp = (fp * (2**8 + 7) + byte) % ((1 << 61) - 1)
    return fp


@given(window=st.integers(min_value=1, max_value=96), data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_fingerprint_matches_horner_reference(window, data):
    chunk = data.draw(st.binary(min_size=window, max_size=window))
    assert RabinFingerprinter(window=window).fingerprint(chunk) == \
        _horner(chunk)
