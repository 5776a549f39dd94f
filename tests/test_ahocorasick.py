"""Aho-Corasick matcher against a brute-force reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ahocorasick import AhoCorasick, generate_signatures


def brute_force(patterns, data):
    out = []
    for pos in range(1, len(data) + 1):
        for index, pattern in enumerate(patterns):
            if data[:pos].endswith(pattern):
                out.append((pos, index))
    return sorted(out)


def test_single_pattern():
    ac = AhoCorasick([b"abc"])
    assert ac.search(b"xxabcxxabc") == [(5, 0), (10, 0)]
    assert ac.search(b"ababab") == []


def test_overlapping_patterns():
    ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    matches = ac.search(b"ushers")
    assert sorted(matches) == [(4, 1), (4, 0), (6, 3)] or \
        sorted(matches) == sorted([(4, 0), (4, 1), (6, 3)])


def test_pattern_inside_pattern():
    ac = AhoCorasick([b"ab", b"abab"])
    assert sorted(ac.search(b"abab")) == [(2, 0), (4, 0), (4, 1)]


def test_contains_any_early_exit():
    ac = AhoCorasick([b"evil"])
    assert ac.contains_any(b"some evil payload")
    assert not ac.contains_any(b"innocent data")


def test_search_with_path_length():
    ac = AhoCorasick([b"xy"])
    matches, path = ac.search_with_path(b"aaxyaa")
    assert len(path) == 6
    assert matches == [(4, 0)]
    assert all(0 <= s < ac.n_states for s in path)


def folded_path(ac, data):
    """The states of folding ``step`` over ``data`` from the root."""
    path = []
    state = 0
    for byte in data:
        state = ac.step(state, byte)
        path.append(state)
    return path


#: Bytes that are special inside a regex character class, a NUL, 0xCC
#: (the generated signatures' first byte) and a few plain ones.
_AC_ALPHABET = b"\x00-]^\\[abc\xcc\xff"


@given(
    patterns=st.lists(st.binary(min_size=1, max_size=5).map(
        lambda b: bytes(_AC_ALPHABET[x % len(_AC_ALPHABET)] for x in b)),
        min_size=1, max_size=6, unique=True),
    data=st.one_of(
        st.binary(max_size=80),
        st.binary(max_size=80).map(
            lambda b: bytes(_AC_ALPHABET[x % len(_AC_ALPHABET)] for x in b))),
)
@settings(max_examples=200, deadline=None)
def test_property_search_with_path_equals_step_fold(patterns, data):
    ac = AhoCorasick(patterns)
    matches, path = ac.search_with_path(data)
    assert path == folded_path(ac, data)
    assert matches == ac.search(data)


def test_search_with_path_on_generated_signatures():
    rng = random.Random(11)
    ac = AhoCorasick(generate_signatures(rng, 64, min_len=2, max_len=4))
    payloads = [rng.randbytes(256) for _ in range(20)]
    payloads.append(b"\xcc" * 64)
    for data in payloads:
        matches, path = ac.search_with_path(data)
        assert path == folded_path(ac, data)
        assert matches == ac.search(data)


def test_validation():
    with pytest.raises(ValueError):
        AhoCorasick([])
    with pytest.raises(ValueError):
        AhoCorasick([b"ok", b""])


@given(
    patterns=st.lists(st.binary(min_size=1, max_size=4), min_size=1,
                      max_size=6, unique=True),
    data=st.binary(max_size=60),
)
@settings(max_examples=80, deadline=None)
def test_property_matches_brute_force(patterns, data):
    ac = AhoCorasick(patterns)
    assert sorted(ac.search(data)) == brute_force(patterns, data)


@given(st.binary(min_size=1, max_size=8), st.binary(max_size=30),
       st.binary(max_size=30))
@settings(max_examples=40, deadline=None)
def test_property_planted_pattern_found(pattern, prefix, suffix):
    ac = AhoCorasick([pattern])
    matches = ac.search(prefix + pattern + suffix)
    assert any(index == 0 for _, index in matches)


def test_generate_signatures_unique_and_rare():
    rng = random.Random(5)
    signatures = generate_signatures(rng, 50, min_len=6, max_len=10)
    assert len(signatures) == len(set(signatures)) == 50
    assert all(sig[0] == 0xCC for sig in signatures)
    assert all(6 <= len(sig) <= 10 for sig in signatures)
    # Random payloads essentially never match.
    ac = AhoCorasick(signatures)
    hits = sum(ac.contains_any(rng.randbytes(256)) for _ in range(50))
    assert hits <= 1


def test_generate_signatures_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        generate_signatures(rng, 0)
    with pytest.raises(ValueError):
        generate_signatures(rng, 5, min_len=0)
    with pytest.raises(ValueError):
        generate_signatures(rng, 5, min_len=9, max_len=8)
