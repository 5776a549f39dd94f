"""Set-associative LRU cache behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cache import SetAssociativeCache


#: ``SetAssociativeCache(hashed=...)``: list sets, then dict sets.
LAYOUTS = (False, True)


def small_cache(ways=2, sets=4, hashed=False):
    return SetAssociativeCache(size=ways * sets * 64, ways=ways, name="t",
                               hashed=hashed)


def test_geometry():
    c = SetAssociativeCache(size=32 * 1024, ways=8)
    assert c.n_sets == 64
    assert c.capacity_lines == 512


def test_non_power_of_two_sets_allowed():
    # The real Westmere L3 (12 MB, 16-way) has 12288 sets.
    c = SetAssociativeCache(size=12 * 1024 * 1024, ways=16)
    assert c.n_sets == 12288


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SetAssociativeCache(size=0, ways=4)
    with pytest.raises(ValueError):
        SetAssociativeCache(size=1000, ways=3)  # not divisible


def test_miss_then_hit():
    c = small_cache()
    assert c.access(10) is False
    assert c.access(10) is True
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = small_cache(ways=2, sets=1)
    c.access(0)
    c.access(1)
    c.access(0)      # 1 is now LRU
    c.access(2)      # evicts 1
    assert c.probe(0)
    assert c.probe(2)
    assert not c.probe(1)


def test_sets_are_independent():
    c = small_cache(ways=1, sets=4)
    c.access(0)
    c.access(1)
    c.access(2)
    assert c.probe(0) and c.probe(1) and c.probe(2)
    c.access(4)  # maps to set 0, evicts line 0
    assert not c.probe(0)
    assert c.probe(1)


def test_fill_does_not_count_reference():
    c = small_cache()
    evicted = c.fill(5)
    assert evicted is None
    assert c.hits == 0 and c.misses == 0
    assert c.probe(5)


def test_fill_returns_evicted_line():
    c = small_cache(ways=1, sets=1)
    c.fill(0)
    assert c.fill(1) == 0


def test_invalidate():
    c = small_cache()
    c.access(3)
    assert c.invalidate(3)
    assert not c.probe(3)
    assert not c.invalidate(3)


def test_flush():
    c = small_cache()
    for line in range(8):
        c.access(line)
    c.flush()
    assert c.occupancy() == 0
    assert c.hits == 0 and c.misses == 0


def test_occupancy_and_capacity():
    c = small_cache(ways=2, sets=4)
    for line in range(100):
        c.access(line)
    assert c.occupancy() == c.capacity_lines == 8


def test_hit_rate():
    c = small_cache()
    assert c.hit_rate() == 0.0
    c.access(1)
    c.access(1)
    assert c.hit_rate() == pytest.approx(0.5)


def test_resident_lines():
    c = small_cache(ways=2, sets=1)
    c.access(0)
    c.access(1)
    assert sorted(c.resident_lines()) == [0, 1]


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=300))
@settings(max_examples=50, deadline=None)
def test_property_occupancy_never_exceeds_capacity(lines):
    c = small_cache(ways=2, sets=4)
    for line in lines:
        c.access(line)
    assert c.occupancy() <= c.capacity_lines
    for s in c.sets:
        assert len(s) <= c.ways
        assert len(set(s)) == len(s)  # no duplicates within a set


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_most_recent_line_always_resident(lines):
    c = small_cache(ways=2, sets=2)
    for line in lines:
        c.access(line)
        assert c.probe(line)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=400))
@settings(max_examples=30, deadline=None)
def test_property_matches_reference_lru_model(lines):
    """The cache must agree with a straightforward per-set LRU model,
    set by set in LRU order, on both set layouts."""
    ways, sets = 4, 4
    for hashed in LAYOUTS:
        c = small_cache(ways=ways, sets=sets, hashed=hashed)
        model = {s: [] for s in range(sets)}
        for line in lines:
            s = line % sets
            expect_hit = line in model[s]
            assert c.access(line) == expect_hit
            if expect_hit:
                model[s].remove(line)
            model[s].append(line)
            if len(model[s]) > ways:
                model[s].pop(0)
        for s in range(sets):
            assert list(c.sets[s]) == model[s]


@pytest.mark.parametrize("hashed", LAYOUTS, ids=("list", "dict"))
def test_layout_victim_and_refill_order(hashed):
    """fill evicts the LRU line; an invalidated line refills as MRU."""
    c = small_cache(ways=3, sets=1, hashed=hashed)
    for line in (0, 1, 2):
        assert c.fill(line) is None
    assert c.access(0)                  # order 1, 2, 0
    assert c.fill(3) == 1               # order 2, 0, 3
    assert c.invalidate(0)
    assert list(c.sets[0]) == [2, 3]
    assert c.fill(0) is None            # order 2, 3, 0
    assert c.fill(4) == 2
    assert list(c.sets[0]) == [3, 0, 4]
    assert c.occupancy() == 3 and c.validate() == []
