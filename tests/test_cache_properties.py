"""Property-based invariants for the set-associative LRU cache model.

The properties hold for *any* access sequence, so they are checked two
ways: with `hypothesis` when the environment provides it (shrinking
counterexamples beats staring at a 400-line trace), and always with a
spread of seeded-random sequences so CI images without hypothesis still
exercise the same checkers.

Invariants under test:

* ``hits + misses`` equals the number of ``access()`` calls, across any
  interleaving with ``fill``/``probe``/``invalidate`` (which must not
  count references).
* No cache set ever holds more than ``ways`` lines — eviction is
  bounded by the associativity, and total occupancy by capacity.
* The model agrees exactly with an independent reference LRU: hit or
  miss, ``fill``'s victim, and each set's iteration (LRU) order.
* The warm solo hit rate of a cyclic sweep is monotonically
  non-increasing in the working-set size (the shape behind the paper's
  cache-sensitivity curves).

Every checker runs on both set layouts (:data:`LAYOUTS`): the list the
machine gives private caches and the insertion-ordered dict it gives
the shared L3.
"""

from __future__ import annotations

import random

import pytest

from repro.constants import CACHE_LINE
from repro.hw.cache import SetAssociativeCache

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


#: ``SetAssociativeCache(hashed=...)``: list sets, then dict sets.
LAYOUTS = (False, True)


def small_cache(hashed: bool = False) -> SetAssociativeCache:
    """4 sets x 4 ways — small enough that random traffic evicts."""
    return SetAssociativeCache(size=4 * 4 * CACHE_LINE, ways=4, name="t",
                               hashed=hashed)


class ReferenceLRU:
    """Independent oracle: per-set list, LRU-first (mirrors the spec,
    not the implementation)."""

    def __init__(self, n_sets: int, ways: int):
        self.n_sets = n_sets
        self.ways = ways
        self.sets = {i: [] for i in range(n_sets)}

    def access(self, line: int) -> bool:
        return self.fill(line)[0]

    def fill(self, line: int):
        """(hit, evicted line or None)."""
        s = self.sets[line % self.n_sets]
        hit = line in s
        if hit:
            s.remove(line)
        s.append(line)
        victim = s.pop(0) if len(s) > self.ways else None
        return hit, victim

    def invalidate(self, line: int) -> None:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.remove(line)


# ---------------------------------------------------------------------------
# Core checkers (shared by the hypothesis and the seeded-random paths).
# Each op is (kind, line) with kind in {"access", "fill", "probe", "inval"}.
# ---------------------------------------------------------------------------


def check_counter_conservation(ops) -> None:
    for hashed in LAYOUTS:
        _check_counter_conservation(ops, small_cache(hashed))


def _check_counter_conservation(ops, cache) -> None:
    n_accesses = 0
    for kind, line in ops:
        if kind == "access":
            cache.access(line)
            n_accesses += 1
        elif kind == "fill":
            cache.fill(line)
        elif kind == "probe":
            cache.probe(line)
        else:
            cache.invalidate(line)
        assert cache.hits + cache.misses == n_accesses, (
            f"after {kind}({line}): hits({cache.hits}) + "
            f"misses({cache.misses}) != accesses({n_accesses})")
    cache.flush()
    assert cache.hits == cache.misses == 0
    assert cache.occupancy() == 0


def check_bounded_occupancy(ops) -> None:
    for hashed in LAYOUTS:
        _check_bounded_occupancy(ops, small_cache(hashed))


def _check_bounded_occupancy(ops, cache) -> None:
    for kind, line in ops:
        if kind == "access":
            cache.access(line)
        elif kind == "fill":
            evicted = cache.fill(line)
            if evicted is not None:
                assert not cache.probe(evicted) or evicted % cache.n_sets \
                    != line % cache.n_sets, "evicted line still resident"
        elif kind == "probe":
            cache.probe(line)
        else:
            cache.invalidate(line)
        for s in cache.sets:
            assert len(s) <= cache.ways, (
                f"set overflow after {kind}({line}): {len(s)} > {cache.ways}")
        assert cache.occupancy() <= cache.capacity_lines


def check_against_oracle(ops) -> None:
    for hashed in LAYOUTS:
        _check_against_oracle(ops, small_cache(hashed))


def _check_against_oracle(ops, cache) -> None:
    oracle = ReferenceLRU(cache.n_sets, cache.ways)
    for kind, line in ops:
        if kind == "access":
            assert cache.access(line) == oracle.access(line), (
                f"hit/miss disagreement at access({line})")
        elif kind == "fill":
            # fill = access without counting; same victim.
            assert cache.fill(line) == oracle.fill(line)[1], (
                f"victim disagreement at fill({line})")
        elif kind == "probe":
            assert cache.probe(line) == (
                line in oracle.sets[line % oracle.n_sets])
        else:
            cache.invalidate(line)
            oracle.invalidate(line)
        idx = line % cache.n_sets
        assert list(cache.sets[idx]) == oracle.sets[idx], (
            f"LRU order disagreement in set {idx} after {kind}({line})")
    assert [list(s) for s in cache.sets] == [
        oracle.sets[idx] for idx in range(cache.n_sets)]


CHECKERS = (check_counter_conservation, check_bounded_occupancy,
            check_against_oracle)

KINDS = ("access", "access", "access", "fill", "probe", "inval")


def random_ops(seed: int, n: int = 400, line_space: int = 48):
    rng = random.Random(seed)
    return [(rng.choice(KINDS), rng.randrange(line_space))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# Seeded-random path: always runs.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 999331])
def test_invariants_random(checker, seed):
    checker(random_ops(seed))


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_invariants_adversarial(checker):
    """Same-set traffic: every op lands in set 0 (worst-case eviction)."""
    rng = random.Random(42)
    n_sets = small_cache().n_sets
    ops = [(rng.choice(KINDS), n_sets * rng.randrange(12))
           for _ in range(400)]
    checker(ops)


# ---------------------------------------------------------------------------
# Hypothesis path: richer sequences + shrinking, when available.
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    op_strategy = st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 63)),
        max_size=300)

    @settings(max_examples=60, deadline=None)
    @given(ops=op_strategy)
    def test_counter_conservation_hypothesis(ops):
        check_counter_conservation(ops)

    @settings(max_examples=60, deadline=None)
    @given(ops=op_strategy)
    def test_bounded_occupancy_hypothesis(ops):
        check_bounded_occupancy(ops)

    @settings(max_examples=60, deadline=None)
    @given(ops=op_strategy)
    def test_oracle_agreement_hypothesis(ops):
        check_against_oracle(ops)


# ---------------------------------------------------------------------------
# Warm-sweep monotonicity: the cache-sensitivity shape.
# ---------------------------------------------------------------------------


def warm_hit_rate(cache: SetAssociativeCache, n_lines: int,
                  sweeps: int = 4) -> float:
    """Hit rate of cyclic sweeps over ``n_lines`` after one warmup sweep."""
    for line in range(n_lines):
        cache.access(line)
    cache.hits = cache.misses = 0
    for _ in range(sweeps):
        for line in range(n_lines):
            cache.access(line)
    return cache.hit_rate()


def test_warm_hit_rate_monotone_in_working_set():
    cap = small_cache().capacity_lines
    sizes = [1, cap // 4, cap // 2, cap, cap + cap // 4,
             2 * cap, 4 * cap]
    rates = [warm_hit_rate(small_cache(), n) for n in sizes]
    for n, hi, lo in zip(sizes, rates, rates[1:]):
        assert hi >= lo - 1e-12, (
            f"hit rate rose when working set grew past {n} lines: "
            f"{list(zip(sizes, rates))}")
    # The endpoints pin the curve: fits-in-cache => all hits,
    # LRU thrashing at 4x capacity => all misses.
    assert rates[0] == 1.0
    assert sizes[3] == cap and rates[3] == 1.0
    assert rates[-1] == 0.0


def test_warm_hit_rate_fits_iff_within_ways():
    """Any contiguous working set that keeps every set within its
    associativity is hit-only once warm, regardless of cache shape."""
    for ways, n_sets in [(1, 8), (2, 4), (8, 2), (4, 16)]:
        cache = SetAssociativeCache(size=ways * n_sets * CACHE_LINE,
                                    ways=ways, name="shape")
        assert warm_hit_rate(cache, cache.capacity_lines) == 1.0
        cache.flush()
        assert warm_hit_rate(cache, cache.capacity_lines + n_sets) < 1.0
