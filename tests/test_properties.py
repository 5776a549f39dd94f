"""Cross-cutting property-based tests on core invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.equation1 import drop_from_conversion
from repro.core.model import CacheModel
from repro.core.prediction import SensitivityCurve
from repro.hw.cache import SetAssociativeCache
from repro.mem.access import AccessContext
from repro.mem.allocator import AddressSpace
from repro.net.packet import Packet


# -- Equation 1 ----------------------------------------------------------------

@given(h=st.floats(min_value=0, max_value=1e9),
       kappa=st.floats(min_value=0, max_value=1),
       delta=st.floats(min_value=1, max_value=200))
def test_property_drop_is_a_valid_fraction(h, kappa, delta):
    drop = drop_from_conversion(h, kappa, delta)
    assert 0.0 <= drop < 1.0


@given(h=st.floats(min_value=1e3, max_value=1e9),
       k1=st.floats(min_value=0, max_value=1),
       k2=st.floats(min_value=0, max_value=1))
def test_property_drop_monotone_in_kappa(h, k1, k2):
    lo, hi = sorted((k1, k2))
    assert drop_from_conversion(h, lo) <= drop_from_conversion(h, hi)


# -- Appendix A model -----------------------------------------------------------

@given(
    cache_lines=st.integers(min_value=64, max_value=1_000_000),
    hits=st.floats(min_value=1e3, max_value=1e8),
    chunks=st.integers(min_value=1, max_value=1_000_000),
    r1=st.floats(min_value=0, max_value=5e8),
    r2=st.floats(min_value=0, max_value=5e8),
)
def test_property_model_conversion_monotone_and_bounded(cache_lines, hits,
                                                        chunks, r1, r2):
    model = CacheModel(cache_lines=cache_lines, target_hits_per_sec=hits,
                       working_set_chunks=chunks)
    lo, hi = sorted((r1, r2))
    c_lo, c_hi = model.conversion_rate(lo), model.conversion_rate(hi)
    assert 0.0 <= c_lo <= c_hi <= 1.0


# -- sensitivity curves -----------------------------------------------------------

@st.composite
def curve_points(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    xs = sorted(draw(st.lists(
        st.floats(min_value=1e5, max_value=3e8), min_size=n, max_size=n,
        unique=True)))
    ys = draw(st.lists(st.floats(min_value=0, max_value=0.9), min_size=n,
                       max_size=n))
    return list(zip(xs, ys))


@given(points=curve_points(), x=st.floats(min_value=0, max_value=5e8))
def test_property_curve_prediction_within_range(points, x):
    curve = SensitivityCurve("X", points)
    value = curve.predict(x)
    ys = [y for _, y in curve.points]
    assert min(ys) - 1e-12 <= value <= max(ys) + 1e-12


@given(points=curve_points())
def test_property_curve_exact_at_knots(points):
    curve = SensitivityCurve("X", points)
    for x, y in points:
        assert curve.predict(x) == pytest.approx(y, abs=1e-9)


@st.composite
def monotone_curve_points(draw):
    """Sensitivity-shaped curves: unique sorted refs, non-decreasing drops.

    Measured sensitivity curves are (noise aside) non-decreasing — more
    competition never helps — so the prediction-method properties below
    are stated over this shape.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    xs = sorted(draw(st.lists(
        st.floats(min_value=1e5, max_value=3e8), min_size=n, max_size=n,
        unique=True)))
    steps = draw(st.lists(st.floats(min_value=0, max_value=0.2), min_size=n,
                          max_size=n))
    ys, total = [], 0.0
    for step in steps:
        total = min(0.95, total + step)
        ys.append(total)
    return list(zip(xs, ys))


@given(points=monotone_curve_points(),
       x1=st.floats(min_value=0, max_value=1e9),
       x2=st.floats(min_value=0, max_value=1e9))
def test_property_curve_lookup_monotone_in_competing_refs(points, x1, x2):
    curve = SensitivityCurve("X", points)
    lo, hi = sorted((x1, x2))
    assert curve.predict(lo) <= curve.predict(hi) + 1e-12


@given(points=monotone_curve_points(),
       refs=st.lists(st.floats(min_value=0, max_value=5e7), min_size=1,
                     max_size=8))
def test_property_removing_a_competitor_never_raises_prediction(points, refs):
    """The method evaluates the curve at the *sum* of competing solo
    refs/sec, so dropping any competitor can only lower the prediction."""
    curve = SensitivityCurve("X", points)
    assert (curve.predict(sum(refs[:-1]))
            <= curve.predict(sum(refs)) + 1e-12)


@given(points=monotone_curve_points(), x=st.floats(min_value=0, max_value=1e9))
def test_property_curve_bounded_and_clamped_by_endpoints(points, x):
    curve = SensitivityCurve("X", points)
    value = curve.predict(x)
    assert float(curve.drops[0]) - 1e-12 <= value \
        <= float(curve.drops[-1]) + 1e-12
    # Past the highest measured level the curve is flat (paper obs. (c)).
    top = float(curve.refs[-1])
    assert curve.predict(2 * top + 1.0) \
        == pytest.approx(float(curve.drops[-1]), abs=1e-12)


@given(points=monotone_curve_points())
def test_property_curve_exact_at_measured_points_and_origin(points):
    curve = SensitivityCurve("X", points)
    # Zero competition means zero drop: the auto-inserted origin.
    assert curve.predict(0.0) == 0.0
    for x, y in points:
        assert curve.predict(x) == pytest.approx(y, abs=1e-9)


@given(x=st.floats(min_value=-1e9, max_value=-1e-9))
def test_property_curve_rejects_negative_competition(x):
    curve = SensitivityCurve("X", [(1e6, 0.1)])
    with pytest.raises(ValueError):
        curve.predict(x)


# -- cache vs. fill/invalidate interplay --------------------------------------------

@given(st.lists(
    st.tuples(st.sampled_from(["access", "fill", "invalidate"]),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=300,
))
@settings(max_examples=40, deadline=None)
def test_property_cache_state_consistent_under_mixed_ops(ops):
    for hashed in (False, True):        # list sets, then dict sets
        _check_mixed_ops(ops, SetAssociativeCache(
            size=4 * 64 * 2, ways=2, name="t", hashed=hashed))


def _check_mixed_ops(ops, cache):
    resident = {s: [] for s in range(cache.n_sets)}
    for op, line in ops:
        s = line % cache.n_sets
        if op == "access":
            hit = cache.access(line)
            assert hit == (line in resident[s])
            if hit:
                resident[s].remove(line)
            resident[s].append(line)
            if len(resident[s]) > 2:
                resident[s].pop(0)
        elif op == "fill":
            evicted = cache.fill(line)
            if line in resident[s]:
                resident[s].remove(line)
                assert evicted is None
            resident[s].append(line)
            if len(resident[s]) > 2:
                assert evicted == resident[s].pop(0)
        else:
            was_there = line in resident[s]
            assert cache.invalidate(line) == was_there
            if was_there:
                resident[s].remove(line)
    for s in range(cache.n_sets):
        assert list(cache.sets[s]) == resident[s]


# -- flow hash ---------------------------------------------------------------------

@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFFFFFFF),
              st.integers(min_value=0, max_value=0xFFFFFFFF),
              st.integers(min_value=0, max_value=0xFFFF),
              st.integers(min_value=0, max_value=0xFFFF)),
    min_size=20, max_size=60, unique=True,
))
@settings(max_examples=20, deadline=None)
def test_property_flow_hash_spreads(tuples):
    """Distinct 5-tuples rarely collide in the low bits (RSS quality)."""
    buckets = {Packet.udp(src=s, dst=d, sport=sp, dport=dp).flow_hash() % 64
               for s, d, sp, dp in tuples}
    assert len(buckets) >= min(len(tuples), 64) // 4


# -- access programs ------------------------------------------------------------------

@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=500),
              st.integers(min_value=0, max_value=4000),
              st.integers(min_value=1, max_value=100)),
    min_size=1, max_size=40,
))
def test_property_program_preserves_gap_budget(steps):
    """Total recorded compute equals the compute issued."""
    space = AddressSpace(1)
    region = space.alloc(8192, "r")
    ctx = AccessContext()
    issued = 0
    for gap, offset, length in steps:
        ctx.compute(gap, 1)
        issued += gap
        ctx.touch(region, offset % 4096, min(length, 4096), 0)
    ctx.compute(17, 1)
    issued += 17
    ctx.finish_packet()
    assert ctx.total_gap_cycles() == issued
    # Program layout is a flat multiple of 3.
    assert len(ctx.program) % 3 == 0


# -- determinism across identical machines ----------------------------------------------

def test_property_seeded_rngs_are_stable():
    from repro.hw.machine import Machine
    from repro.hw.topology import PlatformSpec

    spec = PlatformSpec.westmere().scaled(64)

    def lines(seed):
        machine = Machine(spec, seed=seed)

        class Probe:
            name = "p"

            def __init__(self, env):
                self.rng = env.rng

            def run_packet(self, ctx):
                ctx.compute(10, 1)
                ctx.touch_line(self.rng.randrange(1000))
                return None

        machine.add_flow(Probe, core=0, label="p")
        machine.run(warmup_packets=50, measure_packets=50)
        return machine.flows[0].counters.l3_refs

    assert lines(1) == lines(1)
