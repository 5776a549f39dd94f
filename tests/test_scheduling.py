"""Placement enumeration and the scheduling study."""

import pytest

from repro.core.prediction import ContentionPredictor, SensitivityCurve
from repro.core.profiler import SoloProfile
from repro.core.scheduling import PlacementStudy, StudyResult, enumerate_splits
from repro.hw.topology import PlatformSpec
from repro.sweep import SweepOptions, SweepRunner


def test_enumerate_two_type_splits():
    flows = ["A"] * 6 + ["B"] * 6
    splits = enumerate_splits(flows, per_socket=6)
    # k of A on socket 0, k = 0..6, folded by symmetry -> 4 distinct splits.
    assert len(splits) == 4
    keys = {tuple(sorted((s[0].count("A"), s[1].count("A")))) for s in splits}
    assert keys == {(0, 6), (1, 5), (2, 4), (3, 3)}


def test_enumerate_uniform_combination_has_one_split():
    splits = enumerate_splits(["A"] * 12, per_socket=6)
    assert len(splits) == 1


def test_enumerate_rejects_wrong_count():
    with pytest.raises(ValueError):
        enumerate_splits(["A"] * 10, per_socket=6)


def test_enumerate_preserves_multiset():
    flows = ["A"] * 4 + ["B"] * 4 + ["C"] * 4
    for left, right in enumerate_splits(flows, per_socket=6):
        assert len(left) == len(right) == 6
        assert sorted(left + right) == sorted(flows)


def profile(app, refs, throughput=1e6):
    return SoloProfile(
        app=app, throughput=throughput, cycles_per_instruction=1.0,
        l3_refs_per_sec=refs, l3_hits_per_sec=refs * 0.7,
        cycles_per_packet=1000, l3_refs_per_packet=5,
        l3_misses_per_packet=1, l2_hits_per_packet=2,
    )


def make_study():
    spec = PlatformSpec.westmere().scaled(32)
    profiles = {
        "HOT": profile("HOT", refs=20e6),   # aggressive & sensitive
        "COLD": profile("COLD", refs=1e6),  # neither
    }
    curves = {
        # HOT suffers with competition, COLD barely.
        "HOT": SensitivityCurve("HOT", [(20e6, 0.10), (100e6, 0.30)]),
        "COLD": SensitivityCurve("COLD", [(100e6, 0.02)]),
    }
    predictor = ContentionPredictor(profiles, curves)
    return PlacementStudy(spec, profiles, predictor=predictor)


def test_predict_study_identifies_balanced_best():
    study = make_study()
    result = study.run(["HOT"] * 6 + ["COLD"] * 6, method="predict")
    assert isinstance(result, StudyResult)
    # Worst: all HOT together; best: spread 3/3.
    worst_counts = sorted(g.count("HOT") for g in result.worst.split)
    best_counts = sorted(g.count("HOT") for g in result.best.split)
    assert worst_counts == [0, 6]
    assert best_counts == [3, 3]
    assert result.scheduling_gain > 0


def test_predict_requires_predictor():
    spec = PlatformSpec.westmere().scaled(32)
    study = PlacementStudy(spec, profiles={})
    with pytest.raises(RuntimeError):
        study.predict_split((("A",) * 6, ("A",) * 6))


def test_study_rejects_single_socket():
    with pytest.raises(ValueError):
        PlacementStudy(PlatformSpec.westmere().single_socket(), profiles={})


def test_unknown_method_rejected():
    study = make_study()
    with pytest.raises(ValueError):
        study.run(["HOT"] * 12, method="guess")


def test_max_splits_prefilters_with_predictor():
    study = make_study()
    flows = ["HOT"] * 6 + ["COLD"] * 6
    # Force the prefilter path; it must still find best/worst extremes.
    result = study.run(flows, method="predict")
    all_gain = result.scheduling_gain
    assert all_gain >= 0


def test_max_splits_prefilter_requires_predictor():
    spec = PlatformSpec.westmere().scaled(32)
    study = PlacementStudy(spec, profiles={
        "HOT": profile("HOT", refs=20e6),
        "COLD": profile("COLD", refs=1e6),
    })
    # 6 HOT + 6 COLD has 4 distinct splits; capping below that needs a
    # predictor to pre-rank them.
    with pytest.raises(RuntimeError, match="predictor"):
        study.run(["HOT"] * 6 + ["COLD"] * 6, method="simulate",
                  max_splits=2)


# -- coverage: degenerate combinations ----------------------------------------

def test_single_pair_has_one_split():
    # One flow per socket: only one distinct placement exists.
    assert enumerate_splits(["A", "B"], per_socket=1) == [(("A",), ("B",))]


def test_more_flows_than_cores_rejected():
    study = make_study()
    with pytest.raises(ValueError, match="flows"):
        study.run(["HOT"] * 14, method="predict")


def test_oversized_split_group_rejected():
    study = make_study()
    with pytest.raises(ValueError, match="socket"):
        study.grid([(("HOT",) * 7, ("HOT",) * 5)])


def test_all_identical_flows_give_zero_scheduling_gain():
    study = make_study()
    result = study.run(["HOT"] * 12, method="predict")
    assert len(result.outcomes) == 1
    assert result.best is result.worst
    assert result.scheduling_gain == 0.0


# -- coverage: simulated study, inline vs. worker pool ------------------------

def simulation_study():
    spec = PlatformSpec.westmere().scaled(64)
    return PlacementStudy(spec, profiles={"MON": profile("MON", refs=5e6)},
                          warmup_packets=80, measure_packets=80)


def test_all_identical_flows_simulated_one_split_zero_gain():
    result = simulation_study().run(["MON"] * 12, method="simulate")
    assert len(result.outcomes) == 1
    assert result.scheduling_gain == 0.0
    assert set(result.best.per_flow_drop) == {f"MON@{i}" for i in range(12)}


def test_sharded_simulation_matches_serial():
    serial = simulation_study().run(["MON"] * 12, method="simulate")
    sharded = simulation_study().run(
        ["MON"] * 12, method="simulate",
        runner=SweepRunner(SweepOptions(jobs=2)))
    assert [o.split for o in sharded.outcomes] \
        == [o.split for o in serial.outcomes]
    assert [o.per_flow_drop for o in sharded.outcomes] \
        == [o.per_flow_drop for o in serial.outcomes]
    assert [o.average_drop for o in sharded.outcomes] \
        == [o.average_drop for o in serial.outcomes]
