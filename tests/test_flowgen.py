"""Traffic generators."""

import random

import pytest

from repro.net import flowgen
from repro.net.flowgen import (
    POPULATION_MEMO_SIZE,
    FlowPopulationTraffic,
    RedundantTraffic,
    ReplaySource,
    UniformRandomTraffic,
)


def test_uniform_random_varies_addresses(rng):
    src = UniformRandomTraffic(rng, payload_bytes=64)
    packets = src.take(50)
    assert len({p.ip.dst for p in packets}) > 40
    assert all(len(p.payload) == 64 for p in packets)


def test_uniform_random_respects_addr_bits(rng):
    src = UniformRandomTraffic(rng, addr_bits=20)
    for p in src.take(100):
        assert p.ip.dst < (1 << 20)
        assert p.ip.src < (1 << 20)


def test_population_draws_from_fixed_set(rng):
    src = FlowPopulationTraffic(rng, n_flows=10)
    tuples = {p.five_tuple() for p in src.take(500)}
    assert len(tuples) <= 10
    assert len(tuples) >= 8  # nearly all flows seen


@pytest.fixture
def cold_population_memo():
    flowgen._POPULATION_MEMO.clear()
    yield flowgen._POPULATION_MEMO
    flowgen._POPULATION_MEMO.clear()


def test_population_memo_shares_and_replays_rng_state(cold_population_memo):
    cold_rng = random.Random(3)
    cold = FlowPopulationTraffic(cold_rng, n_flows=50, addr_bits=24)
    warm_rng = random.Random(3)
    warm = FlowPopulationTraffic(warm_rng, n_flows=50, addr_bits=24)
    assert warm.population is cold.population
    assert warm_rng.getstate() == cold_rng.getstate()
    assert [p.five_tuple() for p in warm.take(40)] \
        == [p.five_tuple() for p in cold.take(40)]
    cold_population_memo.clear()
    fresh = FlowPopulationTraffic(random.Random(3), n_flows=50, addr_bits=24)
    assert fresh.population == cold.population


def test_population_memo_misses_on_input_change_and_is_bounded(
        cold_population_memo):
    base = FlowPopulationTraffic(random.Random(3), n_flows=50, addr_bits=24)
    for rng, n_flows, bits in ((random.Random(4), 50, 24),
                               (random.Random(3), 51, 24),
                               (random.Random(3), 50, 25)):
        other = FlowPopulationTraffic(rng, n_flows=n_flows, addr_bits=bits)
        assert other.population is not base.population
    assert len(cold_population_memo) == 4
    for seed in range(POPULATION_MEMO_SIZE + 4):
        FlowPopulationTraffic(random.Random(100 + seed), n_flows=4)
    assert len(cold_population_memo) == POPULATION_MEMO_SIZE


def test_population_rejects_empty(rng):
    with pytest.raises(ValueError):
        FlowPopulationTraffic(rng, n_flows=0)


def test_redundant_traffic_repeats_content(rng):
    src = RedundantTraffic(rng, redundancy=0.8, payload_bytes=32)
    payloads = [p.payload for p in src.take(300)]
    distinct = len(set(payloads))
    assert distinct < 150  # heavy reuse
    assert all(len(pl) == 32 for pl in payloads)


def test_redundant_traffic_zero_redundancy(rng):
    src = RedundantTraffic(rng, redundancy=0.0, payload_bytes=32)
    payloads = [p.payload for p in src.take(100)]
    assert len(set(payloads)) == 100


def test_redundant_rejects_bad_fraction(rng):
    with pytest.raises(ValueError):
        RedundantTraffic(rng, redundancy=1.5)


def test_replay_cycles(rng):
    base = UniformRandomTraffic(rng).take(5)
    src = ReplaySource(base, cycle=True)
    replayed = src.take(12)
    assert replayed[0] is base[0]
    assert replayed[5] is base[0]
    assert replayed[11] is base[1]


def test_replay_exhausts_when_not_cycling(rng):
    src = ReplaySource(UniformRandomTraffic(rng).take(3), cycle=False)
    src.take(3)
    with pytest.raises(StopIteration):
        src.next_packet()


def test_replay_rejects_empty():
    with pytest.raises(ValueError):
        ReplaySource([])


def test_replay_from_sources(rng):
    a = UniformRandomTraffic(rng)
    b = FlowPopulationTraffic(rng, n_flows=3)
    src = ReplaySource.from_sources([a, b], n_each=4)
    assert len(src.packets) == 8


def test_sources_are_deterministic_per_seed():
    def dsts(seed):
        src = UniformRandomTraffic(random.Random(seed))
        return [p.ip.dst for p in src.take(20)]

    assert dsts(9) == dsts(9)
    assert dsts(9) != dsts(10)


def test_iteration_protocol(rng):
    src = UniformRandomTraffic(rng)
    it = iter(src)
    assert next(it).wire_length > 0
