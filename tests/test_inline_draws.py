"""The generators' inline draws equal the stdlib's, draw for draw.

``SynApp``, ``FlowPopulationTraffic`` and ``RedundantTraffic`` draw their
``randrange(n)``, ``randrange(a, b)`` and ``choice(seq)`` values inline:
``getrandbits(n.bit_length())`` until the value is below ``n``, which is
what ``random.Random`` does for them. Each test runs a generator and a
twin ``random.Random`` in the same state through the stdlib methods, and
requires the same values and the same final ``getstate()``. A stdlib
change to how ``randrange`` draws fails here, not as a moved pin.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.synthetic import SynApp
from repro.constants import CACHE_LINE
from repro.hw.machine import FlowEnv
from repro.hw.topology import PlatformSpec
from repro.mem.access import AccessContext
from repro.mem.allocator import AddressSpace
from repro.net.flowgen import FlowPopulationTraffic, RedundantTraffic

#: 1, 2^k - 1, 2^k and 2^k + 1 for a few k, and the sizes the generators
#: use: a scale-64 flow population (1562), RedundantTraffic's port spans
#: (1023 and 64512).
SIZES = (1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 1562, 64512)
REFS = 40


def _env(scale: int, seed: int) -> FlowEnv:
    spec = PlatformSpec.westmere().scaled(scale)
    return FlowEnv(space=AddressSpace(spec.n_sockets), domain=0, spec=spec,
                   rng=random.Random(seed))


def _twin(rng: random.Random) -> random.Random:
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _check_syn(app: SynApp) -> None:
    n = app.n_lines
    ref = _twin(app.rng)
    ctx = AccessContext()
    for _ in range(6):
        ctx.reset()
        app.run_packet(ctx)
        assert ctx.lines_touched() == [app.region.base // CACHE_LINE
                                       + ref.randrange(n)
                                       for _ in range(REFS)]
    assert app.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_syn_draws_equal_randrange(n):
    app = SynApp(_env(64, n), refs_per_packet=REFS,
                 array_bytes=n * CACHE_LINE)
    assert app.n_lines == n
    _check_syn(app)


@pytest.mark.parametrize("scale", (16, 64))
def test_syn_draws_equal_randrange_at_array_size(scale):
    """The L3-sized array every SYN flow reads, at the tested scales."""
    app = SynApp(_env(scale, scale), refs_per_packet=REFS)
    assert app.n_lines & (app.n_lines - 1)  # not a power of two: rejections
    _check_syn(app)


@pytest.mark.parametrize("n", SIZES)
def test_population_draws_equal_choice(n):
    rng = random.Random(n)
    source = FlowPopulationTraffic(rng, n_flows=n, addr_bits=16)
    ref = _twin(rng)
    for _ in range(200):
        packet = source.next_packet()
        assert (packet.ip.src, packet.ip.dst, packet.l4.sport,
                packet.l4.dport) == ref.choice(source.population)
    assert rng.getstate() == ref.getstate()


def _reference_redundant(rng, pool, source):
    """``RedundantTraffic.next_packet`` through the stdlib methods."""
    if pool and rng.random() < source.redundancy:
        payload = rng.choice(pool)
    else:
        payload = rng.randbytes(source.payload_bytes)
        pool.append(payload)
        if len(pool) > source.pool_size:
            pool.pop(0)
    bits = source.addr_bits
    return (rng.getrandbits(bits), rng.getrandbits(bits),
            rng.randrange(1024, 65536),
            rng.randrange(1, 1024) % source.n_flows + 1, payload)


@pytest.mark.parametrize("pool_size,redundancy,n_flows", [
    (128, 0.35, 4096), (5, 0.8, 4096), (40, 0.5, 300)])
def test_redundant_draws_equal_randrange_and_choice(pool_size, redundancy,
                                                    n_flows):
    rng = random.Random(pool_size)
    source = RedundantTraffic(rng, redundancy=redundancy, payload_bytes=24,
                              pool_size=pool_size, n_flows=n_flows,
                              addr_bits=28)
    ref = _twin(rng)
    pool = []
    for _ in range(600):
        packet = source.next_packet()
        assert (packet.ip.src, packet.ip.dst, packet.l4.sport,
                packet.l4.dport, packet.payload) == _reference_redundant(
                    ref, pool, source)
    assert pool == source.pool
    assert rng.getstate() == ref.getstate()
