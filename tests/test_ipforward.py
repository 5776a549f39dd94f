"""IP forwarding elements: lookup and TTL/checksum."""

import random

import pytest

from repro.apps.ipforward import DecIPTTL, RadixIPLookup
from repro.apps.radixtrie import RadixTrie
from repro.apps.registry import app_factory
from repro.fastpath import use_engine
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.mem.access import AccessContext
from repro.net.checksum import internet_checksum
from repro.net.packet import Packet
from tests.conftest import make_env


def make_lookup(routes):
    trie = RadixTrie()
    for prefix, plen, hop in routes:
        trie.insert(prefix, plen, hop)
    element = RadixIPLookup(trie=trie)
    element.initialize(make_env())
    return element


def test_lookup_annotates_next_hop():
    element = make_lookup([(0x0A000000, 8, 3)])
    pkt = Packet.udp(src=1, dst=0x0A010203)
    out = element.process(AccessContext(), pkt)
    assert out.annotations["next_hop"] == 3
    assert element.lookups == 1


def test_lookup_drops_unroutable():
    element = make_lookup([(0x0A000000, 8, 3)])
    pkt = Packet.udp(src=1, dst=0x0B000000)
    assert element.process(AccessContext(), pkt) is None
    assert element.no_route == 1


def test_lookup_records_trie_references():
    element = make_lookup([(0x0A000000, 8, 1), (0x0A010000, 16, 2)])
    ctx = AccessContext()
    element.process(ctx, Packet.udp(src=1, dst=0x0A010203))
    region_lines = set(range(element.region.base >> 6,
                             element.region.end >> 6))
    assert ctx.n_references >= 2
    assert all(line in region_lines for line in ctx.lines_touched())


def test_lookup_builds_scaled_table_by_default():
    env = make_env()
    element = RadixIPLookup()
    element.initialize(env)
    assert element.trie.n_routes >= env.spec.scale_table(128_000)
    assert element.region.size == \
        ((element.trie.total_bytes + 63) // 64) * 64


def test_lookup_requires_initialize():
    with pytest.raises(RuntimeError):
        RadixIPLookup().process(AccessContext(), Packet.udp(src=1, dst=2))


def test_dec_ttl_decrements_and_updates_checksum():
    element = DecIPTTL()
    pkt = Packet.udp(src=1, dst=2, ttl=64, compute_checksum=True)
    assert pkt.ip.is_valid()
    out = element.process(AccessContext(), pkt)
    assert out.ip.ttl == 63
    # The incrementally updated checksum must equal a full recompute.
    assert out.ip.checksum == out.ip.compute_checksum()
    assert out.ip.is_valid()


def test_dec_ttl_drops_expiring():
    element = DecIPTTL()
    pkt = Packet.udp(src=1, dst=2, ttl=1)
    assert element.process(AccessContext(), pkt) is None
    assert element.expired == 1


def test_dec_ttl_offloaded_checksum_untouched():
    element = DecIPTTL()
    pkt = Packet.udp(src=1, dst=2, ttl=10)
    out = element.process(AccessContext(), pkt)
    assert out.ip.checksum == 0


def test_dec_ttl_repeated_hops():
    element = DecIPTTL()
    pkt = Packet.udp(src=1, dst=2, ttl=5, compute_checksum=True)
    hops = 0
    while True:
        out = element.process(AccessContext(), pkt)
        if out is None:
            break
        hops += 1
        assert out.ip.is_valid()
    assert hops == 4


def _core0_lookup(earlier_apps):
    """MON on core 0 (seed 3), added after ``earlier_apps`` on cores 1..n."""
    machine = Machine(PlatformSpec.westmere().scaled(64), seed=3)
    with use_engine("scalar"):
        for core, app in enumerate(earlier_apps, start=1):
            machine.add_flow(app_factory(app), core=core)
        flow = machine.add_flow(app_factory("MON"), core=0).flow
    return next(e for e in flow.elements if isinstance(e, RadixIPLookup))


def test_shared_trie_on_shifted_layout_differs_only_by_region_base():
    plain = _core0_lookup([])
    shifted = _core0_lookup(["FW", "RE"])
    # Same (seed, core): one routing table, built once and shared.
    assert shifted.trie is plain.trie
    delta = shifted.region.base - plain.region.base
    assert delta > 0 and delta % 64 == 0
    rng = random.Random(17)
    for _ in range(64):
        dst = rng.getrandbits(32)
        programs = []
        for element in (plain, shifted):
            ctx = AccessContext()
            element.process(ctx, Packet.udp(src=1, dst=dst))
            programs.append(ctx.program)
        a, b = programs
        assert len(a) == len(b) > 0
        assert a[0::3] == b[0::3]  # gaps
        assert a[2::3] == b[2::3]  # tags
        assert [line + (delta >> 6) for line in a[1::3]] == b[1::3]
