"""Firewall: rule semantics and the vectorized fast path."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import firewall
from repro.apps.firewall import (
    RULES_MEMO_SIZE,
    Firewall,
    Rule,
    generate_unmatchable_rules,
)
from repro.mem.access import AccessContext
from repro.net.addresses import prefix_mask
from repro.net.packet import Packet
from tests.conftest import make_env


def packet(src=0x0A000001, dst=0x0B000001, dport=80, proto_tcp=False):
    make = Packet.tcp if proto_tcp else Packet.udp
    return make(src=src, dst=dst, dport=dport)


def test_rule_matching_fields():
    rule = Rule(src_net=0x0A000000, src_mask=prefix_mask(8),
                dst_net=0x0B000000, dst_mask=prefix_mask(8),
                dport_lo=80, dport_hi=90, protocol=17)
    assert rule.matches(packet())
    assert not rule.matches(packet(src=0x0C000001))
    assert not rule.matches(packet(dst=0x0C000001))
    assert not rule.matches(packet(dport=91))
    assert not rule.matches(packet(proto_tcp=True))


def test_rule_wildcard_protocol():
    rule = Rule(src_net=0, src_mask=0, dst_net=0, dst_mask=0,
                dport_lo=0, dport_hi=65535, protocol=None)
    assert rule.matches(packet())
    assert rule.matches(packet(proto_tcp=True))


def test_unmatchable_rules_require_class_e_sources():
    rules = generate_unmatchable_rules(random.Random(0), 200)
    assert len(rules) == 200
    for rule in rules:
        # The masked source network sits in 240.0.0.0/4 whenever the mask
        # covers the top nibble.
        if rule.src_mask & 0xF0000000 == 0xF0000000:
            assert rule.src_net >> 28 == 0xF


@pytest.fixture
def cold_rules_memo():
    firewall._RULES_MEMO.clear()
    yield firewall._RULES_MEMO
    firewall._RULES_MEMO.clear()


def _fields(rules):
    return [(r.src_net, r.src_mask, r.dst_net, r.dst_mask, r.dport_lo,
             r.dport_hi, r.protocol) for r in rules]


def test_rules_memo_shares_rules_and_replays_rng_state(cold_rules_memo):
    cold_rng = random.Random(5)
    cold = generate_unmatchable_rules(cold_rng, 120)
    warm_rng = random.Random(5)
    warm = generate_unmatchable_rules(warm_rng, 120)
    assert warm is not cold                  # callers get their own list
    assert all(a is b for a, b in zip(warm, cold))
    assert warm_rng.getstate() == cold_rng.getstate()
    assert len(cold_rules_memo) == 1
    # A memo hit builds exactly what a cold build does.
    cold_rules_memo.clear()
    assert _fields(generate_unmatchable_rules(random.Random(5), 120)) \
        == _fields(cold)


def test_rules_memo_misses_on_input_change_and_is_bounded(cold_rules_memo):
    base = generate_unmatchable_rules(random.Random(5), 120)
    assert generate_unmatchable_rules(random.Random(5), 121)[0] is not base[0]
    assert generate_unmatchable_rules(random.Random(6), 120)[0] is not base[0]
    assert len(cold_rules_memo) == 3
    for seed in range(RULES_MEMO_SIZE + 4):
        generate_unmatchable_rules(random.Random(100 + seed), 4)
    assert len(cold_rules_memo) == RULES_MEMO_SIZE


def test_firewalls_share_memoized_rule_columns(cold_rules_memo):
    # Two FW flows built from the same RNG state share the rule set and
    # its columns, which stay read-only and evaluate as Rule.matches.
    first = Firewall(n_rules=200)
    first.initialize(make_env(seed=3))
    second = Firewall(n_rules=200)
    second.initialize(make_env(seed=3))
    assert len(cold_rules_memo) == 1
    assert second.rules is not first.rules
    assert all(a is b for a, b in zip(first.rules, second.rules))
    assert second._vec is first._vec
    assert not first._vec["src_mask"].flags.writeable
    rng = random.Random(11)
    for _ in range(50):
        pkt = packet(src=rng.choice((rng.getrandbits(32),
                                     first.rules[rng.randrange(200)].src_net)),
                     dst=rng.getrandbits(32), dport=rng.randrange(65536))
        expected = next((i for i, rule in enumerate(first.rules)
                         if rule.matches(pkt)), None)
        assert first.first_match(pkt) == second.first_match(pkt) == expected


def make_firewall(n_rules=100, seed=1):
    fw = Firewall(n_rules=n_rules)
    fw.initialize(make_env(seed=seed))
    return fw


def test_nonmatching_packet_passes_and_scans_all():
    fw = make_firewall()
    ctx = AccessContext()
    out = fw.process(ctx, packet())
    assert out is not None
    assert fw.blocked == 0
    assert ctx.n_references > 0


def test_matching_packet_dropped():
    env = make_env()
    block_all = Rule(src_net=0, src_mask=0, dst_net=0, dst_mask=0,
                     dport_lo=0, dport_hi=65535, protocol=None)
    fw = Firewall(rules=[block_all])
    fw.initialize(env)
    assert fw.process(AccessContext(), packet()) is None
    assert fw.blocked == 1


def test_first_match_agrees_with_reference_rules():
    fw = make_firewall(n_rules=300)
    rng = random.Random(7)
    for _ in range(100):
        pkt = packet(src=rng.getrandbits(32), dst=rng.getrandbits(32),
                     dport=rng.randrange(65536))
        expected = None
        for i, rule in enumerate(fw.rules):
            if rule.matches(pkt):
                expected = i
                break
        assert fw.first_match(pkt) == expected


@given(
    src=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dport=st.integers(min_value=0, max_value=0xFFFF),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_property_vectorized_equals_reference(src, dst, dport, seed):
    """The numpy evaluation is exactly the sequential Rule.matches scan."""
    rng = random.Random(seed)
    rules = generate_unmatchable_rules(rng, 50)
    # Mix in some matchable rules for coverage of the match path.
    rules.insert(10, Rule(src_net=src & prefix_mask(16),
                          src_mask=prefix_mask(16), dst_net=0, dst_mask=0,
                          dport_lo=0, dport_hi=65535, protocol=None))
    fw = Firewall(rules=rules)
    fw.initialize(make_env(seed=seed))
    pkt = packet(src=src, dst=dst, dport=dport)
    expected = None
    for i, rule in enumerate(rules):
        if rule.matches(pkt):
            expected = i
            break
    assert fw.first_match(pkt) == expected


def _near_miss_rules(rng, pkt, n_rules):
    """Rules whose sources mostly match ``pkt`` while each other field
    matches or misses at random, so the source test leaves candidates
    that the remaining columns must still filter in rule order."""
    rules = []
    for _ in range(n_rules):
        src_mask = prefix_mask(rng.randrange(33))
        src_net = (pkt.ip.src if rng.random() < 0.8
                   else rng.getrandbits(32)) & src_mask
        dst_mask = prefix_mask(rng.randrange(33))
        dst_net = (pkt.ip.dst if rng.random() < 0.6
                   else rng.getrandbits(32)) & dst_mask
        if rng.random() < 0.6:
            lo = rng.randrange(pkt.l4.dport + 1)
            hi = rng.randrange(pkt.l4.dport, 65536)
        else:
            lo = rng.randrange(65536)
            hi = lo + rng.randrange(500)
        rules.append(Rule(src_net=src_net, src_mask=src_mask,
                          dst_net=dst_net, dst_mask=dst_mask,
                          dport_lo=lo, dport_hi=hi,
                          protocol=rng.choice([None, 6, 17])))
    return rules


@given(
    src=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dport=st.integers(min_value=0, max_value=0xFFFF),
    proto_tcp=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_rules=st.integers(min_value=1, max_value=40),
    n_unmatchable=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_property_source_survivors_keep_first_match(src, dst, dport,
                                                     proto_tcp, seed,
                                                     n_rules, n_unmatchable):
    """With sources that match, first_match still returns the first rule
    Rule.matches accepts (or None), wherever it sits in the rule set."""
    rng = random.Random(seed)
    pkt = packet(src=src, dst=dst, dport=dport, proto_tcp=proto_tcp)
    rules = _near_miss_rules(rng, pkt, n_rules)
    for rule in generate_unmatchable_rules(rng, n_unmatchable):
        rules.insert(rng.randrange(len(rules) + 1), rule)
    fw = Firewall(rules=rules)
    fw.initialize(make_env(seed=1))
    expected = next((i for i, rule in enumerate(rules) if rule.matches(pkt)),
                    None)
    assert fw.first_match(pkt) == expected


def test_memory_footprint_scales_but_rule_count_does_not():
    env = make_env()
    fw = Firewall()
    fw.initialize(env)
    assert len(fw.rules) == 1000
    assert fw.region.size < 1000 * 16


def test_requires_initialize():
    fw = Firewall()
    with pytest.raises(RuntimeError):
        fw.process(AccessContext(), packet())
