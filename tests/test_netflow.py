"""NetFlow monitoring element."""

import pytest

from repro.apps.netflow import FlowRecord, NetFlow
from repro.mem.access import AccessContext
from repro.net.packet import Packet, five_tuple_hash
from tests.conftest import make_env


def make_netflow(entries=64):
    nf = NetFlow(n_entries=entries)
    nf.initialize(make_env())
    return nf


def packet(src=1, dst=2, sport=3, dport=4, payload=b"x" * 10):
    return Packet.udp(src=src, dst=dst, sport=sport, dport=dport,
                      payload=payload)


def test_counts_packets_and_bytes_per_flow():
    nf = make_netflow()
    for _ in range(5):
        nf.process(AccessContext(), packet())
    records = nf.export()
    assert len(records) == 1
    key, packets, nbytes = records[0]
    assert key == (1, 2, 17, 3, 4)
    assert packets == 5
    assert nbytes == 5 * packet().wire_length


def test_distinct_flows_get_distinct_records():
    nf = make_netflow(entries=512)
    for i in range(20):
        nf.process(AccessContext(), packet(sport=1000 + i))
    # Hash collisions may evict a couple of records; the accounting must
    # balance either way.
    assert nf.active_flows() == 20 - nf.evictions
    assert nf.active_flows() >= 17


def test_records_sit_at_the_flow_hash_slot():
    """NetFlow's inline hash is :func:`five_tuple_hash`."""
    nf = make_netflow(entries=4096)
    for i in range(50):
        nf.process(AccessContext(), packet(src=i * 7919, dst=i, sport=i + 9,
                                           dport=i * 3))
    live = [(i, r) for i, r in enumerate(nf.slots) if r is not None]
    assert len(live) == 50 - nf.evictions > 40
    for index, record in live:
        assert index == five_tuple_hash(record.key) % nf.n_entries


def test_collision_evicts():
    nf = make_netflow(entries=1)  # everything collides
    nf.process(AccessContext(), packet(sport=1))
    nf.process(AccessContext(), packet(sport=2))
    assert nf.evictions == 1
    assert nf.active_flows() == 1


def test_touches_bucket_and_entry():
    nf = make_netflow()
    ctx = AccessContext()
    nf.process(ctx, packet())
    lines = ctx.lines_touched()
    bucket_lines = set(range(nf.buckets_region.base >> 6,
                             nf.buckets_region.end >> 6))
    entry_lines = set(range(nf.region.base >> 6, nf.region.end >> 6))
    assert any(line in bucket_lines for line in lines)
    assert any(line in entry_lines for line in lines)


def test_top_flows_ordering():
    nf = make_netflow(entries=512)
    for _ in range(7):
        nf.process(AccessContext(), packet(sport=111))
    for _ in range(3):
        nf.process(AccessContext(), packet(sport=222))
    top = nf.top_flows(1)
    assert top[0][1] == 7


def test_flow_record_update():
    record = FlowRecord(key=("k",), now=1, nbytes=100)
    record.update(now=9, nbytes=50)
    assert record.packets == 2
    assert record.bytes == 150
    assert record.first_seen == 1
    assert record.last_seen == 9


def test_requires_initialize():
    nf = NetFlow()
    with pytest.raises(RuntimeError):
        nf.process(AccessContext(), packet())


def test_scales_with_platform():
    env = make_env()
    nf = NetFlow()
    nf.initialize(env)
    assert nf.n_entries == env.spec.scale_table(100_000)
    assert nf.n_buckets == nf.n_entries * NetFlow.BUCKETS_PER_ENTRY
