"""Standard elements: FromDevice, ToDevice, CheckIPHeader, Classifier,
Queue, Counter, Discard."""

import pytest

from repro.click.element import PacketSink
from repro.click.elements.checkipheader import CheckIPHeader
from repro.click.elements.classifier import Classifier, Pattern
from repro.click.elements.counter import Counter
from repro.click.elements.discard import Discard
from repro.click.elements.fromdevice import FromDevice
from repro.click.elements.queue import QueueElement
from repro.click.elements.todevice import ToDevice
from repro.mem.access import AccessContext
from repro.net.packet import Packet
from tests.conftest import make_env


def pkt(**kw):
    return Packet.udp(src=1, dst=2, **kw)


# -- FromDevice ---------------------------------------------------------------

def test_fromdevice_assigns_buffers_and_dma_lines():
    fd = FromDevice()
    fd.initialize(make_env())
    ctx = AccessContext()
    p = pkt(payload=b"z" * 100)
    dma = fd.receive(ctx, p)
    assert p.buffer is not None
    assert len(dma) == (p.wire_length + 63) // 64 or \
        len(dma) == (p.wire_length // 64) + 1
    assert fd.received == 1
    assert ctx.n_references > 0


def test_fromdevice_recycles_buffers():
    fd = FromDevice(n_buffers=64)
    env = make_env()
    fd.initialize(env)
    first = None
    n = fd.n_buffers
    for i in range(n + 1):
        p = pkt()
        fd.receive(AccessContext(), p)
        if i == 0:
            first = p.buffer
    assert p.buffer is first  # wrapped around the pool


def test_fromdevice_pool_scales():
    env = make_env()
    fd = FromDevice(n_buffers=512)
    fd.initialize(env)
    assert fd.n_buffers == max(16, 512 // env.spec.scale)


def test_fromdevice_requires_initialize():
    with pytest.raises(RuntimeError):
        FromDevice().receive(AccessContext(), pkt())


def test_fromdevice_rejects_zero_buffers():
    with pytest.raises(ValueError):
        FromDevice(n_buffers=0)


# -- ToDevice -----------------------------------------------------------------

def test_todevice_counts():
    td = ToDevice()
    td.initialize(make_env())
    td.send(AccessContext(), pkt(payload=b"a" * 50))
    assert td.sent == 1
    assert td.bytes_sent == pkt(payload=b"a" * 50).wire_length


def test_todevice_requires_initialize():
    with pytest.raises(RuntimeError):
        ToDevice().send(AccessContext(), pkt())


# -- CheckIPHeader -------------------------------------------------------------

def test_checkipheader_passes_valid():
    el = CheckIPHeader()
    assert el.process(AccessContext(), pkt()) is not None
    assert el.dropped == 0


def test_checkipheader_drops_zero_ttl():
    el = CheckIPHeader()
    p = pkt()
    p.ip.ttl = 0
    assert el.process(AccessContext(), p) is None
    assert el.dropped == 1


def test_checkipheader_drops_bad_checksum():
    el = CheckIPHeader()
    p = pkt(compute_checksum=True)
    p.ip.checksum ^= 0x1234
    assert el.process(AccessContext(), p) is None


def test_checkipheader_accepts_offloaded_checksum():
    el = CheckIPHeader()
    p = pkt()
    assert p.ip.checksum == 0
    assert el.process(AccessContext(), p) is not None


def test_checkipheader_drops_short_length():
    el = CheckIPHeader()
    p = pkt()
    p.ip.total_length = 10
    assert el.process(AccessContext(), p) is None


# -- Classifier ----------------------------------------------------------------

def test_classifier_routes_by_pattern():
    cl = Classifier([Pattern(protocol=6), Pattern(protocol=17)])
    port, _ = cl.process(AccessContext(), Packet.tcp(src=1, dst=2))
    assert port == 0
    port, _ = cl.process(AccessContext(), pkt())
    assert port == 1
    assert cl.n_outputs == 3


def test_classifier_catch_all():
    cl = Classifier([Pattern(dport=9999)])
    port, _ = cl.process(AccessContext(), pkt())
    assert port == 1  # last port
    assert cl.matched[1] == 1


def test_classifier_rejects_empty():
    with pytest.raises(ValueError):
        Classifier([])


# -- Queue ----------------------------------------------------------------------

def test_queue_fifo_and_capacity():
    q = QueueElement(capacity=2)
    a, b, c = pkt(), pkt(), pkt()
    assert q.process(AccessContext(), a) is a
    assert q.process(AccessContext(), b) is b
    assert q.process(AccessContext(), c) is None  # dropped
    assert q.dropped == 1
    assert q.pull() is a
    assert q.pull() is b
    assert q.pull() is None


def test_queue_rejects_bad_capacity():
    with pytest.raises(ValueError):
        QueueElement(capacity=0)


# -- Counter / Discard / Sink ----------------------------------------------------

def test_counter_accumulates():
    counter = Counter()
    counter.initialize(make_env())
    for _ in range(3):
        counter.process(AccessContext(), pkt(payload=b"q" * 10))
    assert counter.packets == 3
    assert counter.bytes == 3 * pkt(payload=b"q" * 10).wire_length
    assert "3 packets" in counter.rate_summary()


def test_discard_drops_everything():
    d = Discard()
    assert d.process(AccessContext(), pkt()) is None
    assert d.count == 1


def test_packet_sink():
    sink = PacketSink()
    assert sink.process(AccessContext(), pkt()) is None
    assert sink.count == 1
    assert sink.bytes > 0
