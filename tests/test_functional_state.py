"""Pinned functional state: what every app's elements computed.

``test_recorded_streams`` pins the access programs the elements record;
these pins cover what the elements *compute* while recording them. Each
case builds the same app from the same seed, runs the same ``PACKETS``
packets, and hashes the elements' state afterwards: NetFlow's exported
records, RE's byte counts and matched chunks, DPI's alerts and scanned
bytes, VPN's encrypted bytes, the pipeline's drop and forward counts,
SYN's counter, the last packet on the wire (VPN's ciphertext included)
and the RNG state the generation leaves behind.

A faster element or traffic source must leave every pin alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.dpi import DPIElement
from repro.apps.netflow import NetFlow
from repro.apps.redundancy import REElement
from repro.apps.synthetic import SynApp
from repro.apps.vpn import VPNEncrypt
from repro.mem.access import AccessContext
from test_recorded_streams import PACKETS, _cases, build_flow

#: (app, scale, data domain) -> sha256 of the functional state.
PINS = {
    ('IP', 64, 0): '3b32f219cd88af476e028b6aafd80cef519d1f017cd1dea6cfb4c15ee78e5e63',
    ('MON', 64, 0): 'b1d68c42140e55b34880ff83126b67e546f7525da3e5b68254df32720d17dc5a',
    ('FW', 64, 0): 'bb8d7ff7bfb3b8a12a6869dc839c9c8b959eb3ddae83d31d672fc30a57e3fb1a',
    ('RE', 64, 0): '8743e7310a905670832112010ab8c514cb9649c27d8d5e4c3ef908b87c76b621',
    ('VPN', 64, 0): '98bca5b61633750e38679bfeac1af2300697b5f7fc974b912c6876eef594ffc9',
    ('DPI', 64, 0): '4d469a89e22d19d7409afd8a638efb59bf57a25b24bf5cb19efe32012d70eacc',
    ('SYN', 64, 0): 'a1f3463b579bab9c1e1efd083ce5d46bc0db3175541bc0d247dc84848ba74b26',
    ('SYN_MAX', 64, 0): '503593fe6f81dc75dc1d79529753bc7c230633a4ee997df7c39528df11a6d69e',
    ('IP', 16, 0): '5310af5175c3fbd30513f7275819fd7a8698e1bd18ff0d093ad281bb6895a5e7',
    ('MON', 16, 0): '8a9cb3e52759848d2e221fbb9f45e845c03a564c41b2a924349c1491b31906e2',
    ('FW', 16, 0): 'eabfb2d1a8820ea2336f21aa0202f5a1cbac8a88cc7c02faa86d501f08b8bc77',
    ('RE', 16, 0): 'b7f0bf53dfd42d1cfa16e10eaa5bd42c93ddac4b7717b54ead0c2868c6a74f6f',
    ('VPN', 16, 0): 'd30cd24647291b429c1ba42e9b2fc43f0cb189ec2e32bb2e0dbb0cd50efa76c2',
    ('DPI', 16, 0): '1f70fa3e3390f8259d88ec7d4c7041901828a8b5384ff582e64ea703802580d4',
    ('SYN', 16, 0): 'a1f3463b579bab9c1e1efd083ce5d46bc0db3175541bc0d247dc84848ba74b26',
    ('SYN_MAX', 16, 0): '503593fe6f81dc75dc1d79529753bc7c230633a4ee997df7c39528df11a6d69e',
    ('FW', 64, 1): 'bb8d7ff7bfb3b8a12a6869dc839c9c8b959eb3ddae83d31d672fc30a57e3fb1a',
    ('RE', 64, 1): '8743e7310a905670832112010ab8c514cb9649c27d8d5e4c3ef908b87c76b621',
}


def _element_state(element) -> tuple:
    if isinstance(element, NetFlow):
        return ("netflow", element.export(), element.packets,
                element.evictions)
    if isinstance(element, REElement):
        return ("re", element.bytes_in, element.bytes_out,
                element.encoder.chunks_matched)
    if isinstance(element, DPIElement):
        return ("dpi", element.alerts, element.bytes_scanned)
    if isinstance(element, VPNEncrypt):
        return ("vpn", element.bytes_encrypted, element.counter)
    return (type(element).__name__,)


def functional_state(app: str, scale: int, domain: int) -> tuple:
    """The state ``app``'s flow holds after ``PACKETS`` packets."""
    flow = build_flow(app, scale, domain)
    ctx = AccessContext()
    if isinstance(flow, SynApp):
        for _ in range(PACKETS):
            ctx.reset()
            flow.run_packet(ctx)
            ctx.finish_packet()
        return ("syn", flow.counter, flow.rng.getstate())
    last = []
    next_packet = flow.source.next_packet

    def capture():
        packet = next_packet()
        last[:] = [packet]
        return packet

    flow.source.next_packet = capture
    for _ in range(PACKETS):
        ctx.reset()
        flow.run_packet(ctx)
        ctx.finish_packet()
    return (flow.dropped, flow.forwarded,
            flow.rx.received, flow.tx.sent, flow.tx.bytes_sent,
            [_element_state(element) for element in flow.elements],
            last[0].to_bytes(), flow.source.rng.getstate())


def functional_state_digest(app: str, scale: int, domain: int) -> str:
    """sha256 of :func:`functional_state`."""
    state = functional_state(app, scale, domain)
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("app,scale,domain", _cases())
def test_functional_state_is_pinned(app, scale, domain):
    assert functional_state_digest(app, scale, domain) == PINS[
        (app, scale, domain)]


def test_every_app_is_pinned():
    assert set(PINS) == set(_cases())
