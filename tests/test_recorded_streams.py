"""Pinned access programs: every app's recorded stream, byte for byte.

The differential suite compares two engines fed by one generator, so it
cannot see a change in what the elements record. These pins can: each
case builds an app from a fixed seed, runs ``PACKETS`` packets through
``run_packet`` (``reset`` before and ``finish_packet`` after each, as the
engines do), and hashes every packet's ``(program, trailing_gap,
instructions, is_idle, dma lines)``. Tags are hashed by name, because tag
ids depend on the order in which a process registers them.

A pin may only change on purpose, when an element's access model
changes; a refactor of how elements record must leave all of them alone.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.apps.registry import APP_NAMES, make_app
from repro.hw.machine import FlowEnv
from repro.hw.topology import PlatformSpec
from repro.mem.access import TAGS, AccessContext
from repro.mem.allocator import AddressSpace

PACKETS = 300
SEED = 0x5EED
#: ``make_app`` parameters per app. SYN's defaults equal SYN_MAX's stream,
#: so SYN is pinned with compute between its references.
PARAMS = {"SYN": {"cpu_ops_per_ref": 60, "refs_per_packet": 20}}

#: (app, scale, data domain) -> sha256 of the recorded stream.
PINS = {
    ('IP', 64, 0): '149c2e8947a717130d1a9ea0421c3d7116ba858b3e2ab93ae1091426454ec794',
    ('MON', 64, 0): '0a982b049f8e999c855b973fcd3cc3e4a80b19974451e6f86f3c08fe42140fb6',
    ('FW', 64, 0): '260e3171c1c1875b7452a95f4f88bba85f133e570a30a1096a35d75fe8357afa',
    ('RE', 64, 0): 'aa616197a07d339dbebf34f84a33951020895c690720db22f12281a335acce47',
    ('VPN', 64, 0): '8ade479816e4a2970a1ba3dca7a4ec2edc98f4d423ef242591846527dc5e5732',
    ('DPI', 64, 0): '46657c5a3d2516d90a6823b4d3a232447eee52e3fa2eb5c3d604fcedf5858799',
    ('SYN', 64, 0): '1d70f672d880046407507d8267b19ab15fd805307b4d8912f60c5e774a0f76d0',
    ('SYN_MAX', 64, 0): '99ac8023a5a67a1b4c4bd487c0ed1b5a4b6ccf9f02a2b34aa69209d1778de489',
    ('IP', 16, 0): 'b9a661e6c490fe256e02dcac92769d60ccb10031b288208c0ec503bad400c981',
    ('MON', 16, 0): '9faa0ee33794c9029e698cd107c1954dae5d37387e0ddb2bb28ae441817088df',
    ('FW', 16, 0): 'af6c8c9f4cc8916986ed0f0d67bf530530d9b7214e6df66427b0fb1ac1a38db4',
    ('RE', 16, 0): '9ce2261c0f6ebd41232143956f7ab29b6fa8d3f48acaf893677c28b2bdc49c8a',
    ('VPN', 16, 0): '5757f03e6924ee97c878d91f3abe210ed52dbf3837137e0ecaf559e0b0237f9a',
    ('DPI', 16, 0): '7cbee2591867bddb56ce07691fee1771e56dcad8b3e76aa3f62834bc9b351f0f',
    ('SYN', 16, 0): '3706f1c566e74b2aa399e9fabc689f382ed730cc559033c01d3e0cdf78af0868',
    ('SYN_MAX', 16, 0): '75c31a1bc69f7da80195629eee3787f1da93f66e69661bb8333b04a253b880ea',
    ('FW', 64, 1): '5348ed8bf98a87a54c1f5a82b4d72510899ddf411aeea8bdbbf490a89a603f36',
    ('RE', 64, 1): 'c83258aeb3489682f30cf7546dbece79feb8f1fb2291878eacbc0a41242fa847',
}


def _cases():
    cases = [(app, scale, 0) for scale in (64, 16) for app in APP_NAMES]
    # Data on the second socket: every region base moves to domain 1.
    cases += [("FW", 64, 1), ("RE", 64, 1)]
    return cases


def build_flow(app: str, scale: int, domain: int):
    """``app`` built from ``SEED`` at ``scale`` with its data on ``domain``."""
    spec = PlatformSpec.westmere().scaled(scale)
    env = FlowEnv(space=AddressSpace(spec.n_sockets), domain=domain,
                  spec=spec, rng=random.Random(SEED))
    return make_app(app, env, **PARAMS.get(app, {}))


def recorded_stream_digest(app: str, scale: int, domain: int) -> str:
    """sha256 over ``PACKETS`` packets of ``app``'s recorded programs."""
    flow = build_flow(app, scale, domain)
    ctx = AccessContext()
    digest = hashlib.sha256()
    for _ in range(PACKETS):
        ctx.reset()
        dma = flow.run_packet(ctx)
        ctx.finish_packet()
        prog = ctx.program
        named = [(prog[i], prog[i + 1], TAGS.name(prog[i + 2]))
                 for i in range(0, len(prog), 3)]
        record = (named, ctx.trailing_gap, ctx.instructions, ctx.is_idle,
                  None if dma is None else list(dma))
        digest.update(repr(record).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("app,scale,domain", _cases())
def test_recorded_stream_is_pinned(app, scale, domain):
    assert recorded_stream_digest(app, scale, domain) == PINS[(app, scale, domain)]


def test_every_app_is_pinned():
    assert set(PINS) == set(_cases())
    assert {app for app, _, _ in PINS} == set(APP_NAMES)
