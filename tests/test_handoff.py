"""Cross-core handoff queues and pipelined flows (Section 2.2 substrate)."""

import pytest

from repro.apps.ipforward import DecIPTTL, RadixIPLookup
from repro.check.scenarios import FlowConf, ScenarioConfig
from repro.click.elements.checkipheader import CheckIPHeader
from repro.click.handoff import HandoffQueue, PipelineStage, build_pipelined_flow
from repro.fastpath import clear_stream_cache, use_engine
from repro.fastpath.diff import compare_results
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.mem.access import AccessContext
from repro.net.flowgen import UniformRandomTraffic
from repro.net.packet import Packet
from tests.conftest import make_env


class NullMachine:
    """Stands in for a Machine in functional queue tests."""

    def invalidate_private(self, lines, core):
        self.last = (list(lines), core)


def test_queue_fifo_roundtrip():
    q = HandoffQueue(capacity=4)
    q.initialize(make_env())
    m = NullMachine()
    ctx = AccessContext()
    assert q.push(ctx, "a", m)
    assert q.push(ctx, "b", m)
    assert q.pop(ctx, m) == "a"
    assert q.pop(ctx, m) == "b"
    assert q.pop(ctx, m) is None
    assert q.pushed == 2 and q.popped == 2


def test_queue_capacity():
    q = HandoffQueue(capacity=1)
    q.initialize(make_env())
    m = NullMachine()
    assert q.push(AccessContext(), 1, m)
    assert not q.push(AccessContext(), 2, m)
    assert q.full


def test_queue_pingpong_invalidates_consumer():
    q = HandoffQueue(capacity=4)
    q.initialize(make_env())
    q.consumer_core = 3
    m = NullMachine()
    q.push(AccessContext(), "x", m)
    lines, core = m.last
    assert core == 3
    assert lines  # slot + tail sync line


def test_queue_records_references():
    q = HandoffQueue(capacity=4)
    q.initialize(make_env())
    ctx = AccessContext()
    q.push(ctx, "x", NullMachine())
    assert ctx.n_references >= 3  # head probe, slot, tail


def test_queue_validation():
    with pytest.raises(ValueError):
        HandoffQueue(capacity=0)


def test_stage_requires_source_xor_upstream():
    with pytest.raises(ValueError):
        PipelineStage("s", [], source=None, upstream=None)


def test_pipelined_flow_end_to_end():
    spec = PlatformSpec.westmere().scaled(64)
    machine = Machine(spec)

    def source_factory(env):
        return UniformRandomTraffic(env.rng, payload_bytes=32,
                                    addr_bits=env.spec.address_bits)

    def stage0(env):
        el = [CheckIPHeader(), RadixIPLookup(n_routes=200)]
        for e in el:
            e.initialize(env)
        return el

    def stage1(env):
        el = [DecIPTTL()]
        for e in el:
            e.initialize(env)
        return el

    runs = build_pipelined_flow(machine, "p", source_factory,
                                [stage0, stage1], cores=[0, 1])
    assert len(runs) == 2
    assert runs[0].measured is False
    assert runs[1].measured is True
    result = machine.run(warmup_packets=50, measure_packets=300)
    last = result["p.s1"]
    assert last.packets == 300
    assert last.packets_per_sec > 0
    # Both stages did work.
    assert result["p.s0"].packets > 0


def test_pipelined_flow_validation():
    spec = PlatformSpec.westmere().scaled(64)
    machine = Machine(spec)
    with pytest.raises(ValueError):
        build_pipelined_flow(machine, "p", lambda env: None,
                             [lambda env: []], cores=[0])
    with pytest.raises(ValueError):
        build_pipelined_flow(machine, "p", lambda env: None,
                             [lambda env: [], lambda env: []], cores=[0])


#: The replayable part of the handoff case: one IP flow on core 0.
HANDOFF = ScenarioConfig(seed=12345, warmup=60, measure=200,
                         flows=(FlowConf("app", 0, app="IP"),),
                         name="handoff-pipeline")


def _ip_beside_pipeline():
    """HANDOFF's machine plus a two-stage pipeline on cores 2-3.

    The pipeline's stages are impure (they share handoff queues), so
    they stay on the live loop under both engines while the IP flow is
    replayed by the batch engine.
    """
    machine = HANDOFF.build()

    def source_factory(env):
        return UniformRandomTraffic(env.rng, payload_bytes=64,
                                    addr_bits=env.spec.address_bits)

    def init_all(env, elements):
        for element in elements:
            element.initialize(env)
        return elements

    build_pipelined_flow(
        machine, "pipe", source_factory,
        [lambda env: init_all(env, [CheckIPHeader()]),
         lambda env: init_all(env, [RadixIPLookup(), DecIPTTL()])],
        cores=[2, 3])
    return machine


def test_pipeline_beside_replayed_flow_is_engine_exact():
    ref_machine = _ip_beside_pipeline()
    ref_result = ref_machine.run(warmup_packets=HANDOFF.warmup,
                                 measure_packets=HANDOFF.measure,
                                 engine="scalar")
    assert ref_result["pipe.s1"].packets > 0
    clear_stream_cache()
    with use_engine("batch"):
        for label in ("batch-cold", "batch-warm"):
            machine = _ip_beside_pipeline()
            result = machine.run(warmup_packets=HANDOFF.warmup,
                                 measure_packets=HANDOFF.measure)
            divergences = compare_results(ref_machine, ref_result,
                                          machine, result, label)
            assert not divergences, "\n".join(divergences)
