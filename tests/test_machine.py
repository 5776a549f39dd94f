"""The timing engine: measurement windows, placement, contention basics."""

import pytest

from repro.apps.registry import app_factory
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec


class StrideFlow:
    """Deterministic flow: touches ``n_lines`` consecutive lines per packet."""

    name = "stride"
    measure_weight = 1.0

    def __init__(self, env, n_lines=8, gap=50, region_bytes=1 << 16):
        self.region = env.space.domain(env.domain).alloc(region_bytes, "arr")
        self.n_lines = n_lines
        self.gap = gap
        self._pos = 0
        self._total = self.region.n_lines

    def run_packet(self, ctx):
        base = self.region.base >> 6
        for _ in range(self.n_lines):
            ctx.compute(self.gap, 10)
            ctx.touch_line(base + self._pos)
            self._pos = (self._pos + 1) % self._total
        return None


class HotLineFlow:
    """Touches one line per packet, with optional DMA self-invalidation."""

    name = "hot"
    measure_weight = 1.0

    def __init__(self, env, dma=False):
        self.region = env.space.domain(env.domain).alloc(64, "hot")
        self.dma = dma

    def run_packet(self, ctx):
        ctx.compute(20, 10)
        ctx.touch(self.region, 0, 8)
        if self.dma:
            return [self.region.base >> 6]
        return None


class IdleEveryOther:
    """Alternates between a real packet and an idle stall."""

    name = "idler"
    measure_weight = 1.0

    def __init__(self, env):
        self.region = env.space.domain(env.domain).alloc(4096, "x")
        self._step = 0

    def run_packet(self, ctx):
        self._step += 1
        if self._step % 2 == 0:
            ctx.mark_idle(100)
            return None
        ctx.compute(10, 5)
        ctx.touch(self.region, 0, 8)
        return None


@pytest.fixture
def spec():
    return PlatformSpec.westmere().scaled(64)


def test_solo_run_measures_requested_packets(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, label="f")
    result = m.run(warmup_packets=100, measure_packets=300)
    assert result["f"].packets == 300
    assert result["f"].packets_per_sec > 0
    assert result.events > 0


def test_determinism(spec):
    def run_once():
        m = Machine(spec, seed=42)
        m.add_flow(StrideFlow, core=0, label="a")
        m.add_flow(StrideFlow, core=1, label="b")
        r = m.run(warmup_packets=50, measure_packets=200)
        return (r["a"].cycles, r["b"].cycles, r.events)

    assert run_once() == run_once()


def test_duplicate_core_rejected(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0)
    with pytest.raises(ValueError, match="already runs"):
        m.add_flow(StrideFlow, core=0)


def test_duplicate_label_rejected(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, label="x")
    with pytest.raises(ValueError, match="duplicate"):
        m.add_flow(StrideFlow, core=1, label="x")


def test_bad_domain_rejected(spec):
    m = Machine(spec)
    with pytest.raises(ValueError, match="domain"):
        m.add_flow(StrideFlow, core=0, data_domain=7)


ENGINES = pytest.mark.parametrize("engine", ["scalar", "batch"])


@ENGINES
def test_machine_is_single_use(spec, engine):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0)
    m.run(warmup_packets=10, measure_packets=50, engine=engine)
    with pytest.raises(RuntimeError, match="already ran"):
        m.run(warmup_packets=10, measure_packets=50, engine=engine)
    with pytest.raises(RuntimeError):
        m.add_flow(StrideFlow, core=1)


@ENGINES
def test_run_without_flows_rejected(spec, engine):
    with pytest.raises(RuntimeError, match="no flows"):
        Machine(spec).run(engine=engine)


@ENGINES
def test_run_without_measured_flow_rejected(spec, engine):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, measured=False)
    with pytest.raises(RuntimeError, match="at least one flow"):
        m.run(warmup_packets=10, measure_packets=50, engine=engine)


def test_hot_line_flow_hits_after_warmup(spec):
    m = Machine(spec)
    m.add_flow(HotLineFlow, core=0, label="h")
    stats = m.run(warmup_packets=20, measure_packets=100)["h"]
    # Same line every packet: everything after the first touch is an L1 hit.
    assert stats.counts.l1_hits == pytest.approx(100, abs=2)
    assert stats.counts.l3_misses == 0


def test_dma_invalidation_forces_compulsory_misses(spec):
    m = Machine(spec)
    m.add_flow(lambda env: HotLineFlow(env, dma=True), core=0, label="d")
    stats = m.run(warmup_packets=20, measure_packets=100)["d"]
    # The DMA write invalidates the line before every packet.
    assert stats.counts.l3_misses == pytest.approx(100, abs=2)


def test_remote_data_pays_qpi(spec):
    def run(domain):
        m = Machine(spec)
        m.add_flow(
            lambda env: StrideFlow(env, region_bytes=1 << 20),
            core=0, data_domain=domain, label="f",
        )
        return m.run(warmup_packets=50, measure_packets=300)["f"]

    local = run(0)
    remote = run(1)
    assert local.counts.remote_refs == 0
    assert remote.counts.remote_refs > 0
    assert remote.packets_per_sec < local.packets_per_sec


def test_cache_contention_slows_a_flow(spec):
    def run(n_competitors):
        m = Machine(spec)
        m.add_flow(lambda env: StrideFlow(env, region_bytes=spec.l3_size),
                   core=0, label="t")
        for i in range(n_competitors):
            m.add_flow(
                lambda env: StrideFlow(env, region_bytes=spec.l3_size),
                core=1 + i, label=f"c{i}",
            )
        return m.run(warmup_packets=100, measure_packets=400)["t"]

    solo = run(0)
    crowded = run(5)
    assert crowded.packets_per_sec < solo.packets_per_sec
    assert crowded.l3_hit_rate < solo.l3_hit_rate


def test_unmeasured_competitors_still_report_stats(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, label="t", measured=True)
    m.add_flow(StrideFlow, core=1, label="c", measured=False)
    result = m.run(warmup_packets=50, measure_packets=200)
    assert "c" in result.stats
    assert result["c"].packets > 0


def test_idle_steps_are_not_counted_as_packets(spec):
    m = Machine(spec)
    m.add_flow(IdleEveryOther, core=0, label="i")
    stats = m.run(warmup_packets=20, measure_packets=100)["i"]
    assert stats.packets == 100
    # Idle stalls contribute cycles: slower than back-to-back packets.
    assert stats.cycles_per_packet > 100


def test_total_l3_refs_helper(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, label="a")
    m.add_flow(StrideFlow, core=1, label="b")
    result = m.run(warmup_packets=50, measure_packets=200)
    total = result.total_l3_refs_per_sec()
    excl = result.total_l3_refs_per_sec(exclude="a")
    assert total > excl >= 0


@ENGINES
def test_zero_time_empty_packet_rejected(spec, engine):
    class Broken:
        name = "broken"

        def __init__(self, env):
            pass

        def run_packet(self, ctx):
            return None

    m = Machine(spec)
    m.add_flow(Broken, core=0)
    with pytest.raises(RuntimeError, match="zero-time"):
        m.run(warmup_packets=10, measure_packets=10, engine=engine)


def test_measure_weight_scales_targets(spec):
    class Slow(StrideFlow):
        measure_weight = 0.5

    m = Machine(spec)
    m.add_flow(Slow, core=0, label="s")
    stats = m.run(warmup_packets=100, measure_packets=400)["s"]
    assert stats.packets == 200


@ENGINES
def test_max_events_guard(spec, engine):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0)
    with pytest.raises(RuntimeError, match="events"):
        m.run(warmup_packets=100, measure_packets=10_000, max_events=500,
              engine=engine)


def _six_flow_corun(spec, engine, **run_kw):
    """IP measured against five SYN_MAX competitors on one socket."""
    m = Machine(spec)
    m.add_flow(app_factory("IP"), core=0, label="IP")
    for core in range(1, 6):
        m.add_flow(app_factory("SYN_MAX"), core=core, measured=False)
    return m, m.run(warmup_packets=100, measure_packets=200, engine=engine,
                    **run_kw)


@ENGINES
def test_event_count_includes_partial_packets(spec, engine):
    """Loops count references per packet; the run stops with competitors
    mid-packet, and their partial packets still count."""
    m, result = _six_flow_corun(spec, engine)
    refs = sum(fr.counters.l1_hits + fr.counters.l2_hits
               + fr.counters.l3_refs for fr in m.flows)
    assert result.events == refs
    live, reference = _six_flow_corun(spec, "scalar")
    assert result.events == reference.events
    assert any(0 < fr.pc < fr.prog_len for fr in live.flows[1:])


@ENGINES
def test_max_events_guard_multi_flow(spec, engine):
    with pytest.raises(RuntimeError, match="events"):
        _six_flow_corun(spec, engine, max_events=3000)


def test_latency_recording_disabled_by_default(spec):
    m = Machine(spec)
    m.add_flow(StrideFlow, core=0, label="f")
    stats = m.run(warmup_packets=20, measure_packets=100)["f"]
    assert stats.latencies is None
    with pytest.raises(ValueError):
        stats.latency_percentile(50)


def test_latency_recording_matches_throughput(spec):
    m = Machine(spec, record_latencies=True)
    m.add_flow(StrideFlow, core=0, label="f")
    stats = m.run(warmup_packets=20, measure_packets=100)["f"]
    assert len(stats.latencies) == 100
    p50 = stats.latency_percentile(50)
    # For a uniform flow, median latency ~ cycles/packet.
    assert p50 == pytest.approx(stats.cycles_per_packet, rel=0.2)
    assert stats.latency_percentile(0) <= p50 <= stats.latency_percentile(100)
    assert stats.latency_percentile_ns(50) == pytest.approx(
        p50 / spec.freq_hz * 1e9)


def test_latency_percentile_validation(spec):
    m = Machine(spec, record_latencies=True)
    m.add_flow(StrideFlow, core=0, label="f")
    stats = m.run(warmup_packets=20, measure_packets=50)["f"]
    with pytest.raises(ValueError):
        stats.latency_percentile(101)


def test_latency_grows_under_contention(spec):
    def run(n):
        m = Machine(spec, record_latencies=True)
        m.add_flow(lambda env: StrideFlow(env, region_bytes=spec.l3_size),
                   core=0, label="t")
        for i in range(n):
            m.add_flow(
                lambda env: StrideFlow(env, region_bytes=spec.l3_size),
                core=1 + i, label=f"c{i}",
            )
        return m.run(warmup_packets=50, measure_packets=200)["t"]

    solo = run(0)
    crowded = run(5)
    assert crowded.latency_percentile(50) > solo.latency_percentile(50)


class RecordingObserver:
    """Implements the observer protocol and logs every call."""

    def __init__(self, name, interval_cycles, log):
        self.name = name
        self.interval_cycles = interval_cycles
        self.log = log

    def begin(self, machine):
        self.log.append((self.name, "begin"))

    def window(self, flow_index, clock, counters):
        assert counters is not None
        self.log.append((self.name, flow_index, clock))

    def after_run(self, machine, result):
        self.log.append((self.name, "after_run", result))


@ENGINES
def test_observers_run_on_their_own_deadlines_in_list_order(spec, engine):
    from repro.apps.registry import app_factory

    log = []
    m = Machine(spec, seed=3,
                guard=RecordingObserver("g", 40_000.0, log),
                checker=RecordingObserver("c", 100_000.0, log),
                # A 1-cycle observer sees every packet boundary.
                metrics=RecordingObserver("every", 1.0, log))
    m.add_flow(app_factory("IP"), core=0)
    m.add_flow(app_factory("MON"), core=1)
    result = m.run(warmup_packets=50, measure_packets=300, engine=engine)
    assert result.metrics is m.metrics
    assert log[:3] == [("g", "begin"), ("c", "begin"), ("every", "begin")]
    assert log[-3:] == [(name, "after_run", result)
                        for name in ("g", "c", "every")]
    windows = log[3:-3]
    rank = {"g": 0, "c": 1, "every": 2}
    for before, after in zip(windows, windows[1:]):
        if before[1:] == after[1:]:
            assert rank[before[0]] < rank[after[0]]
    for i in range(len(m.flows)):
        bounds = [clock for name, f, clock in windows
                  if name == "every" and f == i]
        assert len(bounds) > 100
        for name, interval in (("g", 40_000.0), ("c", 100_000.0)):
            seen = [clock for n, f, clock in windows if n == name and f == i]
            multiples = range(1, int(bounds[-1] // interval) + 1)
            expected = sorted({min(b for b in bounds if b >= k * interval)
                               for k in multiples})
            assert len(expected) >= 3
            assert seen == expected, (name, i)


def test_scalar_run_never_imports_the_batch_engine():
    # The batch engine's modules pull in numpy; a scalar-only process
    # must not pay for them (Machine.run probes sys.modules for stubs
    # instead of importing repro.fastpath.streams).
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from repro.apps.registry import app_factory\n"
        "from repro.hw.machine import Machine\n"
        "from repro.hw.topology import PlatformSpec\n"
        "m = Machine(PlatformSpec.westmere().scaled(64))\n"
        "m.add_flow(app_factory('IP'), core=0)\n"
        "m.add_flow(app_factory('MON'), core=1)\n"
        "m.run(warmup_packets=10, measure_packets=20, engine='scalar')\n"
        "print(sorted(n for n in ('repro.fastpath.streams',\n"
        "                         'repro.fastpath.engine')\n"
        "             if n in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
