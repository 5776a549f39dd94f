"""Memory-controller and QPI queueing model."""

import random

import pytest

from repro.apps.registry import app_factory
from repro.fastpath.diff import QUEUE_FIELDS
from repro.hw.dram import (MAX_RHO, UTILIZATION_WINDOW, MemoryController,
                           UtilizationQueue)
from repro.hw.interconnect import QPILink
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.obs import KIND_MEM, ListSink, Tracer


def test_rejects_bad_service():
    with pytest.raises(ValueError):
        UtilizationQueue(0)
    with pytest.raises(ValueError):
        MemoryController(0, -1)


def test_idle_controller_adds_no_wait():
    mc = MemoryController(0, service_cycles=5.0)
    # Sparse requests: utilization stays ~0, waits stay ~0.
    now = 0.0
    for _ in range(100):
        assert mc.request(now) == pytest.approx(0.0, abs=0.01)
        now += 10 * UTILIZATION_WINDOW
    assert mc.requests == 100


def test_saturated_controller_queues():
    mc = MemoryController(0, service_cycles=5.0)
    now = 0.0
    waits = []
    for _ in range(200_000):
        waits.append(mc.request(now))
        now += 6.0  # arrivals at ~83% of capacity
    # After the utilization estimate settles, waits are substantial.
    late = waits[-100:]
    assert min(late) > 5.0
    assert mc.rho > 0.5


def test_wait_increases_with_load():
    def avg_wait(interval):
        mc = MemoryController(0, service_cycles=5.0)
        now, total, n = 0.0, 0.0, 60_000
        for _ in range(n):
            total += mc.request(now)
            now += interval
        return total / n

    assert avg_wait(8.0) > avg_wait(20.0) >= avg_wait(200.0)


def test_rho_is_capped():
    mc = MemoryController(0, service_cycles=5.0)
    now = 0.0
    for _ in range(300_000):
        mc.request(now)
        now += 1.0  # 5x oversubscribed
    assert mc.rho <= 0.95
    # Even saturated, the wait stays finite.
    assert mc.request(now) < 5.0 * 20


def test_out_of_order_arrivals_do_not_inflate_waits():
    """Timestamp reordering (engine batching) must not read as contention."""
    mc = MemoryController(0, service_cycles=5.0)
    now = 0.0
    waits = []
    for i in range(20_000):
        jitter = 300.0 if i % 2 else -300.0
        waits.append(mc.request(max(0.0, now + jitter)))
        now += 200.0  # genuine load is light (2.5%)
    assert sum(waits[-1000:]) / 1000 < 1.0


def test_utilization_accounting():
    mc = MemoryController(0, service_cycles=5.0)
    for i in range(10):
        mc.request(float(i * 100))
    assert mc.busy_cycles == pytest.approx(50.0)
    assert mc.utilization(1000.0) == pytest.approx(0.05)
    assert mc.utilization(0.0) == 0.0


def test_wait_is_computed_once_per_window():
    """Every request returns the wait of the window it falls in: the
    M/M/1 form at the window's roll, 0.0 before the first roll."""
    service = 5.0
    mc = MemoryController(0, service_cycles=service)
    rng = random.Random(3)
    window_start = busy = 0.0
    expected = 0.0
    windows = [[]]
    now = 0.0
    for _ in range(60_000):
        busy += service
        elapsed = now - window_start
        if elapsed >= UTILIZATION_WINDOW:
            rho = min(MAX_RHO, busy / elapsed)
            expected = service * rho / (1.0 - rho)
            window_start, busy = now, 0.0
            windows.append([])
        wait = mc.request(now)
        assert wait == expected
        windows[-1].append(wait)
        now += rng.uniform(1.0, 12.0)
    assert len(windows) > 5
    assert set(windows[0]) == {0.0}
    for waits in windows:
        assert len(set(waits)) == 1
    assert len({waits[0] for waits in windows[1:]}) > 1


def test_request_at_exactly_one_window_rolls():
    """``elapsed == UTILIZATION_WINDOW`` closes the window."""
    service = 5.0
    mc = MemoryController(0, service_cycles=service)
    assert mc.request(UTILIZATION_WINDOW - 1.0) == 0.0
    assert mc.window_start == 0.0
    wait = mc.request(UTILIZATION_WINDOW)
    rho = min(MAX_RHO, 2 * service / UTILIZATION_WINDOW)
    assert mc.rho == rho
    assert wait == mc.wait == service * rho / (1.0 - rho)
    assert mc.window_start == UTILIZATION_WINDOW
    assert mc.window_busy == 0.0
    assert mc.requests == 2
    # The next request opens a fresh window at the roll's clock.
    assert mc.request(UTILIZATION_WINDOW + 1.0) == wait
    assert mc.window_busy == service


def test_window_loops_match_request():
    """The loops' inline queue step is ``request``/``transfer``, exactly.

    A traced two-socket co-run with remote data records every L3 miss
    (its clock, home domain, and memory-controller wait). Replaying each
    domain's misses through a fresh controller, and the remote ones
    through a fresh link, must give every wait and the final queue
    state bit for bit.
    """
    spec = PlatformSpec.westmere().scaled(64)
    sink = ListSink()
    machine = Machine(spec, seed=11, tracer=Tracer(sink, mem_sample=1))
    machine.add_flow(app_factory("MON"), core=0, data_domain=1)
    machine.add_flow(app_factory("IP"), core=1)
    machine.add_flow(app_factory("RE"), core=6, data_domain=0)
    machine.add_flow(app_factory("FW"), core=7)
    machine.run(warmup_packets=100, measure_packets=200, engine="scalar")

    mcs = [MemoryController(d, spec.mc_service_cycles)
           for d in range(spec.n_sockets)]
    qpi = QPILink(spec.qpi_extra_cycles, spec.qpi_service_cycles)
    waits = {fr.label: 0.0 for fr in machine.flows}
    misses = sink.by_kind(KIND_MEM)
    for event in misses:
        wait = mcs[event.args["domain"]].request(event.ts)
        assert wait == event.args["mc_wait"]
        if event.args["remote"]:
            qpi.transfer(event.ts)
        waits[event.flow] += wait
    for fr in machine.flows:
        assert fr.counters.l3_misses == sum(e.flow == fr.label
                                            for e in misses)
        assert fr.counters.mc_wait_cycles == waits[fr.label]
    for ref, got in zip(mcs + [qpi], machine.mcs + [machine.qpi]):
        assert ([getattr(got, name) for name in QUEUE_FIELDS]
                == [getattr(ref, name) for name in QUEUE_FIELDS])
    # The run exercised what it pins: rolled windows with queueing on
    # both controllers, and remote fills on the link.
    assert all(mc.rho > 0.0 and mc.wait > 0.0 for mc in mcs)
    assert qpi.requests == sum(fr.counters.remote_refs
                               for fr in machine.flows) > 0
    assert qpi.window_start > 0.0


def test_busy_cycles_counts_requests():
    mc = MemoryController(0, service_cycles=7.0)
    for i in range(25):
        mc.request(float(i * 40))
    assert mc.busy_cycles == mc.requests * mc.service_cycles == 175.0


def test_reset():
    mc = MemoryController(0, service_cycles=5.0)
    mc.request(0.0)
    mc.reset()
    assert mc.requests == 0
    assert mc.busy_cycles == 0.0
    assert mc.rho == 0.0


def test_reset_zeroes_wait():
    mc = MemoryController(0, service_cycles=5.0)
    now = 0.0
    for _ in range(30_000):
        mc.request(now)
        now += 6.0
    assert mc.wait > 0.0
    mc.reset()
    assert mc.wait == 0.0
    assert mc.request(0.0) == 0.0


def test_qpi_adds_fixed_latency():
    qpi = QPILink(extra_cycles=60.0, service_cycles=2.0)
    lat = qpi.transfer(0.0)
    assert lat >= 60.0
    assert qpi.transfers == 1


def test_qpi_queues_under_load():
    qpi = QPILink(extra_cycles=60.0, service_cycles=2.0)
    now = 0.0
    for _ in range(200_000):
        qpi.transfer(now)
        now += 2.2
    assert qpi.transfer(now) > 60.0 + 2.0


def test_qpi_rejects_negative_extra():
    with pytest.raises(ValueError):
        QPILink(extra_cycles=-1.0, service_cycles=2.0)
