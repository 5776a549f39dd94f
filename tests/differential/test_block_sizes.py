"""Differential suite: batch results do not depend on the block size.

Pregeneration cuts each flow's stream into blocks of ``batch`` packets
(:data:`repro.fastpath.streams.BATCH_PACKETS` by default), and a block
boundary may fall anywhere: suppliers with different sizes extend one
cached stream. One two-socket scenario with DMA (every pipeline's
``FromDevice``), a throttled flow and a flow with remote data runs
through :func:`~repro.fastpath.engine.run_batch` at several block sizes,
from one packet per block to whole runs in one block. Each size runs on
a cold stream cache, then on a cache filled at a different size, and
every run must equal the scalar engine under
:func:`~repro.fastpath.diff.compare_results`.
"""

from __future__ import annotations

import pytest

import repro.fastpath as fastpath
from repro.check.scenarios import FlowConf
from repro.fastpath.diff import compare_results
from repro.fastpath.engine import run_batch
from repro.fastpath.streams import BATCH_PACKETS, STREAM_CACHE
from tests.differential.scenarios import app, scenario

CONFIG = scenario(
    "block-sizes",
    app("IP", 0, data_domain=1),
    FlowConf("throttled", 1, app="MON", rate=2e7),
    app("FW", 6),
    sockets=2, warmup=40, measure=160)

SIZES = (1, 7, BATCH_PACKETS, 256)


@pytest.fixture(scope="module")
def reference():
    machine, result = CONFIG.run("scalar")
    # The scenario exercises what it is for: remote data and a throttle
    # that acts.
    remote, throttled, _ = machine.flows
    assert remote.counters.remote_refs > 0
    assert throttled.flow.adjustments > 0
    return machine, result


def _run_batch(batch):
    with fastpath.use_engine("batch"):
        machine = CONFIG.build()
        result = run_batch(machine, CONFIG.warmup, CONFIG.measure,
                           batch=batch)
    # Every flow replayed a stream rather than running live.
    assert machine.prefiltered_cores == {fc.core for fc in CONFIG.flows}
    return machine, result


@pytest.mark.parametrize("batch", SIZES)
def test_results_do_not_depend_on_block_size(batch, reference):
    ref_machine, ref_result = reference
    fill = SIZES[(SIZES.index(batch) + 1) % len(SIZES)]
    divergences = []
    fastpath.clear_stream_cache()
    try:
        machine, result = _run_batch(batch)
        divergences += compare_results(ref_machine, ref_result, machine,
                                       result, f"batch={batch} cold")
        # Every stream carries DMA invalidations.
        for stream in STREAM_CACHE._streams.values():
            assert sum(int(rel.dma_bounds[-1]) for rel in stream.blocks)
        fastpath.clear_stream_cache()
        _run_batch(fill)
        machine, result = _run_batch(batch)
        divergences += compare_results(
            ref_machine, ref_result, machine, result,
            f"batch={batch} warm over batch={fill}")
    finally:
        fastpath.clear_stream_cache()
    assert not divergences, "\n".join([CONFIG.describe()] + divergences)
