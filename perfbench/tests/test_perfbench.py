"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, spans  # noqa: E402
from perfbench.hostclock import HostClock  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- self-time arithmetic -----------------------------------------------------

def test_self_times_of_nested_spans():
    root, a, b = (spans.NAME_ID[n] for n in
                  ("bench.unit", "apps.generate", "hw.run"))
    synthetic = [
        [root, 0, 100, -1],   # 0: 100 long, children 0..1 cover 50 + 20
        [a, 10, 60, 0],       # 1: 50 long, child 2 covers 10
        [b, 20, 30, 1],       # 2: leaf
        [b, 70, 90, 0],       # 3: leaf
    ]
    self_ns = spans.self_times(synthetic)
    assert self_ns[root] == 30
    assert self_ns[a] == 40
    assert self_ns[b] == 30
    assert sum(self_ns) == 100  # self times partition the root


def test_self_times_of_a_slice_use_its_base():
    gen = spans.NAME_ID["apps.generate"]
    unit = spans.NAME_ID["bench.unit"]
    # Indices 5..7 of a longer recording; the root's parent is outside.
    synthetic = [[unit, 0, 50, 4], [gen, 5, 25, 5], [gen, 10, 20, 6]]
    self_ns = spans.self_times(synthetic, base=5)
    assert self_ns[unit] == 30
    assert self_ns[gen] == 20
    assert spans.top_level_packets(synthetic, base=5) == 1


def test_recorder_links_parents_and_pauses():
    rec = spans.SpanRecorder()
    outer = rec.begin(0)
    inner = rec.begin(1)
    with rec.pause():
        time.sleep(0.01)
    rec.end(inner)
    rec.end(outer)
    assert [s[3] for s in rec.spans] == [-1, 0]
    assert rec.stack == [-1]
    assert rec.paused[1] >= 10_000_000
    self_ns = spans.self_times(rec.spans, paused=rec.paused)
    total = rec.spans[0][2] - rec.spans[0][1]
    assert sum(self_ns) == total - rec.paused[1]
    assert self_ns[1] < 10_000_000


# -- normalisation ------------------------------------------------------------

class _FakeHost:
    """A host whose speed we set: every operation takes ``cost / speed``."""

    def __init__(self):
        self.now = 0.0
        self.speed = 1.0

    def timer(self):
        return self.now

    def loop(self):
        self.now += 0.0005 / self.speed

    def work(self):
        self.now += 2.0 / self.speed
        return "done"


def test_normalisation_cancels_a_2x_slowdown():
    host = _FakeHost()
    clock = HostClock(loop=host.loop, nominal_loop_s=0.0005, period_s=None,
                      timer=host.timer)
    out, raw_fast, nominal_fast = clock.measure(host.work)
    assert out == "done"
    host.speed = 0.5
    _, raw_slow, nominal_slow = clock.measure(host.work)
    assert raw_slow == pytest.approx(2 * raw_fast)
    assert nominal_slow == pytest.approx(nominal_fast)
    assert nominal_fast == pytest.approx(2.0)
    assert clock.stats()["drift"] == pytest.approx(2.0)


def test_in_unit_sampling_is_excluded_from_raw_time():
    clock = HostClock(period_s=0.005)

    def busy():
        end = time.perf_counter() + 0.06
        while time.perf_counter() < end:
            pass

    t0 = time.perf_counter()
    _, raw, nominal = clock.measure(busy)
    wall = time.perf_counter() - t0
    assert clock._in_unit, "no reference loop ran inside the unit"
    assert raw < wall
    assert nominal > 0


# -- the contract -------------------------------------------------------------

def test_metric_names_and_units_match_the_benchmark_file():
    bench = _benchmark()
    for section in ("end_to_end", "per_layer"):
        for entry in bench[section]:
            assert NAME.match(entry["name"]), entry["name"]
    for entry in bench["workloads"]:
        assert NAME.match(entry["name"])
    assert [(e["name"], e["unit"]) for e in bench["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(e["name"], e["unit"]) for e in bench["per_layer"]] \
        == list(harness.PER_LAYER)
    assert sorted(e["name"] for e in bench["workloads"]) \
        == sorted(WORKLOADS)


def _tiny(name, seed, trace):
    report = harness.run_workload(name, seed, 0.0, trace, sizing=TINY)
    return report["result"], report["diagnostics"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_at_tiny_size(name, trace):
    result, diag = _tiny(name, 3, trace)
    assert result["correct"] and result["failed"] == 0, diag["failures"]
    assert result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
        == list(expected)
    for key, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), key
        assert math.isfinite(entry["value"]), key
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.attributed_share"] > 0.9
        assert m["sim.refs"] == diag["sim_per_pass"]["refs"]
    else:
        for key in ("host_s", "setup_s", "peak_rss_mb", "sim_refs_per_s",
                    "model_err_pp", "model_err_max_pp"):
            assert result["metrics"][key]["value"] > 0, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_outputs_repeat_across_runs(name):
    first, diag1 = _tiny(name, 1, False)
    second, diag2 = _tiny(name, 2, False)
    for key in ("model_err_pp", "model_err_max_pp"):
        assert first["metrics"][key]["value"] \
            == second["metrics"][key]["value"]
    assert diag1["sim_per_pass"] == diag2["sim_per_pass"]
    assert diag1["digest"] == diag2["digest"]
