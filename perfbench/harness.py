"""Runs one workload: set-up, timed passes, checks, metrics, provenance.

A *pass* runs every unit of the workload once, in a seeded order. The
timed phase runs an untimed warm-up (a quarter of the units), then whole
passes until ``--seconds`` have elapsed (at least one), and ``host_s``
is the sum over units of each unit's median nominal time, so one slow
sample of a unit does not move the total. Every execution of a unit must reproduce
its first execution exactly (result and simulated counters); a
difference is a failed operation.

With ``--trace 1`` the pass after the warm-up runs untraced and the
following ones with the layer wrappers of :mod:`perfbench.spans`
installed; per-layer figures are per pass, in nominal seconds, and
``trace.overhead_ratio`` is the traced pass time over the untraced one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from . import spans as sp
from .hostclock import HostClock
from .workloads import FULL, MODEL_ERRORS, Sizing, make, unit_order

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: Share of a pass the warm-up runs (rounded up, at least one unit).
WARMUP_SHARE = 0.25
#: A unit whose mean reference loop is this many times the run's median
#: ran through a burst of host contention; it is run again, at most
#: :data:`REMEASURE` times, and only the last run counts.
DISTURBED = 1.5
REMEASURE = 2
#: Upper bound on passes (protects tiny sizings run with a long budget).
MAX_PASSES = 50

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("sim_refs_per_s", "refs/s"), ("model_err_pp", "pp"),
    ("model_err_max_pp", "pp"),
)

#: (name, unit) of the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("apps.construct_s", "s"), ("apps.flows_built", "count"),
    ("apps.flows_stubbed", "count"), ("apps.generate_s", "s"),
    ("apps.packets", "count"), ("apps.generate_us_per_packet", "us"),
    ("hw.scalar_s", "s"), ("hw.scalar_refs", "count"),
    ("hw.scalar_ns_per_ref", "ns"), ("hw.build_s", "s"),
    ("sim.refs", "count"), ("sim.l1_hits", "count"),
    ("sim.l2_hits", "count"), ("sim.l3_hits", "count"),
    ("sim.l3_misses", "count"), ("sim.remote_refs", "count"),
    ("sim.mc_wait_cycles", "cycles"), ("sim.end_cycles", "cycles"),
    ("fastpath.batch_s", "s"), ("fastpath.batch_refs", "count"),
    ("fastpath.batch_ns_per_ref", "ns"), ("fastpath.pregen_s", "s"),
    ("fastpath.blocks", "count"), ("fastpath.stream_hits", "count"),
    ("fastpath.stream_misses", "count"),
    ("fastpath.stream_hit_ratio", "ratio"),
    ("sweep.dispatch_s", "s"), ("sweep.task_s", "s"),
    ("sweep.shards", "count"), ("sweep.executed", "count"),
    ("sweep.cache_hits", "count"), ("sweep.quarantined", "count"),
    ("check.window_s", "s"), ("check.windows", "count"),
    ("check.audit_s", "s"), ("check.violations", "count"),
    ("guard.window_s", "s"), ("guard.windows", "count"),
    ("guard.events", "count"), ("guard.audit_s", "s"),
    ("guard.unhandled", "count"),
    ("trace.host_s", "s"), ("trace.unattributed_s", "s"),
    ("trace.attributed_share", "ratio"), ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

#: Span self time -> per-layer metric.
SELF_TIME_METRICS = {
    "apps.construct": "apps.construct_s", "apps.generate": "apps.generate_s",
    "hw.run": "hw.scalar_s", "hw.build": "hw.build_s",
    "fastpath.batch": "fastpath.batch_s",
    "fastpath.pregen": "fastpath.pregen_s",
    "sweep.dispatch": "sweep.dispatch_s", "sweep.task": "sweep.task_s",
    "check.window": "check.window_s", "check.audit": "check.audit_s",
    "guard.window": "guard.window_s", "guard.audit": "guard.audit_s",
    "bench.unit": "trace.unattributed_s",
}

#: Tracer count -> per-layer metric.
COUNT_METRICS = {
    "flows_built": "apps.flows_built", "flows_stubbed": "apps.flows_stubbed",
    "scalar_refs": "hw.scalar_refs", "batch_refs": "fastpath.batch_refs",
    "blocks": "fastpath.blocks", "sweep_shards": "sweep.shards",
    "sweep_executed": "sweep.executed", "sweep_cache_hits": "sweep.cache_hits",
    "sweep_quarantined": "sweep.quarantined",
    "check_windows": "check.windows", "violations": "check.violations",
    "guard_windows": "guard.windows", "guard_events": "guard.events",
    "guard_unhandled": "guard.unhandled",
}


# -- provenance ---------------------------------------------------------------

def _git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> Dict[str, Any]:
    from repro.sweep.codeversion import code_version

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_revision": _git_revision(),
        "source_digest": code_version(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


# -- set-up -------------------------------------------------------------------

#: Run by a fresh interpreter: import the modules named as arguments,
#: timed and normalised by that interpreter's own host clock (a child's
#: speed is not the parent's, so the parent cannot normalise it).
_PROBE = (
    "import importlib, sys\n"
    "from perfbench.hostclock import HostClock, reference_loop\n"
    "for _ in range(50):\n"
    "    reference_loop()  # warm the yardstick, not the imports\n"
    "_, raw, nominal = HostClock().measure(lambda: [\n"
    "    importlib.import_module(m) for m in sys.argv[1:]])\n"
    "print(raw, nominal)\n"
)


def import_probe(modules) -> Tuple[float, float]:
    """``(raw_s, nominal_s)`` of a fresh interpreter importing ``modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _PROBE, *modules], env=env,
                         cwd=ROOT, check=True, timeout=120,
                         capture_output=True, text=True)
    raw, nominal = out.stdout.split()
    return float(raw), float(nominal)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


# -- the run ------------------------------------------------------------------

class Run:
    """State of one benchmark invocation."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 sizing: Sizing = FULL):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizing = sizing
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_nominal: List[float] = []
        self.setup_raw: List[float] = []
        self.samples: Dict[Any, List[float]] = defaultdict(list)
        self.traced_samples: Dict[Any, List[float]] = defaultdict(list)
        self.pass_nominal: List[float] = []
        self.pass_raw: List[float] = []
        self.first: Dict[Any, str] = {}
        self.sim: Dict[Any, Dict[str, float]] = {}
        self.layer_ns = [0.0] * len(sp.SPAN_NAMES)
        self.packets = 0
        self.recorder = None
        self.tracer = None
        self.stream_before = self.stream_after = None
        self.remeasured = 0

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(what)

    # -- phases -------------------------------------------------------------

    def setup(self, wl) -> None:
        reps = 1 if self.trace else self.sizing.setup_reps.get(self.name, 1)
        first = None
        for rep in range(reps):
            imp_raw, imp_nom = import_probe(wl.imports)
            canon, pre_raw, pre_nom = self.clock.measure(wl.setup)
            self.setup_nominal.append(imp_nom + pre_nom)
            self.setup_raw.append(imp_raw + pre_raw)
            canon = _canon(canon)
            if first is None:
                first = canon
            else:
                self.attempted += 1
                if canon != first:
                    self.fail(f"set-up repetition {rep} differs from the "
                              "first")

    def _unit(self, wl, key, traced: bool):
        if not traced:
            return wl.run_unit(key)
        root = self.recorder.begin(sp.NAME_ID["bench.unit"])
        try:
            return wl.run_unit(key)
        finally:
            self.recorder.end(root)

    def one_pass(self, wl, index: int, sim: sp.SimCounter,
                 samples) -> None:
        """One pass; unit times go to ``samples``.

        ``samples=None`` is the warm-up: the first :data:`WARMUP_SHARE`
        of a seeded order, untimed (first-touch memory, lazily built
        interpreter state), but checked like any other units.
        """
        traced = self.tracer is not None
        keys = unit_order(wl.units(), self.seed, index)
        if samples is None:
            keys = keys[:max(1, math.ceil(len(keys) * WARMUP_SHARE))]
        wl.begin_pass()
        bad = set()
        nominal = raw_total = 0.0
        for key in keys:
            # Every unit starts from the same collector state, so its
            # collections fall at the same allocations on every run.
            try:
                # Traced passes keep their first run: per-layer counts
                # are accumulated by the wrappers of every run.
                for _ in range(1 + (0 if traced else REMEASURE)):
                    out = None  # one unit's data alive at a time
                    gc.collect()
                    mark = sim.mark()
                    base = len(self.recorder.spans) if traced else 0
                    out, raw, nom = self.clock.measure(
                        lambda: self._unit(wl, key, traced))
                    if not self._disturbed():
                        break
                    self.remeasured += 1
            except Exception:
                bad.add(key)
                self.fail(f"unit {key!r} raised: "
                          + traceback.format_exc(limit=4))
                continue
            nominal += nom
            raw_total += raw
            if samples is not None:
                samples[key].append(nom)
            if traced:
                self._account(base, nom / raw if raw > 0 else 1.0)
            sim_delta = sim.since(mark)
            ok, canon = wl.summarize(key, out)
            out = None
            why = f"unit {key!r} failed its check"
            signature = _canon({"result": canon, "sim": sim_delta})
            if key not in self.first:
                self.first[key] = signature
                self.sim[key] = sim_delta
            elif signature != self.first[key]:
                ok = False
                why = f"unit {key!r} differs from its first execution"
            if not ok:
                bad.add(key)
                self.fail(why)
        self.attempted += len(keys)
        if samples is None:
            return
        pass_bad = set(wl.end_pass()) - bad
        if pass_bad:
            self.fail(f"pass {index}: {len(pass_bad)} unit(s) failed the "
                      "pass-level check", n=len(pass_bad))
        self.pass_nominal.append(nominal)
        self.pass_raw.append(raw_total)

    def _disturbed(self) -> bool:
        """Did the last unit run through a burst far beyond the run's usual
        host speed? Normalisation over-corrects in such bursts."""
        loops = self.clock.unit_loops
        return loops[-1] > DISTURBED * statistics.median(loops)

    def _account(self, base: int, factor: float) -> None:
        """Charge one unit's spans to their layers, in nominal ns."""
        unit_spans = self.recorder.spans[base:]
        for i, ns in enumerate(sp.self_times(unit_spans, base,
                                             self.recorder.paused)):
            self.layer_ns[i] += ns * factor
        self.packets += sp.top_level_packets(unit_spans, base)

    def timed(self, wl, sim: sp.SimCounter) -> int:
        """Warm-up, then whole passes until the budget is spent.

        Traced runs time one untraced pass, then trace the rest. Returns
        the number of traced passes.
        """
        # Keep what set-up built out of every later collection.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        tracer_patches = None
        traced_passes = 0
        index = 0
        last_required = 2 if self.trace else 1
        try:
            self.one_pass(wl, index, sim, None)
            while True:
                index += 1
                if self.trace and index >= 2 and tracer_patches is None:
                    self.recorder = sp.SpanRecorder()
                    self.tracer = sp.LayerTracer(self.recorder)
                    tracer_patches = sp.Patcher()
                    self.tracer.install(tracer_patches)
                    self.stream_before = sp.stream_cache_stats()
                    self.clock.on_sample = self.recorder.pause
                traced = tracer_patches is not None
                self.one_pass(wl, index, sim, self.traced_samples if traced
                              else self.samples)
                traced_passes += traced
                elapsed = time.perf_counter() - start
                if index >= MAX_PASSES or (index >= last_required
                                           and elapsed >= self.seconds):
                    break
        finally:
            gc.unfreeze()
            if tracer_patches is not None:
                self.clock.on_sample = None
                self.stream_after = sp.stream_cache_stats()
                tracer_patches.restore()
        return traced_passes

    # -- metrics ------------------------------------------------------------

    def _pass_time(self, samples) -> float:
        return sum(statistics.median(v) for v in samples.values())

    def sim_totals(self) -> Dict[str, float]:
        """Simulated counters of one pass (exact, order-free)."""
        fields = sorted({f for d in self.sim.values() for f in d})
        out = {}
        for f in fields:
            values = [d[f] for d in self.sim.values()]
            out[f] = (sum(values) if all(isinstance(v, int) for v in values)
                      else math.fsum(values))
        return out

    def end_to_end(self, wl, peak_rss_mb: float) -> Dict[str, float]:
        host_s = self._pass_time(self.samples)
        mean_pp, max_pp = wl.model_errors()
        return {
            "host_s": host_s,
            "setup_s": statistics.median(self.setup_nominal),
            "peak_rss_mb": peak_rss_mb,
            "sim_refs_per_s": self.sim_totals()["refs"] / host_s,
            "model_err_pp": mean_pp,
            "model_err_max_pp": max_pp,
        }

    def per_layer(self, traced_passes: int) -> Dict[str, float]:
        n = max(1, traced_passes)
        out: Dict[str, float] = {}
        for span_name, metric in SELF_TIME_METRICS.items():
            out[metric] = self.layer_ns[sp.NAME_ID[span_name]] / n / 1e9
        counts = self.tracer.counts
        for key, metric in COUNT_METRICS.items():
            out[metric] = counts.get(key, 0) / n
        out["apps.packets"] = self.packets / n
        out["apps.generate_us_per_packet"] = (
            out["apps.generate_s"] / out["apps.packets"] * 1e6
            if out["apps.packets"] else 0.0)
        out["hw.scalar_ns_per_ref"] = (
            out["hw.scalar_s"] / out["hw.scalar_refs"] * 1e9
            if out["hw.scalar_refs"] else 0.0)
        out["fastpath.batch_ns_per_ref"] = (
            out["fastpath.batch_s"] / out["fastpath.batch_refs"] * 1e9
            if out["fastpath.batch_refs"] else 0.0)
        hits = (self.stream_after["hits"] - self.stream_before["hits"]) / n
        misses = (self.stream_after["misses"]
                  - self.stream_before["misses"]) / n
        out["fastpath.stream_hits"] = hits
        out["fastpath.stream_misses"] = misses
        out["fastpath.stream_hit_ratio"] = (hits / (hits + misses)
                                            if hits + misses else 0.0)
        for field, value in self.sim_totals().items():
            if field != "runs":
                out["sim." + field] = value
        traced = self._pass_time(self.traced_samples)
        out["trace.host_s"] = traced
        out["trace.attributed_share"] = (
            1.0 - out["trace.unattributed_s"] / traced if traced else 0.0)
        out["trace.overhead_ratio"] = traced / self._pass_time(self.samples)
        out["trace.spans"] = len(self.recorder.spans) / n
        return {name: out[name] for name, _ in PER_LAYER}

    # -- output -------------------------------------------------------------

    def digest(self, wl) -> str:
        doc = _canon({"result": wl.canonical(),
                      "sim": {repr(k): self.sim[k]
                              for k in sorted(self.sim, key=repr)}})
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def write_spans(self, path: str) -> None:
        """The traced passes as a Chrome trace_event file (Perfetto)."""
        spans = self.recorder.spans
        t0 = spans[0][1] if spans else 0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for i, (name_id, start, end, _parent) in enumerate(spans):
                fh.write(("," if i else "") + json.dumps({
                    "name": sp.SPAN_NAMES[name_id], "ph": "X", "pid": 1,
                    "tid": 1, "ts": (start - t0) / 1e3,
                    "dur": (end - start) / 1e3}) + "\n")
            fh.write("]}\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizing: Sizing = FULL, out_dir: str = None) -> Dict[str, Any]:
    """One invocation; returns ``{"result": ..., "diagnostics": ...}``."""
    run = Run(name, seed, seconds, trace, sizing)
    patches = sp.Patcher()
    sim = sp.SimCounter()
    try:
        sim.install(patches)
        wl = make(name, sizing, seed)
        if hasattr(wl, "capture"):
            wl.capture(patches)
        run.setup(wl)
        traced_passes = run.timed(wl, sim)
        # Peak memory of set-up and timed work, before the post-run
        # checks (whose footprint depends on the seeded sample).
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for key in wl.verify():
            run.fail(f"unit {key!r} failed the post-run check")
    finally:
        patches.restore()
    if trace:
        metrics = run.per_layer(traced_passes)
        units = dict(PER_LAYER)
    else:
        metrics = run.end_to_end(wl, peak_rss_mb)
        units = dict(END_TO_END)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    totals = run.sim_totals()
    diagnostics = {
        "workload": name,
        "trace": int(trace),
        "provenance": provenance(seed),
        "passes": len(run.pass_nominal),
        "traced_passes": traced_passes,
        "units": len(wl.units()),
        "pass_nominal_s": run.pass_nominal,
        "pass_raw_s": run.pass_raw,
        "setup_nominal_s": run.setup_nominal,
        "setup_raw_s": run.setup_raw,
        "reference_loop": run.clock.stats(),
        "remeasured_units": run.remeasured,
        "sim_per_pass": {k: v for k, v in totals.items() if k != "runs"},
        "sim_runs_per_pass": totals.get("runs"),
        "model_error": MODEL_ERRORS[name],
        "digest": run.digest(wl),
        "failures": run.failures,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
        with open(stem + ".json", "w") as fh:
            json.dump({"result": result, "diagnostics": diagnostics}, fh,
                      indent=1, sort_keys=True)
        if trace:
            run.write_spans(stem + ".spans.json")
            diagnostics["spans_file"] = os.path.relpath(
                stem + ".spans.json", ROOT)
    return {"result": result, "diagnostics": diagnostics}
