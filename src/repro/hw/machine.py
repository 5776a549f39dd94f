"""The simulated machine and its event-driven timing engine.

A :class:`Machine` hosts one flow per core (the paper's configuration,
Section 2.2). Each flow repeatedly produces per-packet *access programs*
(via its application's functional layer) which the engine replays against
the core's private L1/L2, the socket's shared L3, and the NUMA-aware
memory controllers. Cores are interleaved at memory-reference granularity
by always advancing the core with the smallest local clock, so co-runners'
references contend in the shared cache exactly as on real hardware.

One driver does the interleaving for both engines. Each flow runs in a
suspended window loop that the driver resumes until the flow's clock
passes the next core's. ``engine="scalar"`` puts every flow on the live
loop here, which generates each packet on demand; ``engine="batch"``
(:mod:`repro.fastpath`) gives timing-pure flows a loop that replays
pregenerated streams instead.

Placement is explicit: ``add_flow(factory, core=..., data_domain=...)``
controls both which socket executes a flow and which memory domain holds
its data, which is how the three configurations of the paper's Figure 3
(cache-only, memory-controller-only, and combined contention) are built.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional

from ..constants import CACHE_LINE_BITS, DEFAULT_SEED, NUMA_DOMAIN_SHIFT
from ..mem.access import AccessContext, TAGS
from ..mem.allocator import AddressSpace
from ..obs.session import current_session
from ..obs.trace import NULL_TRACER, Tracer
from .cache import SetAssociativeCache
from .counters import CoreCounters, FlowStats
from .dram import UTILIZATION_WINDOW, MemoryController
from .interconnect import QPILink
from .topology import PlatformSpec

#: Shift converting a global line index to its NUMA domain.
_DOMAIN_LINE_SHIFT = NUMA_DOMAIN_SHIFT - CACHE_LINE_BITS

#: Safety valve: abort runs that exceed this many memory references.
MAX_EVENTS = 400_000_000


@dataclass
class FlowEnv:
    """Everything an application factory needs to build a flow instance."""

    space: AddressSpace
    domain: int
    spec: PlatformSpec
    rng: random.Random


class FlowRun:
    """Run state of one flow pinned to one core."""

    __slots__ = (
        "index", "label", "flow", "core", "socket", "data_domain", "measured",
        "ctx", "prog", "pc", "prog_len", "clock", "counters",
        "warmup_target", "measure_target", "snap_start", "snap_end", "done",
        "latencies", "packet_start", "regions", "signature",
    )

    def __init__(self, index: int, label: str, flow, core: int, socket: int,
                 data_domain: int, measured: bool):
        self.index = index
        self.label = label
        self.flow = flow
        self.core = core
        self.socket = socket
        self.data_domain = data_domain
        self.measured = measured
        self.ctx = AccessContext()
        self.prog: List[int] = []
        self.pc = 0
        self.prog_len = -1  # -1: no packet generated yet
        self.clock = 0.0
        self.counters = CoreCounters()
        self.warmup_target = 0
        self.measure_target = 0
        self.snap_start: Optional[CoreCounters] = None
        self.snap_end: Optional[CoreCounters] = None
        self.done = False
        #: Per-packet completion latencies (cycles) within the measurement
        #: window; populated only when the machine records latencies.
        self.latencies: Optional[List[float]] = None
        self.packet_start = 0.0
        #: Regions this flow allocated during construction (captured by
        #: ``add_flow``); the batch engine's stream cache re-expresses
        #: cached access streams relative to these.
        self.regions: List = []
        #: The stream signature its innermost factory declares (None:
        #: never stream-cached); the batch engine's cache key.
        self.signature = None


class RunResult:
    """Outcome of one :meth:`Machine.run`: per-flow statistics."""

    def __init__(self, spec: PlatformSpec, flows: List[FlowRun],
                 events: int, end_clock: float, metrics=None):
        self.spec = spec
        self.events = events
        self.end_clock = end_clock
        #: The run's MetricsSampler when time-series sampling was on.
        self.metrics = metrics
        self.stats: Dict[str, FlowStats] = {}
        self.flow_labels: List[str] = []
        for fr in flows:
            if fr.snap_start is None or fr.snap_end is None:
                continue
            delta = fr.snap_end.delta(fr.snap_start)
            self.stats[fr.label] = FlowStats(delta, spec.freq_hz,
                                             latencies=fr.latencies)
            self.flow_labels.append(fr.label)

    def __getitem__(self, label: str) -> FlowStats:
        return self.stats[label]

    def throughput(self, label: str) -> float:
        """Measured packets/sec of flow ``label``."""
        return self.stats[label].packets_per_sec

    def total_l3_refs_per_sec(self, exclude: Optional[str] = None) -> float:
        """Sum of measured L3 refs/sec over all flows except ``exclude``."""
        return sum(
            s.l3_refs_per_sec for lbl, s in self.stats.items() if lbl != exclude
        )

    def timeseries(self, label: str):
        """The sampled :class:`~repro.obs.metrics.FlowSeries` of one flow.

        Requires the machine to have run with a metrics sampler attached.
        """
        if self.metrics is None:
            raise RuntimeError(
                "no metrics were sampled; pass metrics=MetricsSampler(...) "
                "to Machine or run inside repro.obs.observe(...)"
            )
        return self.metrics.series(label)

    def report(self, kind: str = "run", config=None) -> "object":
        """This run as a machine-readable :class:`~repro.obs.RunReport`."""
        from ..obs.report import RunReport

        report = RunReport.new(kind, spec=self.spec, config=config)
        report.add_result_flows(self)
        report.results["events"] = self.events
        report.results["end_clock_cycles"] = self.end_clock
        if self.metrics is not None:
            report.attach_metrics(self.metrics)
        return report


def flow_layers(flow) -> List:
    """``flow`` and the flows it wraps through ``inner``, outermost first.

    The walk descends only through layers that are not timing-pure (the
    throttle and guard wrappers) and stops at the first timing-pure one,
    so it never probes a construction-free skeleton
    (:class:`~repro.fastpath.streams.StubFlow`), which stands for a
    timing-pure flow and would materialize on an unknown attribute.
    """
    layers = [flow]
    while not getattr(flow, "timing_pure", False):
        flow = getattr(flow, "inner", None)
        if flow is None:
            break
        layers.append(flow)
    return layers


def _audit_wrapper_identity(flow, declared_wrappers: int,
                            signatured: bool) -> None:
    """Reject flows whose identity the stream cache or labels would alias.

    A wrapper (throttle, two-faced composite, guard) must not reuse its
    wrapped flow's name: labels derived from it could not tell them
    apart. And a signatured factory must declare through
    ``inner_factory`` exactly the layers of its product that are not
    timing-pure: on a warm cache :meth:`Machine.add_flow` stands a
    skeleton of the innermost factory's flow in for the product, wrapped
    only in the declared wrappers, so an undeclared layer (a throttle
    built inside the factory) would silently drop out, and the stream
    of a timing-pure wrapper would be cached under its inner flow's
    signature.
    """
    if signatured and sum(not getattr(layer, "timing_pure", False)
                          for layer in flow_layers(flow)) != declared_wrappers:
        raise ValueError(
            f"factory of {getattr(flow, 'name', '?')!r} declares a stream "
            f"signature and {declared_wrappers} wrapper(s), but its flow "
            "has a different number of layers that are not timing-pure; "
            "a cached skeleton would not stand for it")
    name = getattr(flow, "name", None)
    if name is None:
        return
    for attr in ("inner", "innocent", "aggressive"):
        inner = getattr(flow, attr, None)
        if (inner is not None and hasattr(inner, "run_packet")
                and name == getattr(inner, "name", None)):
            raise ValueError(
                f"wrapper flow reuses its wrapped flow's name {name!r}; "
                "labels derived from it could not tell them apart")


class Machine:
    """One simulated server. Build it, add flows, call :meth:`run` once."""

    def __init__(self, spec: Optional[PlatformSpec] = None, seed: int = DEFAULT_SEED,
                 record_latencies: bool = False,
                 tracer: Optional[Tracer] = None, metrics=None,
                 checker=None, guard=None):
        self.spec = spec if spec is not None else PlatformSpec.westmere()
        self.seed = seed
        self.record_latencies = record_latencies
        # Explicit observability arguments win; otherwise inherit the
        # ambient obs session (repro.obs.observe), if one is active.
        session = current_session()
        if session is not None:
            if tracer is None:
                tracer = session.tracer
            if metrics is None:
                metrics = session.new_sampler()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The three observer slots. The driver runs them as one ordered
        # list (guard, checker, metrics), each on its own per-flow
        # deadlines every ``interval_cycles`` (see _observer_schedule).
        #: Optional ``repro.obs.MetricsSampler`` (one run's time series).
        self.metrics = metrics
        #: Optional ``repro.check.InvariantChecker``: conservation checks
        #: at packet-boundary windows plus the full machine-wide audit
        #: at end of run.
        self.checker = checker
        #: Optional ``repro.guard.SLOGuard``: watches per-flow windows
        #: and steers guarded flows' throttles.
        self.guard = guard
        self.space = AddressSpace(self.spec.n_sockets)
        self.l3 = [
            SetAssociativeCache(self.spec.l3_size, self.spec.l3_ways, f"L3.{s}")
            for s in range(self.spec.n_sockets)
        ]
        self.mcs = [
            MemoryController(d, self.spec.mc_service_cycles)
            for d in range(self.spec.n_sockets)
        ]
        self.qpi = QPILink(self.spec.qpi_extra_cycles, self.spec.qpi_service_cycles)
        self.flows: List[FlowRun] = []
        self._cores_used: Dict[int, str] = {}
        self._l1: Dict[int, SetAssociativeCache] = {}
        self._l2: Dict[int, SetAssociativeCache] = {}
        #: Cores whose flow replays prefiltered level codes (batch
        #: engine): their L1/L2 contents are only installed at run end.
        self.prefiltered_cores: set = set()
        self._ran = False

    # -- construction --------------------------------------------------------

    def add_flow(
        self,
        factory: Callable[[FlowEnv], object],
        core: int,
        data_domain: Optional[int] = None,
        measured: bool = True,
        label: Optional[str] = None,
    ) -> FlowRun:
        """Instantiate a flow on ``core`` with data homed in ``data_domain``.

        ``data_domain`` defaults to the core's own socket (the paper's
        NUMA-local production configuration).
        """
        if self._ran:
            raise RuntimeError("machine already ran; build a fresh Machine")
        socket = self.spec.socket_of(core)
        if core in self._cores_used:
            raise ValueError(
                f"core {core} already runs flow {self._cores_used[core]!r} "
                "(the paper's configuration is one flow per core)"
            )
        if data_domain is None:
            data_domain = socket
        if not 0 <= data_domain < self.spec.n_sockets:
            raise ValueError(f"no such NUMA domain: {data_domain}")
        flow = stub = None
        regions = None
        # Skeleton fast path: under the ambient batch engine, a factory
        # that declares its stream signature and whose stream (plus
        # construction metadata) is already cached gets a construction-free
        # StubFlow over the recorded region layout — the replay engine
        # never needs the real flow object (see repro.fastpath.streams).
        # A wrapper factory (throttle, guard) exposes its inner factory;
        # the wrappers are then built around the inner flow's stub.
        wraps = []
        inner_factory = factory
        while getattr(inner_factory, "inner_factory", None) is not None:
            wraps.append(inner_factory.wrap)
            inner_factory = inner_factory.inner_factory
        factory_sig = getattr(inner_factory, "stream_signature", None)
        if factory_sig is not None and not self.tracer.active:
            from ..fastpath import default_engine

            if default_engine() == "batch":
                from ..fastpath import streams as _fastpath

                key = _fastpath.key_for_signature(
                    factory_sig, self.seed, core, self.spec)
                meta = _fastpath.STREAM_CACHE.skeleton_meta(key)
                if meta is not None:
                    regions = [
                        self.space.alloc(
                            size, rname,
                            data_domain if is_data_rel else abs_dom)
                        for rname, size, is_data_rel, abs_dom in meta.layout
                    ]
                    flow = stub = _fastpath.StubFlow(
                        inner_factory, meta, regions,
                        self.seed, core, data_domain, self.spec)
                    # Wrappers allocate nothing and draw no randomness,
                    # so the layout and the stream are the inner flow's.
                    for wrap in reversed(wraps):
                        flow = wrap(flow)
        if flow is None:
            rng = random.Random(
                (self.seed * 1_000_003 + core * 7919) & 0xFFFFFFFF)
            env = FlowEnv(space=self.space, domain=data_domain,
                          spec=self.spec, rng=rng)
            # Snapshot allocation marks so the regions this factory
            # allocates can be attributed to the flow (the batch engine's
            # stream cache needs them to re-express streams in
            # region-relative form).
            marks = {
                d: len(self.space.domain(d).regions)
                for d in range(self.spec.n_sockets)
            }
            flow = factory(env)
            # Audit on the construction path only: probing a cached
            # skeleton's attributes would materialize it (a skeleton's
            # identity was already audited when its stream was recorded).
            _audit_wrapper_identity(flow, len(wraps), factory_sig is not None)
            regions = []
            for d in range(self.spec.n_sockets):
                regions.extend(self.space.domain(d).regions[marks[d]:])
        name = getattr(flow, "name", flow.__class__.__name__)
        if label is None:
            label = f"{name}@{core}"
        if any(fr.label == label for fr in self.flows):
            raise ValueError(f"duplicate flow label {label!r}")
        fr = FlowRun(len(self.flows), label, flow, core, socket, data_domain, measured)
        fr.regions = regions
        fr.signature = factory_sig
        self.flows.append(fr)
        self._cores_used[core] = label
        self._l1[core] = SetAssociativeCache(
            self.spec.l1_size, self.spec.l1_ways, f"L1.{core}"
        )
        self._l2[core] = SetAssociativeCache(
            self.spec.l2_size, self.spec.l2_ways, f"L2.{core}"
        )
        attach = getattr(flow, "attach_run", None)
        if attach is not None:
            attach(self, fr)
        if stub is not None:
            # Forward the attach hook when/if the stub materializes.
            def _attach_real(real, machine=self, flow_run=fr):
                hook = getattr(real, "attach_run", None)
                if hook is not None:
                    hook(machine, flow_run)

            stub._attach = _attach_real
        return fr

    def invalidate_private(self, lines, core: int) -> None:
        """Invalidate ``lines`` in ``core``'s private L1/L2 (cache-to-cache
        transfer of a written-shared line: the next reader pays an L3 access).

        Used by the pipeline-handoff model; the shared L3 keeps the line.
        Handoff stages run live, so a core replaying prefiltered private
        outcomes is never a legitimate target.
        """
        if core in self.prefiltered_cores:
            raise RuntimeError(
                f"invalidate_private targets core {core}, whose private "
                "cache outcomes were prefiltered from its own stream")
        l1 = self._l1.get(core)
        l2 = self._l2.get(core)
        for line in lines:
            if l1 is not None:
                l1.invalidate(line)
            if l2 is not None:
                l2.invalidate(line)

    # -- execution -----------------------------------------------------------

    def run(self, warmup_packets: int = 200, measure_packets: int = 1000,
            max_events: int = MAX_EVENTS,
            engine: Optional[str] = None) -> RunResult:
        """Run until every measured flow completes its measurement window.

        Per-flow packet targets are scaled by the flow's ``measure_weight``
        attribute (slow flows like FW measure fewer packets so that mixed
        runs finish in comparable simulated time; rates are unaffected).

        ``engine`` selects how flows feed the shared driver: ``"scalar"``
        runs every flow on the live per-packet window loop, ``"batch"``
        (:func:`repro.fastpath.engine.run_batch`) replays pregenerated
        streams for timing-pure flows instead (identical results, faster),
        and None uses the ambient default set via
        :func:`repro.fastpath.use_engine` / ``set_default_engine``.
        """
        if engine is None:
            from ..fastpath import default_engine

            engine = default_engine()
        if engine == "batch":
            from ..fastpath.engine import run_batch

            return run_batch(self, warmup_packets, measure_packets, max_events)
        if engine != "scalar":
            raise ValueError(
                f"unknown engine {engine!r} (choose 'scalar' or 'batch')"
            )
        return self._drive(warmup_packets, measure_packets, max_events)

    def _drive(self, warmup_packets: int, measure_packets: int,
               max_events: int, replay=None) -> RunResult:
        """The execution driver behind both engines.

        Every flow runs in a suspended window loop; a heap interleaves
        them at memory-reference granularity by always resuming the core
        with the smallest clock, with the next core's clock as the limit
        of its window. A loop yields only once its clock has passed that
        limit, so each switch is one ``heapreplace`` and one call of the
        loop's pre-bound ``send``.
        ``replay(fr, shared, env)`` (the batch engine's hook) may return a
        flow's window loop; flows it declines, and every flow when it is
        None, run on :func:`_live_loop`.

        The run stops when the loop that completes the last measured
        flow's window returns; its ``StopIteration`` ends the driver,
        which closes the other loops. (PEP 479 turns a ``StopIteration``
        leaking from ``run_packet`` into a ``RuntimeError``, so only a
        loop's own return stops the run.) A single-flow run is sent an
        infinite limit once. Loops add their references to ``ev`` per
        packet and their partial packet when closed; the max-events
        guard reads it when a packet loads.
        """
        if self._ran:
            raise RuntimeError("machine already ran; build a fresh Machine")
        if not self.flows:
            raise RuntimeError("no flows configured")
        self._ran = True

        flows = self.flows
        for fr in flows:
            weight = float(getattr(fr.flow, "measure_weight", 1.0))
            fr.warmup_target = max(50, int(warmup_packets * weight))
            fr.measure_target = fr.warmup_target + max(100, int(measure_packets * weight))
            if self.record_latencies:
                fr.latencies = []

        n_waiting = sum(1 for fr in flows if fr.measured)
        if n_waiting == 0:
            raise RuntimeError("at least one flow must be measured")

        observers = [obs for obs in (self.guard, self.checker, self.metrics)
                     if obs is not None]
        tracer = self.tracer
        trace_on = tracer.active
        if trace_on:
            tracer.begin_run(self)
        for obs in observers:
            obs.begin(self)
        # Only observers read a suspended flow's clock and l3_refs (the
        # guard retargets throttles of flows it is not sampling); without
        # them the loops publish those at packet boundaries only.
        observed = bool(observers)
        metrics_due = observe = None
        if observed:
            metrics_due, observe = _observer_schedule(observers, len(flows))
        mem_sample = tracer.mem_sample if trace_on else 0

        # Shared mutable cells: only one window loop runs at a time.
        ev = [0]             # references of the packets counted so far
        nw = [n_waiting]     # measured flows still short of their target
        spec = self.spec
        # Latencies as floats keep the loops' clock arithmetic on
        # float + float (an int operand converts to the same double).
        shared = (float(spec.lat_l1), float(spec.lat_l2), float(spec.lat_l3),
                  float(spec.lat_l3 + spec.lat_dram_extra), self.mcs, self.qpi,
                  spec.l1_ways, spec.l2_ways, spec.l3_ways, max_events,
                  _DOMAIN_LINE_SHIFT,
                  observe, metrics_due, observed, ev, nw)

        # A machine built under the ambient batch engine may hold
        # construction-skipped StubFlows; the live loop needs the real
        # flow objects. (Stubs can only exist if fastpath.streams was
        # imported, so probing sys.modules avoids pulling numpy into
        # scalar-only processes.)
        _fastpath = sys.modules.get(
            __name__.split(".")[0] + ".fastpath.streams")
        gens: List = []
        for fr in flows:
            l1 = self._l1[fr.core]
            l2 = self._l2[fr.core]
            l3 = self.l3[fr.socket]
            env = (l1.sets, l1.n_sets, l2.sets, l2.n_sets, l3.sets, l3.n_sets,
                   fr.socket)
            gen = replay(fr, shared, env) if replay is not None else None
            if gen is None:
                if _fastpath is not None:
                    _fastpath.materialize_stub(fr)
                gen = _live_loop(fr, shared, env, tracer, trace_on, mem_sample)
            gen.send(None)
            gens.append(gen)

        n_tags = len(TAGS)
        heap: List = []
        for fr in flows:
            fr.counters._grow_tags()
            if len(fr.counters.tag_refs) < n_tags:  # pragma: no cover - defensive
                raise RuntimeError("tag registry changed mid-run")
            heappush(heap, (fr.clock, fr.index))

        sends = [gen.send for gen in gens]
        i = heappop(heap)[1]
        try:
            if not heap:
                sends[i](float("inf"))
            while True:
                i = heapreplace(heap, (sends[i](heap[0][0]), i))[1]
        except StopIteration:
            pass
        finally:
            # Suspended loops flush their state in their finally blocks.
            for gen in gens:
                gen.close()
        events = ev[0]

        # Close statistics for flows that never reached their measure target
        # (pure competitors kept running for contention): report whatever
        # full window is available past their warm-up.
        end_clock = max(fr.clock for fr in flows)
        for fr in flows:
            if fr.snap_start is not None and fr.snap_end is None:
                fr.counters.cycles = fr.clock
                fr.snap_end = fr.counters.copy()
        # End-of-run flush for flows with closed control loops (e.g.
        # throttles whose adjust window never filled): runs after the
        # measurement snapshots close, so it never perturbs reported
        # statistics. StubFlow carries ``finish_run = None`` as a class
        # attribute so cached skeletons are not materialized just to be
        # asked.
        for fr in flows:
            hook = getattr(fr.flow, "finish_run", None)
            if hook is not None:
                hook()
        if trace_on:
            tracer.end_run(end_clock, events)
        result = RunResult(self.spec, flows, events, end_clock,
                           metrics=self.metrics)
        for obs in observers:
            obs.after_run(self, result)
        return result


def _observer_schedule(observers, n_flows):
    """Per-flow deadlines of the run's observers, merged for the loops.

    Every observer implements ``begin(machine)``, ``window(flow_index,
    clock, counters)`` and ``after_run(machine, result)``, and exposes
    ``interval_cycles`` (read after ``begin``). Each owns one deadline
    per flow, first due at one interval and advanced by its own
    interval past every window it sees. Returns ``(next_due,
    observe)``: ``next_due[i]`` is flow ``i``'s earliest deadline over
    all observers, and the window loops call ``observe(i, clock,
    counters)`` at a packet boundary once ``clock >= next_due[i]``; it
    hands the window to every due observer in list order.
    """
    schedule = [(obs, obs.interval_cycles, [obs.interval_cycles] * n_flows)
                for obs in observers]
    next_due = [min(obs.interval_cycles for obs in observers)] * n_flows

    def observe(i: int, clock: float, counters) -> None:
        first = float("inf")
        for obs, interval, dues in schedule:
            due = dues[i]
            if due <= clock:
                obs.window(i, clock, counters)
                while due <= clock:
                    due += interval
                dues[i] = due
            if due < first:
                first = due
        next_due[i] = first

    return next_due, observe


def _event_limit_error(max_events: int) -> RuntimeError:
    return RuntimeError(
        f"simulation exceeded {max_events} events; "
        "reduce packet counts or platform scale"
    )


def _live_loop(fr, shared, env, tracer, trace_on, mem_sample):
    """Window loop of one live flow: generates each packet on demand.

    Primed with ``send(None)``; every later ``send(limit)`` runs the flow
    until its clock passes ``limit`` (the next core's clock) and yields
    that clock. Per-reference counters live in locals and are written
    to the flow's :class:`CoreCounters` at every packet boundary (before
    anything there reads them) and on ``close()``; a suspension point
    publishes ``fr.clock`` and ``l3_refs`` only when the run has
    observers. ``close()`` leaves the flow's run state consistent.
    """
    (lat_l1, lat_l2, lat_l3, lat_dram, mcs, qpi,
     l1_ways, l2_ways, l3_ways, max_events, domain_shift,
     observe, metrics_due, observed, ev, nw) = shared
    (my_l1, my_l1_n, my_l2, my_l2_n, my_l3, my_l3_n, home) = env
    window = UTILIZATION_WINDOW
    qpi_service = qpi.service_cycles
    qpi_extra = qpi.extra_cycles
    fl = fr.flow
    ctx = fr.ctx
    c = fr.counters
    i = fr.index
    tag_refs = c.tag_refs
    tag_hits = c.tag_hits
    warmup_target = fr.warmup_target
    measure_target = fr.measure_target
    prog = fr.prog
    pc = fr.pc
    prog_len = fr.prog_len
    l1h = c.l1_hits
    l2h = c.l2_hits
    l3r = c.l3_refs
    l3h = c.l3_hits
    l3m = c.l3_misses
    rr = c.remote_refs
    g = c.gap_cycles
    mcw = c.mc_wait_cycles

    limit = yield
    clock = fr.clock
    try:
        while True:
            if pc >= prog_len:
                # -- packet boundary --------------------------------------
                if prog_len >= 0:
                    clock += ctx.trailing_gap
                    g += ctx.trailing_gap
                    c.l1_hits = l1h
                    c.l2_hits = l2h
                    c.l3_refs = l3r
                    c.l3_hits = l3h
                    c.l3_misses = l3m
                    c.remote_refs = rr
                    c.gap_cycles = g
                    c.mc_wait_cycles = mcw
                    if not ctx.is_idle:
                        c.packets += 1
                        if (fr.latencies is not None
                                and fr.snap_start is not None
                                and not fr.done):
                            fr.latencies.append(clock - fr.packet_start)
                        if trace_on:
                            tracer.packet(
                                i, fr.packet_start, clock, c.packets,
                                marks=getattr(fl, "trace_marks", None))
                    if c.packets == warmup_target and fr.snap_start is None:
                        c.cycles = clock
                        fr.snap_start = c.copy()
                        if trace_on:
                            tracer.phase(i, clock, "measure_begin",
                                         packets=c.packets)
                    elif c.packets == measure_target and not fr.done:
                        c.cycles = clock
                        fr.snap_end = c.copy()
                        fr.done = True
                        if trace_on:
                            tracer.phase(i, clock, "measure_end",
                                         packets=c.packets)
                        if fr.measured:
                            nw[0] -= 1
                            if nw[0] == 0:
                                return
                    if observed and clock >= metrics_due[i]:
                        observe(i, clock, c)
                # -- generate next packet ---------------------------------
                ev[0] += pc // 3     # the finished packet's references
                pc = 0
                if ev[0] > max_events:
                    raise _event_limit_error(max_events)
                ctx.reset()
                # Keep the public run state current: flows with live
                # feedback (ThrottledFlow, GuardedFlow) read their own
                # clock and counters during generation.
                fr.clock = clock
                fr.packet_start = clock
                dma = fl.run_packet(ctx)
                ctx.finish_packet()
                c.instructions += ctx.instructions
                if dma:
                    for line in dma:
                        s = my_l1[line % my_l1_n]
                        if line in s:
                            s.remove(line)
                        s = my_l2[line % my_l2_n]
                        if line in s:
                            s.remove(line)
                        s = my_l3[line % my_l3_n]
                        if line in s:
                            s.remove(line)
                prog = fr.prog = ctx.program
                prog_len = len(prog)
                # A packet with no memory references must still advance
                # time via its trailing gap, or the loop would never make
                # progress.
                if prog_len == 0 and ctx.trailing_gap <= 0:
                    raise RuntimeError(
                        f"flow {fr.label!r} produced an empty, "
                        "zero-time packet"
                    )
                if clock > limit:
                    limit = yield clock
                continue

            # -- one memory reference -------------------------------------
            gap = prog[pc]
            line = prog[pc + 1]
            now = clock + gap
            s = my_l1[line % my_l1_n]
            if line in s:
                s.remove(line)
                s.append(line)
                l1h += 1
                clock = now + lat_l1
            else:
                s.append(line)
                if len(s) > l1_ways:
                    s.pop(0)
                s2 = my_l2[line % my_l2_n]
                if line in s2:
                    s2.remove(line)
                    s2.append(line)
                    l2h += 1
                    clock = now + lat_l2
                else:
                    s2.append(line)
                    if len(s2) > l2_ways:
                        s2.pop(0)
                    l3r += 1
                    tag = prog[pc + 2]
                    tag_refs[tag] += 1
                    s3 = my_l3[line % my_l3_n]
                    if line in s3:
                        s3.remove(line)
                        s3.append(line)
                        l3h += 1
                        tag_hits[tag] += 1
                        clock = now + lat_l3
                    else:
                        s3.append(line)
                        if len(s3) > l3_ways:
                            s3.pop(0)
                        l3m += 1
                        dom = line >> domain_shift
                        # UtilizationQueue.request, inline (see hw.dram).
                        mc = mcs[dom]
                        mc.requests += 1
                        mc.window_busy += mc.service_cycles
                        if now - mc.window_start >= window:
                            mc.roll(now)
                        wait = mc.wait
                        lat = lat_dram + wait
                        mcw += wait
                        if dom != home:
                            # QPILink.transfer, inline.
                            qpi.requests += 1
                            qpi.window_busy += qpi_service
                            if now - qpi.window_start >= window:
                                qpi.roll(now)
                            lat += qpi.wait + qpi_extra
                            rr += 1
                        clock = now + lat
                        if trace_on and l3m % mem_sample == 0:
                            tracer.mem(i, now, wait, dom, dom != home)
            g += gap
            pc += 3
            if clock > limit:
                if observed:
                    # Another flow's observer may retarget this flow's
                    # throttle while it is suspended here; set_limit
                    # reads its clock and l3_refs.
                    fr.clock = clock
                    c.l3_refs = l3r
                limit = yield clock
    finally:
        c.l1_hits = l1h
        c.l2_hits = l2h
        c.l3_refs = l3r
        c.l3_hits = l3h
        c.l3_misses = l3m
        c.remote_refs = rr
        c.gap_cycles = g
        c.mc_wait_cycles = mcw
        ev[0] += pc // 3             # the partial packet's references
        fr.clock = clock
        fr.pc = pc
        fr.prog_len = prog_len
