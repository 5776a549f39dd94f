"""The batch engine: Machine.run(engine="batch").

Both engines run on the one execution driver, ``Machine._drive`` in
:mod:`repro.hw.machine`: a heap interleaves cores at memory-reference
granularity, and each flow's window loop is a suspended generator the
driver resumes through its pre-bound ``send`` with the next core's
clock, so its hot bindings and counters live in generator locals across
windows. The scalar engine puts every
flow on the live per-packet loop; the batch engine differs only in which
loop a flow gets:

* **Pregeneration** (see :mod:`repro.fastpath.streams`): flows whose
  generation is *timing-pure* run :func:`_replay_gen` over pregenerated,
  flattened packet blocks instead of re-entering the functional layer
  per packet, and identical streams are reused across machines through
  a process-wide cache — which is where dense sweeps (Figure 2's 25
  co-runs, sensitivity curves) stop paying generation at all.
* **Private-cache prefiltering**: each block arrives with every
  reference's L1/L2 outcome already resolved, so the replay loop probes
  no private cache and touches the socket's L3, the memory controllers
  and the QPI link only for L3-bound references.
* **Timing-only wrappers** (:func:`~repro.fastpath.streams.stream_pure`):
  a throttled or guarded flow is not timing-pure, since its closed loop
  reads live counters, but it changes only *when* its inner flow's
  references happen. Over a timing-pure inner flow the loop replays the
  inner stream (cached, and construction-free on a warm cache) and runs
  the wrappers' ``wrap_packet`` at each packet boundary, where the live
  loop would call ``run_packet``: their leading compute joins the
  packet's first gap, and a quarantine's idle packet consumes no stream
  packet. The wrappers' counts, feedback windows and quarantine state
  run exactly as they do live.
* Flows whose reference sequence depends on run state (pipeline
  handoff stages, wrappers over them) and all flows of a traced run
  stay on the live loop. A skeleton touched before the run is
  materialized and generates its stream afresh, without the cache.

Exactness rules the replay loop follows to the letter:

* the per-reference clock updates perform the *same float operations in
  the same order* as the live loop (``now = clock + gap`` then
  ``clock = now + lat``, with the cache latencies passed in as floats,
  which is the double an int latency converts to); counter accumulators
  append onto the running value in the same sequence, so float results
  are bit-equal, not merely close;
* memory controllers and the QPI link are stateful queueing models fed
  by request timestamps. Both loops run a request's common step inline
  (count it, add its service time, check the window, read ``wait``) and
  call :meth:`~repro.hw.dram.UtilizationQueue.roll` when the window is
  due, in exactly the live loop's order with exactly its timestamps;
  :func:`~repro.fastpath.diff.compare_results` holds every queue's state
  equal;
* each socket's L3 set is an insertion-ordered dict, LRU first (see
  :mod:`repro.hw.cache`), and both loops hit, fill, evict and
  DMA-invalidate it with the same statements in the same order of the
  global interleaving, so every L3 outcome and the exact LRU order of
  every set match; :func:`~repro.fastpath.diff.compare_results`
  compares each set as a list, since dict equality ignores order;
* DMA invalidations, counter snapshots and observer windows happen at
  the same points of the global interleaving. The max-events guard
  fires at packet loads against a per-packet count: each loop adds a
  packet's references to the shared count when the next packet loads
  (and its partial packet when closed), so both engines trip it at the
  same load;
* what each loop publishes, and when, is the same on both loops. At a
  packet boundary a loop writes every counter accumulator and
  ``fr.clock`` before anything there reads them (snapshots, observers,
  the wrappers' feedback). At a suspension point mid-packet it
  publishes ``fr.clock`` and ``l3_refs`` only when the run has
  observers: an observer of another flow (the guard) may retarget this
  flow's throttle there, and ``set_limit`` reads both. Nothing else
  reads a suspended flow, so a run without observers publishes nothing
  there. ``close()`` publishes everything;
* a core's private L1/L2 sees only its own flow's references and DMA
  invalidations, so for a timing-pure flow every private outcome is a
  function of the flow's stream alone and is resolved ahead of the run
  (the level codes); the loop still adds each private hit's latency one
  reference at a time in stream order. Nothing else may touch a
  prefiltered core's private caches mid-run —
  :meth:`~repro.hw.machine.Machine.invalidate_private` refuses, which is
  safe because its callers, handoff stages, are never timing-pure — and
  the ``finally`` block installs the L1/L2 contents the live loop would
  have left.

``tests/differential`` asserts the equivalence of replay and the live
loop across every registered application, topologies, and throttling
and guard configurations (``test_wrapper_replay.py``).
"""

from __future__ import annotations

from ..hw.dram import UTILIZATION_WINDOW
from ..hw.machine import MAX_EVENTS, _DOMAIN_LINE_SHIFT, _event_limit_error
from .streams import (BATCH_PACKETS, StreamSupplier, StubFlow,
                      materialize_stub, stream_pure)


class _Lead:
    """What timing-only wrappers do to one packet before their inner flow.

    The context their :meth:`~repro.core.throttling.RateThrottle.wrap_packet`
    records into during replay: leading compute, or an idle stall.
    """

    __slots__ = ("gap", "instructions", "idle")

    def compute(self, gap_cycles, instructions) -> None:
        self.gap += gap_cycles
        self.instructions += instructions

    def mark_idle(self, stall_cycles) -> None:
        self.idle = True
        self.gap += stall_cycles


def _control_hook(wrappers):
    """The packet-boundary hook running ``wrappers`` (outermost first).

    Each call runs every wrapper's ``wrap_packet`` as the live loop's
    ``run_packet`` would, with the inner flow's packet replaced by a
    no-op (its references come from the stream), and returns the
    :class:`_Lead`: the summed leading compute, or an idle stall that
    consumes no stream packet.
    """
    lead = _Lead()

    def step(ctx):
        return None

    for wrapper in reversed(wrappers):
        step = (lambda ctx, wrap=wrapper.wrap_packet, inner=step:
                wrap(ctx, inner))

    def control():
        lead.gap = 0
        lead.instructions = 0
        lead.idle = False
        step(lead)
        return lead

    return control


def _replay_gen(fr, sup, shared, env, control=None):
    """Window loop of one pregenerated (stream-pure) flow.

    Yields the flow's clock whenever it passes ``limit`` (the next
    core's clock, received via ``send``). Private-cache outcomes come
    precomputed as the block's level codes. ``control`` (see
    :func:`_control_hook`) runs a wrapped flow's wrappers at every
    packet boundary, where the live loop calls ``run_packet``: their
    leading compute joins the packet's first gap (its trailing gap when
    it has no references), and an idle stall is replayed without
    consuming a stream packet. On ``close()`` the ``finally`` block
    flushes counter accumulators, installs the core's L1/L2 contents,
    and pins the inner flow's protocol state to the consumed stream
    packet count.
    """
    (lat_l1, lat_l2, lat_l3, lat_dram, mcs, qpi,
     l1_ways, l2_ways, l3_ways, max_events, domain_shift,
     observe, metrics_due, observed, ev, nw) = shared
    (my_l1, my_l1_n, my_l2, my_l2_n, my_l3, my_l3_n, home) = env
    window = UTILIZATION_WINDOW
    qpi_service = qpi.service_cycles
    qpi_extra = qpi.extra_cycles
    c = fr.counters
    i = fr.index
    tag_refs = c.tag_refs
    tag_hits = c.tag_hits
    warmup_target = fr.warmup_target
    measure_target = fr.measure_target

    # Accumulators: identical in-place update order to the live loop,
    # flushed to the CoreCounters at every packet boundary (the only
    # points where snapshots/metrics/other readers observe them).
    l1h = c.l1_hits
    l2h = c.l2_hits
    l3r = c.l3_refs
    l3h = c.l3_hits
    l3m = c.l3_misses
    rr = c.remote_refs
    g = c.gap_cycles
    mcw = c.mc_wait_cycles

    block = None
    gaps = lines = tags = l3i = doms = codes = bounds = None
    j = 0
    j0 = 0               # where the references not yet counted start
    pkt_end = 0
    k = 0
    loaded = False       # a packet is loaded (live loop: prog_len >= 0)
    trailing = 0         # the loaded packet's trailing gap ...
    idle = False         # ... and whether it is an idle step
    steps = 0            # stream packets loaded so far (== generation calls)
    dropped_last = 0

    limit = yield        # primed; first send() starts the first window
    clock = fr.clock
    try:
        while True:
            if j >= pkt_end:
                # -- packet boundary --------------------------------------
                if loaded:
                    clock += trailing
                    g += trailing
                    c.l1_hits = l1h
                    c.l2_hits = l2h
                    c.l3_refs = l3r
                    c.l3_hits = l3h
                    c.l3_misses = l3m
                    c.remote_refs = rr
                    c.gap_cycles = g
                    c.mc_wait_cycles = mcw
                    if not idle:
                        c.packets += 1
                        if (fr.latencies is not None
                                and fr.snap_start is not None
                                and not fr.done):
                            fr.latencies.append(clock - fr.packet_start)
                    if c.packets == warmup_target and fr.snap_start is None:
                        c.cycles = clock
                        fr.snap_start = c.copy()
                    elif c.packets == measure_target and not fr.done:
                        c.cycles = clock
                        fr.snap_end = c.copy()
                        fr.done = True
                        if fr.measured:
                            nw[0] -= 1
                            if nw[0] == 0:
                                return
                    if observed and clock >= metrics_due[i]:
                        observe(i, clock, c)
                # -- load next pregenerated packet ------------------------
                ev[0] += j - j0      # the finished packet's references
                j0 = j
                if ev[0] > max_events:
                    raise _event_limit_error(max_events)
                fr.clock = clock
                fr.packet_start = clock
                lead_gap = 0
                if control is not None:
                    lead = control()
                    c.instructions += lead.instructions
                    if lead.idle:
                        # No references: j stays at the end of the last
                        # stream packet, so the boundary comes next.
                        trailing = lead.gap
                        idle = True
                        loaded = True
                        if clock > limit:
                            limit = yield clock
                        continue
                    lead_gap = lead.gap
                if block is None or steps - block.start >= block.n_packets:
                    block = sup.next_block()
                    gaps = block.gaps
                    lines = block.lines
                    tags = block.tags
                    l3i = block.l3i
                    doms = block.doms
                    # A list, not the stored bytes: CPython indexes a
                    # list of small ints on a specialized fast path.
                    codes = list(block.codes)
                    bounds = block.bounds
                k = steps - block.start
                steps += 1
                c.instructions += block.instr[k]
                dropped_last = block.dropped[k]
                dma = block.dma[k]
                if dma:
                    # The prefilter already dropped the L1/L2 copies.
                    for line in dma:
                        s = my_l3[line % my_l3_n]
                        if line in s:
                            del s[line]
                j0 = j = bounds[k]
                pkt_end = bounds[k + 1]
                trailing = block.trailing[k]
                idle = block.idle[k]
                if lead_gap:
                    # Served blocks are private copies: safe to edit.
                    if j < pkt_end:
                        gaps[j] += lead_gap
                    else:
                        trailing += lead_gap
                loaded = True
                if clock > limit:
                    limit = yield clock
                continue

            # -- one pregenerated memory reference ------------------------
            gap = gaps[j]
            now = clock + gap
            code = codes[j]
            if code == 2:
                # L3-bound: the only references that touch shared state.
                l3r += 1
                line = lines[j]
                tag = tags[j]
                tag_refs[tag] += 1
                # The L3 set is an insertion-ordered dict, LRU first.
                s3 = my_l3[l3i[j]]
                if line in s3:
                    del s3[line]
                    s3[line] = None
                    l3h += 1
                    tag_hits[tag] += 1
                    clock = now + lat_l3
                else:
                    s3[line] = None
                    if len(s3) > l3_ways:
                        # The first key is the LRU line; a for loop reaches
                        # it without calling next() and iter().
                        for victim in s3:
                            break
                        del s3[victim]
                    l3m += 1
                    dom = doms[j]
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
            elif code:
                l2h += 1
                clock = now + lat_l2
            else:
                l1h += 1
                clock = now + lat_l1
            g += gap
            j += 1
            if clock > limit:
                if observed:
                    # Another flow's observer may retarget this flow's
                    # throttle while it is suspended here; set_limit
                    # reads its clock and l3_refs.
                    fr.clock = clock
                    c.l3_refs = l3r
                limit = yield clock
    finally:
        # close(): flush accumulators (suspension points are the only
        # places locals can differ from the counters) and pin protocol
        # state (dropped, round-robin turns) to the consumed count —
        # pregeneration may have run the functional layer ahead.
        c.l1_hits = l1h
        c.l2_hits = l2h
        c.l3_refs = l3r
        c.l3_hits = l3h
        c.l3_misses = l3m
        c.remote_refs = rr
        c.gap_cycles = g
        c.mc_wait_cycles = mcw
        ev[0] += j - j0                # the partial packet's references
        fr.clock = clock
        if steps:
            # Leave the core's L1/L2 exactly as the live loop would.
            sup.install_private(my_l1, my_l2, k, j)
            sup.patch_flow_state(steps, dropped_last)


def run_batch(machine, warmup_packets: int = 200,
              measure_packets: int = 1000,
              max_events: int = MAX_EVENTS,
              batch: int = BATCH_PACKETS):
    """Execute ``machine`` with the batch engine. See module docstring."""

    def replay(fr, shared, env):
        """The replay loop of ``fr``, or None to run it live."""
        # A traced run keeps every flow on the live loop so per-packet
        # marks and sampled miss events stay byte-equal.
        # Prefiltering starts from empty private caches.
        pure = stream_pure(fr.flow)
        if (pure is None or machine.tracer.active
                or any(env[0]) or any(env[2])):
            return None
        wrappers, core = pure
        cacheable = True
        if isinstance(core, StubFlow) and core.touched:
            # Something reached through the stub before the run (and may
            # have mutated the real flow): the cached stream can no
            # longer be trusted. Generate from the materialized flow
            # without reading or extending the cache.
            materialize_stub(fr)
            cacheable = False
        sup = StreamSupplier(
            fr, machine.seed, machine.spec, env[1], env[3], env[5],
            _DOMAIN_LINE_SHIFT, batch=batch, cacheable=cacheable,
        )
        machine.prefiltered_cores.add(fr.core)
        control = _control_hook(wrappers) if wrappers else None
        return _replay_gen(fr, sup, shared, env, control)

    return machine._drive(warmup_packets, measure_packets, max_events,
                          replay)
