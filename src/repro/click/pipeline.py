"""Per-flow pipelines: the paper's "parallel approach".

A :class:`Pipeline` is one flow: a traffic source, a receive element, a
chain of processing elements, and a transmit element, all executed by a
single core per packet (Section 2.2 concludes this run-to-completion model
always beats pipelining for realistic workloads). A Pipeline implements
the flow protocol the :class:`~repro.hw.machine.Machine` engine expects:
``run_packet(ctx)`` produces one packet's access program and returns the
DMA-invalidated lines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..hw.machine import FlowEnv
from ..mem.access import AccessContext
from ..net.flowgen import TrafficSource
from ..net.packet import Packet
from .element import Element
from .elements.fromdevice import FromDevice
from .elements.todevice import ToDevice


class Pipeline:
    """A complete flow: source -> FromDevice -> elements -> ToDevice."""

    def __init__(self, name: str, env: FlowEnv, source: TrafficSource,
                 elements: Sequence[Element], measure_weight: float = 1.0,
                 rx: Optional[FromDevice] = None,
                 tx: Optional[ToDevice] = None):
        self.name = name
        self.measure_weight = measure_weight
        self.source = source
        self.rx = rx if rx is not None else FromDevice()
        self.tx = tx if tx is not None else ToDevice()
        self.elements: List[Element] = list(elements)
        self.dropped = 0
        self.forwarded = 0
        #: Per-element attribution of the most recent packet,
        #: ``[(element, refs, instructions), ...]``; populated only while
        #: a tracer is attached (the engine reads it at packet boundary).
        self.trace_marks = None
        self._tracer = None
        self.rx.initialize(env)
        self.tx.initialize(env)
        for element in self.elements:
            element.initialize(env)

    def attach_run(self, machine, flow_run) -> None:
        """Bind the machine's tracer, when one is active."""
        tracer = getattr(machine, "tracer", None)
        if tracer is not None and tracer.active:
            self._tracer = tracer

    @property
    def timing_pure(self) -> bool:
        """True unless traced: generation reads only the pipeline's own
        tables and seeded traffic, but a traced pipeline records
        per-element marks, which the replay loop does not."""
        return self._tracer is None

    def run_packet(self, ctx: AccessContext):
        """Pull one packet from the source and run it through the chain."""
        if self._tracer is not None:
            return self._run_packet_traced(ctx)
        packet = self.source.next_packet()
        dma = self.rx.receive(ctx, packet)
        for element in self.elements:
            result = element.process(ctx, packet)
            if result is not packet:
                if result is None:
                    self.dropped += 1
                    return dma
                if isinstance(result, tuple):
                    # Multi-output elements are only meaningful inside a
                    # Router; in a linear pipeline, any port continues the
                    # chain.
                    result = result[1]
                packet = result
        self.tx.send(ctx, packet)
        self.forwarded += 1
        return dma

    def _run_packet_traced(self, ctx: AccessContext):
        """The tracing twin of :meth:`run_packet`.

        Identical processing, but each step's share of the packet's work
        (memory references, instructions) is recorded into
        :attr:`trace_marks` for the engine's packet-span trace events.
        Kept separate so the untraced hot path pays only one ``is None``
        check per packet.
        """
        marks = []
        refs0, instr0 = ctx.n_references, ctx.instructions
        packet = self.source.next_packet()
        dma = self.rx.receive(ctx, packet)
        refs1, instr1 = ctx.n_references, ctx.instructions
        marks.append((self.rx.name, refs1 - refs0, instr1 - instr0))
        for element in self.elements:
            result = element.process(ctx, packet)
            refs0, instr0 = refs1, instr1
            refs1, instr1 = ctx.n_references, ctx.instructions
            marks.append((element.name, refs1 - refs0, instr1 - instr0))
            if result is None:
                self.dropped += 1
                self.trace_marks = marks
                return dma
            if isinstance(result, tuple):
                result = result[1]
            packet = result
        self.tx.send(ctx, packet)
        self.forwarded += 1
        refs0, instr0 = refs1, instr1
        marks.append((self.tx.name, ctx.n_references - refs0,
                      ctx.instructions - instr0))
        self.trace_marks = marks
        return dma

    def process_one(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        """Run an externally supplied packet through the element chain only.

        Functional-test helper: no receive/transmit modeling.
        """
        for element in self.elements:
            result = element.process(ctx, packet)
            if result is None:
                return None
            if isinstance(result, tuple):
                result = result[1]
            packet = result
        return packet

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chain = " -> ".join(e.name for e in self.elements)
        return f"Pipeline({self.name!r}: FromDevice -> {chain} -> ToDevice)"
