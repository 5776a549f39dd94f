"""Deep packet inspection element (extension application).

Not one of the paper's five evaluated flows, but the discussion
(Section 6) names DPI as an emerging application whose megabytes of
frequently accessed state would contend for the shared cache like the
evaluated ones. The element scans every payload byte through an
Aho-Corasick automaton built from a signature set; matched packets raise
an alert (IDS mode, default) or are dropped (IPS mode).

Access mirroring: the automaton's states live in a simulated region (one
64-byte node per state — a sparse-row layout). Emitting one reference per
*byte* would swamp the reference stream, so the element mirrors one
reference per ``SAMPLE_STRIDE`` visited states and folds the remaining
transitions into the per-byte compute cost, preserving both the total
cycle cost and the access *pattern* (uniform over the automaton for
random payloads).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..constants import CACHE_LINE, CACHE_LINE_BITS
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.packet import Packet
from .ahocorasick import AhoCorasick, generate_signatures

#: (gap cycles, instructions) per scanned payload byte.
COST_DPI_BYTE = (14, 11)
#: Simulated bytes per automaton state (sparse transition row).
STATE_BYTES = CACHE_LINE
#: Mirror one state reference per this many visited states.
SAMPLE_STRIDE = 4
#: Compute charged before each sampled state reference.
_COST_SAMPLE = (COST_DPI_BYTE[0] * SAMPLE_STRIDE,
                COST_DPI_BYTE[1] * SAMPLE_STRIDE)
#: Default signature-set size before platform scaling.
DEFAULT_SIGNATURES = 8_192


class DPIElement(Element):
    """Signature scan over the payload; alert or drop on match."""

    def __init__(self, patterns: Optional[Sequence[bytes]] = None,
                 n_signatures: Optional[int] = None, drop_on_match: bool = False):
        self._cfg_patterns = list(patterns) if patterns is not None else None
        self._cfg_signatures = n_signatures
        self.drop_on_match = drop_on_match
        self.automaton: AhoCorasick = None  # type: ignore[assignment]
        self.region = None
        self.scanned = 0
        self.alerts = 0
        self.bytes_scanned = 0
        self._tag = TAGS.register("dpi_scan")

    def initialize(self, env: FlowEnv) -> None:
        if self._cfg_patterns is not None:
            patterns = self._cfg_patterns
        else:
            n = (self._cfg_signatures if self._cfg_signatures is not None
                 else env.spec.scale_table(DEFAULT_SIGNATURES))
            patterns = generate_signatures(env.rng, n)
        self.automaton = AhoCorasick(patterns)
        self.region = env.space.domain(env.domain).alloc(
            self.automaton.n_states * STATE_BYTES, "dpi.automaton"
        )

    def process(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        if self.region is None:
            raise RuntimeError("DPIElement used before initialize()")
        payload = packet.payload
        self.scanned += 1
        if not payload:
            return packet
        matches, path = self.automaton.search_with_path(payload)
        self.bytes_scanned += len(payload)
        # One line per sampled state (a state is one 64-byte line).
        first = self.region.base >> CACHE_LINE_BITS
        ctx.record_each(_COST_SAMPLE,
                        list(map(first.__add__, path[::SAMPLE_STRIDE])),
                        self._tag)
        if matches:
            self.alerts += len(matches)
            if self.drop_on_match:
                return None
        return packet
