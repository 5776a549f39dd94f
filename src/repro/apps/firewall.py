"""Sequential-search firewall (the paper's FW increment).

"Each packet is sequentially checked against 1000 rules and, if it
matches any, it is discarded. We use sequential search ... a relatively
small number of rules that can fit in the L2 cache." The evaluation
traffic never matches, so every packet scans the whole rule set — this is
the paper's compute-heavy, cache-*insensitive* flow type (its rules live
in the private caches, out of reach of L3 contention).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import (
    CACHE_LINE_BITS,
    COST_FW_RULE_LINE,
    FW_RULES,
    FW_RULE_BYTES,
)
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.addresses import prefix_mask
from ..net.packet import Packet
from ..rngmemo import rng_memo

#: Rules per cache line (16-byte rules, 64-byte lines).
_RULES_PER_LINE = 64 // FW_RULE_BYTES


class Rule:
    """One 5-tuple filter rule."""

    __slots__ = ("src_net", "src_mask", "dst_net", "dst_mask",
                 "dport_lo", "dport_hi", "protocol")

    def __init__(self, src_net: int, src_mask: int, dst_net: int,
                 dst_mask: int, dport_lo: int, dport_hi: int,
                 protocol: Optional[int]):
        self.src_net = src_net
        self.src_mask = src_mask
        self.dst_net = dst_net
        self.dst_mask = dst_mask
        self.dport_lo = dport_lo
        self.dport_hi = dport_hi
        self.protocol = protocol

    def matches(self, packet: Packet) -> bool:
        """Reference (per-field) evaluation of this rule on ``packet``."""
        ip = packet.ip
        if ip.src & self.src_mask != self.src_net:
            return False
        if ip.dst & self.dst_mask != self.dst_net:
            return False
        if not self.dport_lo <= packet.l4.dport <= self.dport_hi:
            return False
        if self.protocol is not None and ip.protocol != self.protocol:
            return False
        return True


#: Distinct rule sets :func:`generate_unmatchable_rules` keeps (LRU).
RULES_MEMO_SIZE = 16

#: ``generate_unmatchable_rules`` memo: key -> ((shared rules, their
#: columns), RNG state).
_RULES_MEMO: "OrderedDict[tuple, Tuple[tuple, tuple]]" = OrderedDict()


def generate_unmatchable_rules(rng: random.Random, n_rules: int) -> List[Rule]:
    """Rules that can never match the generated traffic.

    All rules require sources in 240.0.0.0/4 (reserved space the traffic
    generators never emit... except by the source masking below), so every
    packet is checked against every rule — the paper's worst case.

    The rules are a pure function of ``n_rules`` and the RNG state, so
    they are memoized (:func:`~repro.rngmemo.rng_memo`): equal inputs get
    a fresh list of the same shared, read-only :class:`Rule` objects.
    """
    return list(_unmatchable_rule_set(rng, n_rules)[0])


def _unmatchable_rule_set(rng: random.Random, n_rules: int):
    """The memoized ``(rules, rule_columns(rules))`` pair."""
    def build():
        rules = _unmatchable_rules(rng, n_rules)
        return rules, rule_columns(rules)

    return rng_memo(_RULES_MEMO, RULES_MEMO_SIZE, (n_rules,), rng, build)


def rule_columns(rules) -> Dict[str, np.ndarray]:
    """Read-only columnar copies of the rule fields.

    :meth:`Firewall.first_match` evaluates every rule exactly as
    ``Rule.matches`` does (the equivalence is property-tested), but
    across the whole rule set at once — the sequential scan's cycle cost
    is modeled by the per-line cost constants, not by Python-loop time.
    Firewalls over one memoized rule set share its columns.
    """
    columns = {
        "src_net": np.array([r.src_net for r in rules], dtype=np.uint32),
        "src_mask": np.array([r.src_mask for r in rules], dtype=np.uint32),
        "dst_net": np.array([r.dst_net for r in rules], dtype=np.uint32),
        "dst_mask": np.array([r.dst_mask for r in rules], dtype=np.uint32),
        "dport_lo": np.array([r.dport_lo for r in rules], dtype=np.uint32),
        "dport_hi": np.array([r.dport_hi for r in rules], dtype=np.uint32),
        "protocol": np.array(
            [-1 if r.protocol is None else r.protocol for r in rules],
            dtype=np.int32,
        ),
    }
    for column in columns.values():
        column.flags.writeable = False
    return columns


def _unmatchable_rules(rng: random.Random, n_rules: int) -> Tuple[Rule, ...]:
    rules: List[Rule] = []
    for _ in range(n_rules):
        src_mask = prefix_mask(rng.randrange(8, 25))
        # Class-E source network: impossible for generated traffic once
        # masked to the 240.0.0.0/4 space.
        src_net = (0xF0000000 | rng.getrandbits(28)) & src_mask
        if src_net >> 28 != 0xF:
            src_net |= 0xF0000000 & src_mask
        dst_mask = prefix_mask(rng.randrange(8, 25))
        dst_net = rng.getrandbits(32) & dst_mask
        lo = rng.randrange(0, 60000)
        rules.append(Rule(
            src_net=src_net, src_mask=src_mask, dst_net=dst_net,
            dst_mask=dst_mask, dport_lo=lo, dport_hi=lo + rng.randrange(1, 500),
            protocol=rng.choice([None, 6, 17]),
        ))
    return tuple(rules)


class Firewall(Element):
    """Sequential rule scan; matching packets are dropped."""

    def __init__(self, n_rules: Optional[int] = None,
                 rules: Optional[List[Rule]] = None):
        self._cfg_rules = n_rules
        self._preset_rules = rules
        self.rules: List[Rule] = []
        self.region = None
        self.checked = 0
        self.blocked = 0
        self._tag = TAGS.register("fw_rules")
        self._vec = None

    def initialize(self, env: FlowEnv) -> None:
        if self._preset_rules is not None:
            self.rules = self._preset_rules
            self._vec = rule_columns(self.rules)
        else:
            # The rule set is deliberately NOT scaled with the platform: its
            # size defines FW's compute weight (the paper's slowest flow),
            # while its cache footprint (16 KB) fits the private caches at
            # every scale — which is what makes FW contention-insensitive.
            n_rules = (self._cfg_rules if self._cfg_rules is not None
                       else FW_RULES)
            rules, self._vec = _unmatchable_rule_set(env.rng, n_rules)
            self.rules = list(rules)
        # The *memory footprint* of the rule array scales with the platform
        # (preserving its residency in the private caches), while the
        # *compute cost* covers every rule actually evaluated.
        footprint = env.spec.scale_bytes(
            max(1, len(self.rules)) * FW_RULE_BYTES
        )
        self.region = env.space.domain(env.domain).alloc(footprint, "fw.rules")

    def first_match(self, packet: Packet) -> Optional[int]:
        """Index of the first matching rule, or None.

        The source column is tested over every rule, the other columns
        only over the rules whose source matches (none, for the
        evaluation traffic).
        """
        if not self.rules:
            return None
        v = self._vec
        src = np.uint32(packet.ip.src)
        cand = np.flatnonzero((src & v["src_mask"]) == v["src_net"])
        if not len(cand):
            return None
        dst = np.uint32(packet.ip.dst)
        dport = np.uint32(packet.l4.dport)
        proto = np.int32(packet.ip.protocol)
        protocol = v["protocol"][cand]
        match = (
            ((dst & v["dst_mask"][cand]) == v["dst_net"][cand])
            & (v["dport_lo"][cand] <= dport) & (dport <= v["dport_hi"][cand])
            & ((protocol < 0) | (protocol == proto))
        )
        index = int(match.argmax())
        return int(cand[index]) if match[index] else None

    def process(self, ctx: AccessContext, packet: Packet) -> Optional[Packet]:
        if self.region is None:
            raise RuntimeError("Firewall used before initialize()")
        self.checked += 1
        verdict = self.first_match(packet)
        # The sequential scan runs rule-by-rule up to the first match (or
        # the whole set when nothing matches — the evaluation traffic's
        # case): one reference per 16-byte-rule cache line plus the
        # per-line compute cost.
        scanned = len(self.rules) if verdict is None else verdict + 1
        region = self.region
        rule_lines = (scanned + _RULES_PER_LINE - 1) // _RULES_PER_LINE
        touched = min(rule_lines, region.size >> CACHE_LINE_BITS)
        if touched:
            # Spread the whole scan's compute cost over the touched lines
            # (each line's share rounded down).
            first = region.base >> CACHE_LINE_BITS
            ctx.record_each(
                (COST_FW_RULE_LINE[0] * rule_lines // touched,
                 COST_FW_RULE_LINE[1] * rule_lines // touched),
                range(first, first + touched), self._tag)
        if verdict is not None:
            self.blocked += 1
            return None
        return packet
