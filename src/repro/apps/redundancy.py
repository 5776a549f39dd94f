"""Redundancy elimination: encoder, decoder, and the RE element.

Implements the paper's RE application [26]: a fingerprint table maps
content fingerprints to packet-store offsets; each packet is checked for
chunks of recently-seen content, which are replaced by (offset, length)
references; the device at the other end of the link keeps a synchronized
store and reconstructs the original payload. Encoder/decoder round-trip
correctness is property-tested.

The element mirrors the real accesses into simulated memory: one
fingerprint-table entry per chunk (a table far larger than the L3 — this
is the paper's representative *memory-intensive, cache-unfriendly*
workload and its most aggressive flow type), packet-store reads on match,
and packet-store writes for every stored payload line.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..constants import (
    CACHE_LINE_BITS,
    COST_RE_STORE_LINE,
    COST_RE_WINDOW,
    RE_FINGERPRINT_ENTRIES,
    RE_FINGERPRINT_ENTRY_BYTES,
    RE_PACKET_STORE_BYTES,
)
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.packet import Packet
from .fingerprint import RabinFingerprinter
from .packetstore import PacketStore

#: Encoded token forms: ("lit", bytes) or ("ref", abs_offset, length).
Token = Tuple


class REEncoder:
    """Content-defined encoding against a local packet store."""

    def __init__(self, store_bytes: int, n_table_entries: int,
                 fingerprinter: Optional[RabinFingerprinter] = None):
        if n_table_entries <= 0:
            raise ValueError("fingerprint table needs entries")
        self.store = PacketStore(store_bytes)
        self.n_table_entries = n_table_entries
        self.fingerprinter = (fingerprinter if fingerprinter is not None
                              else RabinFingerprinter())
        # index -> (fingerprint, absolute store offset); collisions replace.
        self.table: dict = {}
        self.chunks_seen = 0
        self.chunks_matched = 0

    def encode(self, payload: bytes) -> Tuple[List[Token], List[int]]:
        """Encode ``payload``.

        Returns ``(tokens, touched_indices)`` where ``touched_indices``
        are the fingerprint-table slots referenced (for access mirroring).
        """
        window = self.fingerprinter.window
        chunks = self.fingerprinter.aligned(payload)
        n_entries = self.n_table_entries
        touched = [fp % n_entries for _, fp in chunks]
        self.chunks_seen += len(chunks)
        table = self.table
        tokens: List[Token] = []
        lit_start = 0
        for (off, fp), index in zip(chunks, touched):
            entry = table.get(index)
            if entry is not None and entry[0] == fp:
                # get() returns exactly ``window`` bytes or None, so
                # startswith compares in place what a slice would.
                stored = self.store.get(entry[1], window)
                if stored is not None and payload.startswith(stored, off):
                    if off > lit_start:
                        tokens.append(("lit", payload[lit_start:off]))
                    tokens.append(("ref", entry[1], window))
                    lit_start = off + window
                    self.chunks_matched += 1
        if lit_start < len(payload):
            tokens.append(("lit", payload[lit_start:]))
        # Store the original payload and index its chunks for the future.
        base = self.store.append(payload)
        for (off, fp), index in zip(chunks, touched):
            table[index] = (fp, base + off)
        return tokens, touched

    @staticmethod
    def encoded_length(tokens: List[Token]) -> int:
        """Wire bytes of an encoded payload (refs cost 8 bytes each)."""
        total = 0
        for token in tokens:
            if token[0] == "lit":
                total += 1 + len(token[1])
            else:
                total += 8
        return total

    def savings(self, payload: bytes, tokens: List[Token]) -> float:
        """Fraction of payload bytes eliminated (can be negative)."""
        if not payload:
            return 0.0
        return 1.0 - self.encoded_length(tokens) / len(payload)


class REDecoder:
    """The far-end device: synchronized store, reconstructs payloads."""

    def __init__(self, store_bytes: int):
        self.store = PacketStore(store_bytes)

    def decode(self, tokens: List[Token]) -> bytes:
        """Reconstruct the original payload and update the mirror store."""
        parts: List[bytes] = []
        for token in tokens:
            if token[0] == "lit":
                parts.append(token[1])
            elif token[0] == "ref":
                content = self.store.get(token[1], token[2])
                if content is None:
                    raise LookupError(
                        f"reference to evicted store range {token[1]}+{token[2]}"
                    )
                parts.append(content)
            else:
                raise ValueError(f"unknown token kind {token[0]!r}")
        payload = b"".join(parts)
        self.store.append(payload)
        return payload


class REElement(Element):
    """The RE processing step of the paper's RE flow."""

    def __init__(self, store_bytes: Optional[int] = None,
                 n_table_entries: Optional[int] = None):
        self._cfg_store = store_bytes
        self._cfg_entries = n_table_entries
        self.encoder: REEncoder = None  # type: ignore[assignment]
        self.table_region = None
        self.store_region = None
        self.packets = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._tag_fp = TAGS.register("re_fingerprint")
        self._tag_store = TAGS.register("re_store")
        self._tag_payload = TAGS.register("re_payload")

    def initialize(self, env: FlowEnv) -> None:
        store_bytes = (self._cfg_store if self._cfg_store is not None
                       else env.spec.scale_bytes(RE_PACKET_STORE_BYTES))
        entries = (self._cfg_entries if self._cfg_entries is not None
                   else env.spec.scale_table(RE_FINGERPRINT_ENTRIES))
        self.encoder = REEncoder(store_bytes, entries,
                                 fingerprinter=RabinFingerprinter(window=64))
        alloc = env.space.domain(env.domain)
        self.table_region = alloc.alloc(
            entries * RE_FINGERPRINT_ENTRY_BYTES, "re.fingerprints"
        )
        self.store_region = alloc.alloc(store_bytes, "re.store")

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        if self.encoder is None:
            raise RuntimeError("REElement used before initialize()")
        payload = packet.payload
        window = self.encoder.fingerprinter.window
        # Read the payload from the packet buffer.
        if packet.buffer is not None and payload:
            ctx.touch(packet.buffer, packet.header_bytes, len(payload),
                      self._tag_payload)
        capacity = self.encoder.store.capacity
        store_base = self.encoder.store.total_written
        tokens, touched = self.encoder.encode(payload)
        # Fingerprint computation + one table probe per chunk (an entry
        # never straddles a line).
        table = self.table_region.base
        ctx.record_each(
            COST_RE_WINDOW,
            [(table + index * RE_FINGERPRINT_ENTRY_BYTES) >> CACHE_LINE_BITS
             for index in touched],
            self._tag_fp)
        # Matched references read the stored content.
        for token in tokens:
            if token[0] == "ref":
                ctx.touch(self.store_region, token[1] % capacity, token[2],
                          self._tag_store)
        # Appending the payload writes it into the (circular) store.
        if payload:
            pos = store_base % capacity
            first = min(len(payload), capacity - pos)
            n_lines = 0
            for length, offset in ((first, pos), (len(payload) - first, 0)):
                if length > 0:
                    ctx.touch(self.store_region, offset, length, self._tag_store)
                    n_lines += (length + 63) // 64
            ctx.compute(n_lines * COST_RE_STORE_LINE[0],
                        n_lines * COST_RE_STORE_LINE[1])
        self.packets += 1
        self.bytes_in += len(payload)
        self.bytes_out += REEncoder.encoded_length(tokens)
        annotations = packet.annotations or {}
        annotations["re_tokens"] = tokens
        packet.annotations = annotations
        return packet
