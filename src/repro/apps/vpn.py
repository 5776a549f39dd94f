"""VPN: AES-128 payload encryption (the paper's CPU-intensive flow).

"Each packet is subjected to full IP forwarding, NetFlow and AES-128
encryption." The element really encrypts the payload (CTR mode, per-packet
counter) with the AES from :mod:`repro.apps.aes`. The AES lookup tables
are L1-resident and folded into the calibrated per-block compute cost;
the payload lines the cipher reads and writes are mirrored into simulated
memory.

Keystream run-ahead: packet ``j`` after the current one will use nonce
``packets + j`` and counter ``counter + j * n_blocks`` if the payload
length stays the same, so on a miss the element computes the keystreams
of the next :data:`RUN_AHEAD_PACKETS` packets in one vectorised call. A
keystream is served only when its ``(nonce, counter0, n_bytes)`` matches
the packet's exactly; anything else (an empty payload, a length change)
refills from the packet's actual inputs, so the ciphertext is the same as
encrypting each packet on its own. Traffic whose payload length varies
pays one refill per change; every VPN source in the app registry sends a
fixed-size payload.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..constants import COST_AES_BLOCK
from ..hw.machine import FlowEnv
from ..mem.access import AccessContext, TAGS
from ..click.element import Element
from ..net.packet import Packet
from .aes import AES128, ctr_keystreams, keystream_xor

#: Packets whose keystreams one refill computes (at most this many are held).
RUN_AHEAD_PACKETS = 64


class VPNEncrypt(Element):
    """Encrypt the packet payload under a per-flow AES-128 key."""

    def __init__(self, key: Optional[bytes] = None):
        self._cfg_key = key
        self.cipher: AES128 = None  # type: ignore[assignment]
        self.context_region = None
        self.counter = 0
        self.packets = 0
        self.bytes_encrypted = 0
        self._ahead: Deque[Tuple[Tuple[int, int, int], bytes]] = deque()
        self._tag = TAGS.register("vpn_payload")
        self._tag_ctx = TAGS.register("vpn_context")

    def initialize(self, env: FlowEnv) -> None:
        key = self._cfg_key if self._cfg_key is not None else env.rng.randbytes(16)
        self.cipher = AES128(key)
        # Security-association state: round keys + nonce/counter (hot lines).
        self.context_region = env.space.domain(env.domain).alloc(
            256, "vpn.context"
        )

    def process(self, ctx: AccessContext, packet: Packet) -> Packet:
        if self.cipher is None:
            raise RuntimeError("VPNEncrypt used before initialize()")
        payload = packet.payload
        ctx.touch(self.context_region, 0, 192, self._tag_ctx)
        if payload:
            n_blocks = (len(payload) + 15) // 16
            # Read plaintext, encrypt, write ciphertext back.
            if packet.buffer is not None:
                ctx.touch(packet.buffer, packet.header_bytes, len(payload),
                          self._tag)
            ctx.compute(n_blocks * COST_AES_BLOCK[0],
                        n_blocks * COST_AES_BLOCK[1])
            packet.payload = keystream_xor(
                payload, self._keystream(len(payload), n_blocks))
            self.counter += n_blocks
            if packet.buffer is not None:
                ctx.touch(packet.buffer, packet.header_bytes, len(payload),
                          self._tag)
            self.bytes_encrypted += len(payload)
        self.packets += 1
        return packet

    def _keystream(self, n_bytes: int, n_blocks: int) -> bytes:
        """The keystream for this packet, refilling the run-ahead on a miss."""
        request = (self.packets, self.counter, n_bytes)
        ahead = self._ahead
        if not ahead or ahead[0][0] != request:
            requests = [(self.packets + j, self.counter + j * n_blocks, n_bytes)
                        for j in range(RUN_AHEAD_PACKETS)]
            ahead.clear()
            ahead.extend(zip(requests, ctr_keystreams(self.cipher, requests)))
        return ahead.popleft()[1]
