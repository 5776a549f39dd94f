"""Rabin fingerprinting for redundancy elimination.

Spring & Wetherall's protocol-independent RE [26 in the paper] fingerprints
sliding windows of packet content and indexes representative fingerprints
in a table mapping content to a packet store. We implement the classic
polynomial rolling fingerprint over a ``window``-byte sliding window, with
value sampling (a fingerprint is *representative* when its low ``sample_bits``
bits are zero), plus a fast aligned-chunk mode used by the simulation hot
path (the traffic generator repeats whole payloads, so chunk-aligned
fingerprints find the same redundancy; the rolling property is exercised
by the unit tests).

The aligned mode computes every chunk of a payload in one NumPy product.
Each weight (below 2**61) is split into three 21-bit limbs, so
``weight = l0 + l1 * 2**21 + l2 * 2**42``; the ``(n_chunks, window)``
byte matrix times the ``(window, 3)`` limb matrix gives three int64 sums
per chunk, each at most ``window * 255 * (2**21 - 1)``, which is exact
while ``window * 255 * 2**21 < 2**63``. The sums are recombined and
reduced mod ``2**61 - 1`` in Python ints. Wider windows fall back to
:meth:`RabinFingerprinter.fingerprint` per chunk.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, List, Optional, Tuple

import numpy as np

#: Default irreducible-ish polynomial base and modulus for the rolling hash.
_BASE = 2**8 + 7
_MOD = (1 << 61) - 1  # Mersenne prime: cheap modular reduction
#: Bits per weight limb in the aligned mode's NumPy product.
_LIMB_BITS = 21


class RabinFingerprinter:
    """Rolling Rabin fingerprints over ``window``-byte windows."""

    def __init__(self, window: int = 32, sample_bits: int = 5):
        if window <= 0:
            raise ValueError("window must be positive")
        if sample_bits < 0:
            raise ValueError("sample_bits must be non-negative")
        self.window = window
        self.sample_bits = sample_bits
        self._sample_mask = (1 << sample_bits) - 1
        # BASE^(window-1-i) mod MOD: byte i's weight in a window's fingerprint.
        self._weights = tuple(pow(_BASE, window - 1 - i, _MOD)
                              for i in range(window))
        # BASE^(window-1) mod MOD, for removing the outgoing byte.
        self._msb_weight = self._weights[0]
        # The weights as a (window, 3) matrix of 21-bit limbs, or None when
        # a limb's column sum could overflow int64.
        self._limbs: Optional[np.ndarray] = None
        if (window * 255) << _LIMB_BITS < 1 << 63:
            mask = (1 << _LIMB_BITS) - 1
            self._limbs = np.array(
                [[(wt >> shift) & mask
                  for shift in (0, _LIMB_BITS, 2 * _LIMB_BITS)]
                 for wt in self._weights], dtype=np.int64)

    # -- exact rolling implementation ------------------------------------------

    def fingerprint(self, data: bytes) -> int:
        """Fingerprint of exactly one window (``len(data) == window``)."""
        if len(data) != self.window:
            raise ValueError(f"need exactly {self.window} bytes")
        # Horner's rule, reduced once: sum of byte * BASE^(w-1-i), mod MOD.
        return sum(map(mul, data, self._weights)) % _MOD

    def rolling(self, data: bytes) -> Iterator[Tuple[int, int]]:
        """Yield ``(offset, fingerprint)`` for every window of ``data``.

        Uses O(1) rolling updates; equivalent to calling
        :meth:`fingerprint` on every window (property-tested).
        """
        w = self.window
        if len(data) < w:
            return
        fp = self.fingerprint(data[:w])
        yield 0, fp
        msb = self._msb_weight
        for i in range(1, len(data) - w + 1):
            fp = ((fp - data[i - 1] * msb) * _BASE + data[i + w - 1]) % _MOD
            yield i, fp

    def representative(self, data: bytes) -> List[Tuple[int, int]]:
        """Sampled ``(offset, fingerprint)`` pairs (low bits zero)."""
        mask = self._sample_mask
        return [(off, fp) for off, fp in self.rolling(data) if not fp & mask]

    # -- aligned fast path (simulation hot loop) --------------------------------

    def aligned(self, data: bytes) -> List[Tuple[int, int]]:
        """Fingerprints of consecutive window-aligned chunks.

        The RE application uses this in the timing hot path: one fingerprint
        per ``window``-byte chunk, no sampling (every chunk is a candidate).
        Chunks shorter than a window are ignored, like trailing windows in
        the rolling form.
        """
        w = self.window
        n = len(data) // w
        limbs = self._limbs
        if limbs is None:
            return [(off, self.fingerprint(data[off:off + w]))
                    for off in range(0, n * w, w)]
        if not n:
            return []
        # uint8 @ int64 promotes to int64.
        chunks = np.frombuffer(data, dtype=np.uint8, count=n * w)
        sums = (chunks.reshape(n, w) @ limbs).tolist()
        return [(i * w,
                 (s0 + (s1 << _LIMB_BITS) + (s2 << 2 * _LIMB_BITS)) % _MOD)
                for i, (s0, s1, s2) in enumerate(sums)]
