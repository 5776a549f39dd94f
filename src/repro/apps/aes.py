"""AES-128 block cipher (FIPS-197) with a vectorised CTR keystream kernel.

Used by the VPN application the way IPsec uses it: CTR-mode payload
encryption. Encryption uses the classic four T-table formulation twice
over: :meth:`AES128.encrypt_block` runs it on one block held as a Python
integer (the single-block reference), and :func:`ctr_keystreams` runs it
in NumPy over every block of many CTR requests at once, one table gather
per T-table and round. Decryption implements the straightforward inverse
cipher and exists so tests can round-trip and check the kernel against an
independent oracle. Verified against the FIPS-197 / SP 800-38A test
vectors in the test suite.

Inside the timing simulation, the AES lookup tables are not emitted as
individual memory references: at 4 KB they are L1-resident on any
configuration and cannot contend for the shared L3, so their cost is
folded into the calibrated per-block compute cycles (see
``constants.COST_AES_BLOCK``). The *payload* lines the cipher reads and
writes are simulated.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

# -- S-boxes ------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        b >>= 1
        a = _xtime(a)
    return result


# T-tables: Te0[x] = (S[x].2, S[x], S[x], S[x].3) packed big-endian.
_TE0: List[int] = []
for _x in range(256):
    _s = _SBOX[_x]
    _TE0.append(
        (_gmul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _gmul(_s, 3)
    )
_TE1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE0]
_TE2 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE1]
_TE3 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE2]

# Final-round S-box tables pre-shifted into each byte lane of a word, so
# the last SubBytes/ShiftRows step assembles whole words.
_SB3 = [v << 24 for v in _SBOX]
_SB2 = [v << 16 for v in _SBOX]
_SB1 = [v << 8 for v in _SBOX]

_U64 = 0xFFFFFFFFFFFFFFFF

# The kernel reads a state word's bytes through a uint8 view, so its words
# are little-endian uint32 on every host: lane 0 is the low byte.
_LE32 = np.dtype("<u4")
_KT_ROUND = tuple(np.array(t, dtype=_LE32) for t in (_TE0, _TE1, _TE2, _TE3))
_KT_FINAL = tuple(np.array(t, dtype=_LE32) for t in (_SB3, _SB2, _SB1, _SBOX))
# ShiftRows: output word i takes byte lane 3-j of state word (i + j) % 4.
_ROT1, _ROT2, _ROT3 = [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES with a 128-bit key: 10 rounds, 4-word round keys."""

    BLOCK_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self.key = key
        self._rk = self._expand_key(key)
        # Middle-round keys grouped per round for the encrypt loop.
        self._mid_rk = [tuple(self._rk[k:k + 4]) for k in range(4, 40, 4)]
        # Round keys as kernel operands: [round, word, 1] broadcasts over blocks.
        self._rk_words = np.array(self._rk, dtype=_LE32).reshape(11, 4, 1)

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key expansion into 44 32-bit words."""
        words = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    # -- encryption (T-table rounds: one block, or many in NumPy) ---------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        return self._encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def _encrypt_int(self, block: int) -> int:
        """Encrypt one block held as a 128-bit big-endian integer (the
        scalar reference the vectorised kernel is tested against)."""
        rk = self._rk
        s0 = (block >> 96) ^ rk[0]
        s1 = ((block >> 64) & 0xFFFFFFFF) ^ rk[1]
        s2 = ((block >> 32) & 0xFFFFFFFF) ^ rk[2]
        s3 = (block & 0xFFFFFFFF) ^ rk[3]
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        for k0, k1, k2, k3 in self._mid_rk:
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0,
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1,
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2,
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3,
            )
        sb3, sb2, sb1, sb0 = _SB3, _SB2, _SB1, _SBOX
        o0 = (sb3[s0 >> 24] | sb2[(s1 >> 16) & 0xFF]
              | sb1[(s2 >> 8) & 0xFF] | sb0[s3 & 0xFF]) ^ rk[40]
        o1 = (sb3[s1 >> 24] | sb2[(s2 >> 16) & 0xFF]
              | sb1[(s3 >> 8) & 0xFF] | sb0[s0 & 0xFF]) ^ rk[41]
        o2 = (sb3[s2 >> 24] | sb2[(s3 >> 16) & 0xFF]
              | sb1[(s0 >> 8) & 0xFF] | sb0[s1 & 0xFF]) ^ rk[42]
        o3 = (sb3[s3 >> 24] | sb2[(s0 >> 16) & 0xFF]
              | sb1[(s1 >> 8) & 0xFF] | sb0[s2 & 0xFF]) ^ rk[43]
        return (o0 << 96) | (o1 << 64) | (o2 << 32) | o3

    def _encrypt_words(self, state: np.ndarray) -> np.ndarray:
        """Encrypt a ``(4, n)`` little-endian uint32 state: row i is word i
        of every block. The same rounds as :meth:`_encrypt_int`."""
        rk = self._rk_words
        state = state ^ rk[0]
        n = state.shape[1]
        for r in range(1, 11):
            lanes = state.view(np.uint8).reshape(4, n, 4)
            t0, t1, t2, t3 = _KT_ROUND if r < 10 else _KT_FINAL
            state = t0.take(lanes[:, :, 3])
            state ^= t1.take(lanes[_ROT1, :, 2])
            state ^= t2.take(lanes[_ROT2, :, 1])
            state ^= t3.take(lanes[_ROT3, :, 0])
            state ^= rk[r]
        return state

    # -- decryption (straightforward inverse cipher; tests only) ---------------

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (inverse cipher, unoptimized)."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = [
            [block[r + 4 * c] for c in range(4)] for r in range(4)
        ]
        rk = self._rk

        def add_round_key(rnd: int) -> None:
            for c in range(4):
                w = rk[4 * rnd + c]
                for r in range(4):
                    state[r][c] ^= (w >> (24 - 8 * r)) & 0xFF

        def inv_shift_rows() -> None:
            for r in range(1, 4):
                state[r] = state[r][-r:] + state[r][:-r]

        def inv_sub_bytes() -> None:
            for r in range(4):
                for c in range(4):
                    state[r][c] = _INV_SBOX[state[r][c]]

        def inv_mix_columns() -> None:
            for c in range(4):
                col = [state[r][c] for r in range(4)]
                state[0][c] = (_gmul(col[0], 14) ^ _gmul(col[1], 11)
                               ^ _gmul(col[2], 13) ^ _gmul(col[3], 9))
                state[1][c] = (_gmul(col[0], 9) ^ _gmul(col[1], 14)
                               ^ _gmul(col[2], 11) ^ _gmul(col[3], 13))
                state[2][c] = (_gmul(col[0], 13) ^ _gmul(col[1], 9)
                               ^ _gmul(col[2], 14) ^ _gmul(col[3], 11))
                state[3][c] = (_gmul(col[0], 11) ^ _gmul(col[1], 13)
                               ^ _gmul(col[2], 9) ^ _gmul(col[3], 14))

        add_round_key(10)
        for rnd in range(9, 0, -1):
            inv_shift_rows()
            inv_sub_bytes()
            add_round_key(rnd)
            inv_mix_columns()
        inv_shift_rows()
        inv_sub_bytes()
        add_round_key(0)
        return bytes(state[r % 4][r // 4] for r in range(16))


def ctr_keystreams(cipher: AES128,
                   requests: Iterable[Tuple[int, int, int]]) -> List[bytes]:
    """CTR keystreams for many ``(nonce, counter0, n_bytes)`` requests.

    Request i gets ``E(nonce || counter)`` for counters ``counter0,
    counter0 + 1, ...``, cut to ``n_bytes``; every block of every request
    goes through one kernel call. The 64-bit counter wraps; a negative
    ``counter0`` or ``n_bytes`` raises ``ValueError``, and a nonce outside
    64 bits raises ``OverflowError`` as soon as its request needs a block.
    """
    sizes: List[int] = []
    counts: List[int] = []
    nonces: List[int] = []
    starts: List[int] = []
    for nonce, counter0, n_bytes in requests:
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if counter0 < 0:
            raise ValueError("counter0 must be non-negative")
        n_blocks = -(-n_bytes // 16)
        if n_blocks and not 0 <= nonce <= _U64:
            raise OverflowError(f"nonce {nonce} does not fit in 64 bits")
        sizes.append(n_bytes)
        counts.append(n_blocks)
        # A request with no blocks repeats zero times: its values are unused.
        nonces.append(nonce if n_blocks else 0)
        starts.append(counter0 & _U64)
    total = sum(counts)
    if not total:
        return [b""] * len(sizes)
    reps = np.array(counts, dtype=np.intp)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    nonce_col = np.repeat(np.array(nonces, dtype=np.uint64), reps)
    counter_col = (np.repeat(np.array(starts, dtype=np.uint64), reps)
                   + (np.arange(total, dtype=np.intp) - first).astype(np.uint64))
    state = np.empty((4, total), dtype=_LE32)
    state[0] = (nonce_col >> np.uint64(32)).astype(np.uint32)
    state[1] = nonce_col.astype(np.uint32)
    state[2] = (counter_col >> np.uint64(32)).astype(np.uint32)
    state[3] = counter_col.astype(np.uint32)
    blob = cipher._encrypt_words(state).T.astype(">u4", order="C").tobytes()
    out: List[bytes] = []
    pos = 0
    for n_bytes, n_blocks in zip(sizes, counts):
        out.append(blob[pos:pos + n_bytes])
        pos += 16 * n_blocks
    return out


def aes_ctr_keystream(cipher: AES128, nonce: int, counter0: int,
                      n_bytes: int) -> bytes:
    """CTR keystream for one request: see :func:`ctr_keystreams`."""
    return ctr_keystreams(cipher, [(nonce, counter0, n_bytes)])[0]


def keystream_xor(data: bytes, keystream: bytes) -> bytes:
    """``data`` XOR an equally long ``keystream``, on whole integers."""
    n = len(data)
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(keystream, "big")).to_bytes(n, "big")


def ctr_crypt(cipher: AES128, nonce: int, counter0: int, data: bytes) -> bytes:
    """Encrypt/decrypt ``data`` in CTR mode (the operation is symmetric)."""
    return keystream_xor(data, aes_ctr_keystream(cipher, nonce, counter0,
                                                 len(data)))
