"""Aho-Corasick multi-pattern matching (the DPI substrate).

Deep packet inspection is one of the "emerging types of packet
processing" the paper's discussion (Section 6) calls out as needing
megabytes of frequently accessed state. This is a textbook Aho-Corasick
automaton: a goto trie over all signatures, BFS-built failure links, and
merged output sets; ``search`` finds every occurrence of every pattern in
one pass over the payload.
"""

from __future__ import annotations

import random
import re
from collections import deque
from typing import Dict, List, Sequence, Tuple


class AhoCorasick:
    """Multi-pattern matcher over byte strings."""

    def __init__(self, patterns: Sequence[bytes]):
        if not patterns:
            raise ValueError("need at least one pattern")
        for pattern in patterns:
            if not pattern:
                raise ValueError("patterns must be non-empty")
        self.patterns: List[bytes] = list(patterns)
        # goto[state] maps byte -> next state; node 0 is the root.
        self.goto: List[Dict[int, int]] = [{}]
        self.fail: List[int] = [0]
        self.output: List[List[int]] = [[]]
        for index, pattern in enumerate(self.patterns):
            self._insert(pattern, index)
        self._build_failure_links()
        #: Finds the next byte with a transition out of the root: every
        #: byte before it leaves the automaton at the root.
        exits = b"".join(b"\\x%02x" % byte for byte in sorted(self.goto[0]))
        self._leave_root = re.compile(b"[" + exits + b"]")

    # -- construction -----------------------------------------------------------

    def _insert(self, pattern: bytes, index: int) -> None:
        state = 0
        for byte in pattern:
            nxt = self.goto[state].get(byte)
            if nxt is None:
                nxt = len(self.goto)
                self.goto.append({})
                self.fail.append(0)
                self.output.append([])
                self.goto[state][byte] = nxt
            state = nxt
        self.output[state].append(index)

    def _build_failure_links(self) -> None:
        queue = deque()
        for state in self.goto[0].values():
            self.fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self.goto[state].items():
                queue.append(nxt)
                fallback = self.fail[state]
                while fallback and byte not in self.goto[fallback]:
                    fallback = self.fail[fallback]
                self.fail[nxt] = self.goto[fallback].get(byte, 0)
                if self.fail[nxt] == nxt:
                    self.fail[nxt] = 0
                self.output[nxt] = self.output[nxt] + self.output[self.fail[nxt]]

    @property
    def n_states(self) -> int:
        """Number of automaton states (goto-trie nodes)."""
        return len(self.goto)

    # -- matching ---------------------------------------------------------------

    def step(self, state: int, byte: int) -> int:
        """One automaton transition."""
        while state and byte not in self.goto[state]:
            state = self.fail[state]
        return self.goto[state].get(byte, 0)

    def search(self, data: bytes) -> List[Tuple[int, int]]:
        """All matches as ``(end_offset, pattern_index)`` pairs."""
        matches: List[Tuple[int, int]] = []
        state = 0
        for pos, byte in enumerate(data):
            state = self.step(state, byte)
            for index in self.output[state]:
                matches.append((pos + 1, index))
        return matches

    def search_with_path(self, data: bytes):
        """Matches plus the visited state sequence (for access mirroring).

        The states are those of folding :meth:`step` over ``data`` from
        the root, computed in one loop: at the root, one regex search
        skips the run of bytes that stay there (the root has no output),
        and elsewhere the failure links are followed inline.
        """
        goto = self.goto
        fail = self.fail
        output = self.output
        root = goto[0]
        leave_root = self._leave_root.search
        matches: List[Tuple[int, int]] = []
        path: List[int] = []
        state = 0
        pos = 0
        end = len(data)
        while pos < end:
            if state:
                byte = data[pos]
                while True:
                    nxt = goto[state].get(byte)
                    if nxt is not None:
                        state = nxt
                        break
                    state = fail[state]
                    if not state:
                        state = root.get(byte, 0)
                        break
            else:
                hit = leave_root(data, pos)
                if hit is None:
                    path += [0] * (end - pos)
                    break
                start = hit.start()
                path += [0] * (start - pos)
                pos = start
                state = root[data[pos]]
            path.append(state)
            out = output[state]
            if out:
                for index in out:
                    matches.append((pos + 1, index))
            pos += 1
        return matches, path

    def contains_any(self, data: bytes) -> bool:
        """True as soon as any pattern occurs (early exit)."""
        state = 0
        for byte in data:
            state = self.step(state, byte)
            if self.output[state]:
                return True
        return False


def generate_signatures(rng: random.Random, n_patterns: int,
                        min_len: int = 6, max_len: int = 16) -> List[bytes]:
    """Random binary signatures (an IDS rule set stand-in).

    Signatures start with a rare byte (0xCC) so random payloads almost
    never match — mirroring the paper's craft of worst-case inputs (every
    packet is scanned end to end).
    """
    if n_patterns <= 0:
        raise ValueError("need at least one pattern")
    if not 1 <= min_len <= max_len:
        raise ValueError("bad length bounds")
    out = []
    seen = set()
    while len(out) < n_patterns:
        length = rng.randrange(min_len, max_len + 1)
        sig = bytes([0xCC]) + rng.randbytes(length - 1)
        if sig in seen:
            continue
        seen.add(sig)
        out.append(sig)
    return out
