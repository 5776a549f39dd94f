"""Set-associative LRU cache model.

Each cache set holds line indices in LRU-first / MRU-last order; a hit
moves the line to the back, a miss appends it and evicts the front when
the set overflows. A set has one of two layouts, chosen by the
``hashed`` argument when the cache is built:

* a ``list`` (the default), which :class:`~repro.hw.machine.Machine`
  gives every private L1 and L2. The window loops scan it: a hit is
  ``line in s``, ``s.remove(line)``, ``s.append(line)``, and an
  eviction is ``s.pop(0)``;
* an insertion-ordered ``dict`` with the lines as keys and ``None`` as
  values (``hashed=True``), which the machine gives each socket's
  shared L3. Iteration runs LRU-first, so a hit is ``line in s``,
  ``del s[line]``, ``s[line] = None``, and an eviction is
  ``del s[next(iter(s))]``.

Eviction is exact LRU on both layouts, so results do not depend on the
choice; only the cost per reference does. In micro-benchmarks a 16-way
set at about 50% hits costs 275-280 ns per operation as a list and
200-220 ns as a dict, since a dict finds a line by hash where the list
compares every way. An 8-way set at 20% hits costs 145 ns as a list and
173 ns as a dict: evicting through a dict iterator costs more than
``pop(0)`` on eight pointers, and dicts at every level measured about
2% slower on the scalar co-run benchmark. A churned 16-line dict takes
about 1,168 bytes against 248 for the list.

The window loops in :mod:`repro.hw.machine` and
:mod:`repro.fastpath.engine` reach into ``sets`` / ``n_sets`` /
``ways`` directly for speed; this class is the single owner of both
layouts, and every method below works on either.
"""

from __future__ import annotations

from typing import List, Optional

from ..constants import CACHE_LINE


class SetAssociativeCache:
    """An LRU set-associative cache indexed by global cache-line number.

    ``hashed`` stores each set as an insertion-ordered dict instead of a
    list (see the module docstring).
    """

    __slots__ = ("name", "size", "ways", "n_sets", "hashed", "sets",
                 "hits", "misses")

    def __init__(self, size: int, ways: int, name: str = "cache",
                 line_size: int = CACHE_LINE, hashed: bool = False):
        if size <= 0 or ways <= 0:
            raise ValueError("cache size and associativity must be positive")
        if size % (ways * line_size):
            raise ValueError(
                f"{name}: size {size} not divisible by ways*line ({ways}*{line_size})"
            )
        n_sets = size // (ways * line_size)
        self.name = name
        self.size = size
        self.ways = ways
        self.n_sets = n_sets
        self.hashed = hashed
        self.sets: list = [{} if hashed else [] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    # -- operations ----------------------------------------------------------

    def access(self, line: int) -> bool:
        """Reference ``line``: returns True on hit. Fills (and evicts) on miss."""
        hit = line in self.sets[line % self.n_sets]
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self.fill(line)
        return hit

    def fill(self, line: int) -> Optional[int]:
        """Insert ``line`` as MRU without counting a reference.

        Returns the evicted line, or None.
        """
        s = self.sets[line % self.n_sets]
        if self.hashed:
            s.pop(line, None)
            s[line] = None
            if len(s) > self.ways:
                victim = next(iter(s))
                del s[victim]
                return victim
            return None
        if line in s:
            s.remove(line)
        s.append(line)
        if len(s) > self.ways:
            return s.pop(0)
        return None

    def probe(self, line: int) -> bool:
        """True if ``line`` is resident; does not touch LRU state or counters."""
        return line in self.sets[line % self.n_sets]

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present (models DMA writes from the NIC)."""
        s = self.sets[line % self.n_sets]
        if line not in s:
            return False
        if self.hashed:
            del s[line]
        else:
            s.remove(line)
        return True

    def flush(self) -> None:
        """Empty the cache and reset statistics."""
        for s in self.sets:
            s.clear()
        self.hits = 0
        self.misses = 0

    # -- introspection -------------------------------------------------------

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.n_sets * self.ways

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(map(len, self.sets))

    def resident_lines(self) -> List[int]:
        """All resident line indices (test/debug helper)."""
        out: List[int] = []
        for s in self.sets:
            out.extend(s)
        return out

    def validate(self) -> List[str]:
        """Structural integrity problems of the LRU state (empty = sound).

        Checks the invariants every mutation above preserves: no set
        holds more lines than the associativity, every resident line
        lives in the set its index maps to, and no line is resident
        twice. The invariant engine (:mod:`repro.check`) calls this on
        every cache of a machine during and after runs.
        """
        problems: List[str] = []
        seen: dict = {}
        for idx, s in enumerate(self.sets):
            if len(s) > self.ways:
                problems.append(
                    f"{self.name}: set {idx} holds {len(s)} lines "
                    f"(> {self.ways} ways)"
                )
            for line in s:
                if line % self.n_sets != idx:
                    problems.append(
                        f"{self.name}: line {line} resident in set {idx} "
                        f"but maps to set {line % self.n_sets}"
                    )
                if line in seen:
                    problems.append(
                        f"{self.name}: line {line} resident in sets "
                        f"{seen[line]} and {idx}"
                    )
                seen[line] = idx
        return problems

    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name!r}, size={self.size}, "
            f"ways={self.ways}, sets={self.n_sets})"
        )
