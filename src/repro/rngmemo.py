"""Memoizing values built from a seeded RNG.

Flow construction draws its tables and traffic populations from the
flow's seeded ``random.Random``, so each one is a pure function of its
arguments and the RNG state, and a sweep builds the same ones over and
over. :func:`rng_memo` shares one read-only value per distinct input and
leaves the RNG exactly where a fresh build would have left it, so every
later draw is unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, TypeVar

T = TypeVar("T")


def rng_memo(memo: OrderedDict, size: int, key: tuple, rng,
             build: Callable[[], T]) -> T:
    """``build()``, memoized in the LRU ``memo`` on ``key`` plus ``rng``'s
    state (the last key element).

    ``build`` must draw only from ``rng`` and return a value callers
    never mutate. A hit replays the RNG state the build ended in; the
    memo keeps at most ``size`` values.
    """
    key = key + (type(rng), rng.getstate())
    hit = memo.get(key)
    if hit is not None:
        memo.move_to_end(key)
        value, after = hit
        rng.setstate(after)
        return value
    value = build()
    memo[key] = (value, rng.getstate())
    if len(memo) > size:
        memo.popitem(last=False)
    return value
