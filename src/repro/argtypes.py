"""Argparse value parsers shared by every command-line tool.

Each raises :class:`argparse.ArgumentTypeError` on a bad value, so the
tool exits with status 2 and a usage message instead of a traceback.
"""

from __future__ import annotations

import argparse


def _parse(cast, text: str, what: str):
    try:
        return cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}") from None


def seed(text: str) -> int:
    """A decimal or ``0x…`` seed (the CI seed is hex)."""
    return _parse(lambda t: int(t, 0), text, "seed")


def positive_int(text: str) -> int:
    value = _parse(int, text, "integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def non_negative_int(text: str) -> int:
    value = _parse(int, text, "integer")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def positive_float(text: str) -> float:
    value = _parse(float, text, "number")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def scale(text: str) -> int:
    """A platform scale-down factor the Westmere caches survive."""
    from .hw.topology import PlatformSpec

    value = positive_int(text)
    try:
        PlatformSpec.westmere().scaled(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value
