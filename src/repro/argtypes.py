"""Argparse value parsers shared by every ``repro`` subcommand.

Each raises :class:`argparse.ArgumentTypeError` on a bad value, so the
command exits with status 2 and a usage message instead of a traceback.
"""

from __future__ import annotations

import argparse
import os


def _parse(cast, text: str, what: str, ok=lambda value: True,
           bound: str = ""):
    try:
        value = cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r}") from None
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {bound}")
    return value


def seed(text: str) -> int:
    """A decimal or ``0x…`` seed (the CI seed is hex)."""
    return _parse(lambda t: int(t, 0), text, "seed")


def positive_int(text: str) -> int:
    return _parse(int, text, "integer", lambda v: v >= 1, ">= 1")


def non_negative_int(text: str) -> int:
    return _parse(int, text, "integer", lambda v: v >= 0, ">= 0")


def positive_float(text: str) -> float:
    return _parse(float, text, "number", lambda v: v > 0, "> 0")


def scale(text: str) -> int:
    """A platform scale-down factor the Westmere caches survive."""
    from .hw.topology import PlatformSpec

    value = positive_int(text)
    try:
        PlatformSpec.westmere().scaled(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def output_path(text: str) -> str:
    """A file path the command can write, checked without creating it,
    so that a bad path fails before the run rather than after it."""
    folder = os.path.dirname(text) or "."
    if (os.path.isdir(text) or not os.access(folder, os.W_OK)
            or os.path.exists(text) and not os.access(text, os.W_OK)):
        raise argparse.ArgumentTypeError(f"cannot write {text}")
    return text


def existing_dir(text: str) -> str:
    """A directory that exists, so that a misspelt path is an error
    rather than an empty input."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"no such directory: {text}")
    return text
