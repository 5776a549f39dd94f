"""The regen script itself must reproduce the committed goldens.

``tests/golden/regen.py --out DIR`` writes fresh golden reports into a
scratch directory; every file must be byte-identical to its committed
counterpart. Both tests read one regen output, built once per module.
This guards the *tooling* as well as the model: a regen script that
drifted from the builders (different serialization, missing
figure, stale path) would silently break the "regen and review the diff"
workflow the goldens depend on.
"""

from __future__ import annotations

import os

import pytest

from . import regen

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def regen_written(tmp_path_factory):
    """One regen run into a scratch directory: the paths it wrote."""
    return regen.regen(str(tmp_path_factory.mktemp("regen")), quiet=True)


def test_regen_reproduces_committed_goldens_byte_for_byte(regen_written):
    assert regen_written, "regen produced no reports"
    for fresh_path in regen_written:
        name = os.path.basename(fresh_path)
        committed_path = os.path.join(GOLDEN_DIR, name)
        assert os.path.exists(committed_path), (
            f"regen produced {name}, but no such golden is committed — "
            f"run tests/golden/regen.py and commit the result")
        with open(fresh_path, "rb") as fh:
            fresh = fh.read()
        with open(committed_path, "rb") as fh:
            committed = fh.read()
        assert fresh == committed, (
            f"{name}: regenerated report differs from the committed "
            f"golden ({len(fresh)} vs {len(committed)} bytes)")


def test_regen_covers_every_committed_golden(regen_written):
    written = {os.path.basename(p) for p in regen_written}
    committed = {name for name in os.listdir(GOLDEN_DIR)
                 if name.startswith("golden_") and name.endswith(".json")}
    assert committed <= written, (
        f"committed goldens not regenerated: {sorted(committed - written)}")
