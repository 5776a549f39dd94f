"""Every example in ``examples/`` runs clean at a small size.

Each module is imported, its ``SCALE``/``WARMUP``/``MEASURE`` constants
(where it has them) are shrunk, and its ``main()`` runs. The argv paths
and the temp directory point under ``tmp_path``, so no file lands
anywhere else.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import tempfile

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SMALL = {"SCALE": 64, "WARMUP": 100, "MEASURE": 200}


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in SMALL.items():
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "t.pcap"),
                                      str(tmp_path / "t.json")])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    module.main()
    assert capsys.readouterr().out
