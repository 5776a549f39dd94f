"""The regression corpus: content-addressed JSON repros of failures.

Every failure the fuzzer finds is serialized into ``tests/corpus/`` as a
small JSON document (schema ``repro.check_repro/1``) holding the
(shrunken) scenario configuration, the violations observed when it was
captured, and capture metadata (engines, injected fault, if any). The
file name is the configuration's content digest, so re-finding the same
minimal configuration never duplicates an entry.

``tests/corpus/test_replay.py`` replays every entry on each test run and
asserts the configuration now passes the invariant suite — the corpus is
the permanent regression gate that fixed bugs stay fixed.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .scenarios import ScenarioConfig

#: Schema marker of corpus entries (bump on breaking change).
SCHEMA = "repro.check_repro/1"

#: Default corpus location, relative to the repository root.
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")


@dataclass
class ReproEntry:
    """One serialized failure: config + observed violations + metadata."""

    config: ScenarioConfig
    violations: List[str] = field(default_factory=list)
    engines: List[str] = field(default_factory=list)
    injected_fault: Optional[str] = None
    note: str = ""
    schema: str = SCHEMA

    @property
    def digest(self) -> str:
        return self.config.digest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "digest": self.digest,
            "config": self.config.to_dict(),
            "violations": list(self.violations),
            "engines": list(self.engines),
            "injected_fault": self.injected_fault,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReproEntry":
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SCHEMA:
            raise ValueError(f"not a corpus entry (schema={schema!r})")
        if "config" not in data:
            raise ValueError("corpus entry has no config")
        return cls(
            config=ScenarioConfig.from_dict(data["config"]),
            violations=list(data.get("violations", [])),
            engines=list(data.get("engines", [])),
            injected_fault=data.get("injected_fault"),
            note=data.get("note", ""),
        )


def entry_path(corpus_dir: str, entry: ReproEntry) -> str:
    return os.path.join(corpus_dir, f"repro_{entry.digest}.json")


def save_repro(corpus_dir: str, entry: ReproEntry) -> str:
    """Write ``entry`` into the corpus; returns its path.

    Content-addressed: saving the same minimal configuration twice
    overwrites the same file rather than accumulating duplicates.
    """
    os.makedirs(corpus_dir, exist_ok=True)
    path = entry_path(corpus_dir, entry)
    with open(path, "w") as fh:
        json.dump(entry.to_dict(), fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_repro(path: str) -> ReproEntry:
    with open(path) as fh:
        return ReproEntry.from_dict(json.load(fh))


def corpus_paths(corpus_dir: str) -> List[str]:
    """All corpus entry files, sorted for deterministic replay order."""
    return sorted(glob.glob(os.path.join(corpus_dir, "repro_*.json")))


def iter_corpus(corpus_dir: str) -> List[ReproEntry]:
    """Every entry of the corpus (empty when the directory is missing)."""
    return [load_repro(path) for path in corpus_paths(corpus_dir)]
