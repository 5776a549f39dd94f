"""Deterministic builders for the golden regression reports.

One seed-pinned, small-scale configuration drives table1, fig2, fig5,
fig6, fig8, fig9 and multiflow; the resulting
:class:`~repro.obs.report.RunReport` JSON documents are committed next to this module and asserted byte-stable (modulo
timestamp-like keys) by ``test_golden.py``. Regenerate deliberately
with::

    PYTHONPATH=src python tests/golden/regen.py

The builders resolve every figure on one cached sweep runner, so the
figures share their prerequisite shards (solo profiles, co-runs, SYN
curves) and a regen costs a few seconds, not a full paper reproduction.
"""

from __future__ import annotations

from typing import Dict

from repro.core.prediction import ContentionPredictor
from repro.experiments import fig2, fig5, fig6, fig8, fig9, multiflow, table1
from repro.experiments.common import ExperimentConfig
from repro.obs.report import jsonable
from repro.obs.report import RunReport
from repro.sweep import MemoryCache, SweepOptions, SweepRunner

#: Three apps span the interesting contention range (IP sensitive,
#: MON aggressive, FW cheap) while keeping the regen to seconds.
GOLDEN_APPS = ("IP", "MON", "FW")

GOLDEN_CONFIG = ExperimentConfig(
    scale=64, seed=20120425,
    solo_warmup=200, solo_measure=300,
    corun_warmup=120, corun_measure=200,
)

#: A small two-socket Figure 9 mix (six flows, three per socket).
GOLDEN_MIX = ("MON", "IP", "FW")

GOLDEN_NAMES = ("table1", "fig2", "fig5", "fig6", "fig8", "fig9",
                "multiflow")

#: Keys that may legitimately differ between regenerations.
VOLATILE_KEYS = frozenset(
    {"timestamp", "generated_at", "seconds", "elapsed", "wall_seconds"})


def _report(kind: str, results: dict, spec=None) -> RunReport:
    report = RunReport.new(kind, spec=spec or GOLDEN_CONFIG.socket_spec(),
                           config=GOLDEN_CONFIG,
                           command="tests/golden/regen.py")
    report.results.update(jsonable(results))
    return report


def build_reports() -> Dict[str, str]:
    """name -> RunReport JSON text for every golden figure."""
    config = GOLDEN_CONFIG
    # One cached runner: the figures share their solo-profile, co-run and
    # SYN-curve shards by content key, so each simulation runs once.
    runner = SweepRunner(SweepOptions(cache=MemoryCache()))
    t1 = table1.run(config, apps=GOLDEN_APPS, runner=runner)
    f2 = fig2.run(config, apps=GOLDEN_APPS, runner=runner)
    f5 = fig5.run(config, apps=GOLDEN_APPS, runner=runner)
    f6 = fig6.run(config, apps=GOLDEN_APPS, runner=runner)
    f8 = fig8.run(f2, ContentionPredictor(profiles=f2.profiles,
                                          curves=f5.curves))
    f9 = fig9.run(config, socket_mix=GOLDEN_MIX, runner=runner)
    mf = multiflow.run(config, runner=runner)

    reports = {
        "table1": _report("golden-table1", {"profiles": t1.profiles}),
        "fig2": _report("golden-fig2", {
            "drops": f2.drops,
            "averages": f2.averages(),
            "max_drop": f2.max_drop(),
            "most_sensitive": f2.most_sensitive(),
            "most_aggressive": f2.most_aggressive(),
        }),
        "fig5": _report("golden-fig5", {
            "curves": {t: c.points for t, c in f5.curves.items()},
            "realistic_points": f5.realistic_points,
            "deviations": {t: f5.deviation(t) for t in f5.curves},
        }),
        "fig8": _report("golden-fig8", {
            "entries": f8.entries,
            "average_abs_error": {
                t: f8.average_abs_error(t) for t in f8.apps},
            "average_abs_error_perfect": {
                t: f8.average_abs_error(t, perfect=True) for t in f8.apps},
            "worst_abs_error": f8.worst_abs_error(),
        }),
        "fig6": _report("golden-fig6", {
            "curves": f6.curves,
            "app_points": f6.app_points,
        }),
        "fig9": _report("golden-fig9", {
            "rows": f9.rows,
            "mean_abs_error": f9.mean_abs_error(),
            "max_abs_error": f9.max_abs_error(),
        }, spec=config.spec()),
        "multiflow": _report("golden-multiflow", {
            "rows": mf.rows,
            "shortfalls": {label: mf.shortfall(label)
                           for label, _ideal, _measured in mf.rows},
        }),
    }
    return {name: reports[name].to_json() + "\n" for name in GOLDEN_NAMES}


def normalize(text: str) -> str:
    """Canonical comparison form: parse, drop volatile keys, re-dump.

    The committed goldens carry no timestamps today, but the test
    compares through this filter so adding wall-clock metadata to
    RunReport later does not break byte-stability.
    """
    import json

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()
                    if k not in VOLATILE_KEYS}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return json.dumps(scrub(json.loads(text)), indent=2, sort_keys=True)
