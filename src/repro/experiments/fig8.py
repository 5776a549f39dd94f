"""Figure 8: prediction errors for the two-flow-type workloads.

For every (target X, 5 competitors of type Y) pair of Figure 2:

* (a) the method's error: predicted (from competitors' *solo* refs/sec)
  minus measured drop;
* (b) the error assuming perfect knowledge of the competition (predicted
  at the competitors' *measured* co-run refs/sec);
* (c) per-target average absolute errors for both variants.

Paper shape: average error under ~2%, worst under ~3%; the solo-refs
overestimate accounts for the gap between (a) and (b), concentrated on
sensitive-competitor scenarios (5 IP / 5 MON).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.prediction import ContentionPredictor
from ..core.reporting import format_table, pct
from . import fig2


@dataclass
class Fig8Result:
    """Prediction errors per (target, competitor-type) pair."""

    apps: Tuple[str, ...]
    #: (target, competitor) -> (measured, predicted, predicted_perfect)
    entries: Dict[Tuple[str, str], Tuple[float, float, float]]

    def error(self, target: str, competitor: str) -> float:
        """Predicted minus measured drop (the method's signed error)."""
        measured, predicted, _ = self.entries[(target, competitor)]
        return predicted - measured

    def error_perfect(self, target: str, competitor: str) -> float:
        """Signed error when the competition is known exactly."""
        measured, _, perfect = self.entries[(target, competitor)]
        return perfect - measured

    def average_abs_error(self, target: str, perfect: bool = False) -> float:
        """Figure 8(c): mean |error| across a target's five scenarios."""
        errors = [
            self.error_perfect(target, c) if perfect else self.error(target, c)
            for c in self.apps
        ]
        return sum(abs(e) for e in errors) / len(errors)

    def worst_abs_error(self, perfect: bool = False) -> float:
        """Largest |error| over every (target, competitor) pair."""
        values = []
        for target in self.apps:
            for competitor in self.apps:
                e = (self.error_perfect(target, competitor) if perfect
                     else self.error(target, competitor))
                values.append(abs(e))
        return max(values)

    def render(self) -> str:
        """The Figure 8 tables as text."""
        rows = []
        for target in self.apps:
            for competitor in self.apps:
                measured, predicted, perfect = self.entries[
                    (target, competitor)
                ]
                rows.append([
                    f"{target} vs 5x{competitor}",
                    pct(measured), pct(predicted),
                    pct(predicted - measured), pct(perfect - measured),
                ])
        table = format_table(
            ["scenario", "measured", "predicted", "error", "error (perfect)"],
            rows, title="Figure 8: prediction errors",
        )
        avg_rows = [
            [t, pct(self.average_abs_error(t)),
             pct(self.average_abs_error(t, perfect=True))]
            for t in self.apps
        ]
        averages = format_table(
            ["target", "avg |error|", "avg |error| (perfect)"],
            avg_rows, title="Figure 8(c): average errors",
        )
        return table + "\n\n" + averages


def run(fig2_result: fig2.Fig2Result, predictor: ContentionPredictor,
        n_competitors: int = 5) -> Fig8Result:
    """Predict every Figure 2 scenario and compare to its measurement.

    Pure analysis of a Figure 2 run (``fig2.run``) and a predictor whose
    curves are the Figure 5 SYN sweeps (``fig5.run(...).curves``); share
    their simulations through one cached runner.
    """
    apps = fig2_result.apps
    entries: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
    for target in apps:
        for competitor in apps:
            measured = fig2_result.drops[(target, competitor)]
            predicted = predictor.predict_drop(
                target, [competitor] * n_competitors
            )
            corun = fig2_result.measurements[(target, competitor)]
            actual_refs = corun.competing_refs(exclude=f"{target}@0")
            perfect = predictor.predict_drop(target,
                                             competing_refs=actual_refs)
            entries[(target, competitor)] = (measured, predicted, perfect)
    return Fig8Result(apps=apps, entries=entries)
