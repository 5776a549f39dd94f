"""repro.guard: the online SLO guard (runtime supervisor).

The paper's promise is *predictable* performance: Section 4 predicts any
flow's drop from its competitors' solo refs/sec and contains hidden
aggressiveness by throttling a flow's memory-access rate. This package
closes that loop at runtime:

* **Admission** (:mod:`.admission`) — a proposed flow mix is admitted
  only if every flow's predicted drop stays within its declared SLO;
  rejections carry per-flow headroom and counter-proposals (alternative
  placements, or throttle targets derived by inverting the victims'
  sensitivity curves).
* **Monitoring** (:mod:`.supervisor`) — live per-flow drop and refs/sec
  observed as one of the machine's observers (beside the invariant
  checker and the metrics sampler, each on its own cadence), so the
  guard works identically under the scalar and batch engines.
* **Enforcement** — an escalation ladder per misbehaving flow: warn →
  tighten its throttle target (with hysteresis and exponential backoff
  of re-tightening) → quarantine (suspend on its core). Two-faced flows
  are detected as deviations from their solo profile.
* **Graceful degradation** — every action is a structured
  :class:`GuardEvent` emitted into the trace/metrics/RunReport pipeline
  (``kind="guard"``, payload schema ``repro.guard_report/1``); throttles
  are relaxed and restored when pressure subsides.

``repro guard`` (:mod:`.cli`) drives the Section 4 two-faced containment
demo and a random-SLO fuzz over :mod:`repro.check` scenarios.
"""

from .admission import AdmissionController, AdmissionDecision, FlowRequest
from .slo import GUARD_SCHEMA, FlowSLO, parse_slo
from .supervisor import (
    DEFAULT_GUARD_INTERVAL,
    GuardConfig,
    GuardEvent,
    SLOGuard,
)
from .wrappers import GuardedFlow, guarded_factory

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FlowRequest",
    "GUARD_SCHEMA",
    "FlowSLO",
    "parse_slo",
    "DEFAULT_GUARD_INTERVAL",
    "GuardConfig",
    "GuardEvent",
    "SLOGuard",
    "GuardedFlow",
    "guarded_factory",
]
