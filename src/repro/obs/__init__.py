"""repro.obs: observability for the simulated platform.

Three layers, wired through the whole stack:

* **Tracing** (:mod:`.trace`, :mod:`.chrometrace`) — structured events
  from the timing engine and the Click pipeline layer (run phases,
  per-packet spans with element attribution, sampled cache/MC events) to
  pluggable sinks, including the Chrome ``trace_event`` format
  (viewable in ``about:tracing`` / Perfetto).
* **Metrics** (:mod:`.metrics`) — periodic counter snapshots at a
  configurable simulated-time interval, yielding per-core time series
  (throughput, L3 refs/sec, hit rate, MC wait) with percentile summaries
  instead of a single end-of-run delta. The sampler is one of the
  machine's observers, next to the invariant checker and the SLO guard;
  the driver keeps separate deadlines for each, so a sampler's interval
  never shifts another observer's windows.
* **Run reports** (:mod:`.report`) — a serializable :class:`RunReport`
  schema used by the CLIs (``--json``) and the committed golden figure
  reports.

Use :func:`observe` to enable observability across code that builds
machines internally (profilers, sweeps, studies), or pass ``tracer=`` /
``metrics=`` to :class:`~repro.hw.machine.Machine` directly.
"""

from .trace import (
    KIND_GUARD,
    KIND_MEM,
    KIND_META,
    KIND_PACKET,
    KIND_PHASE,
    ListSink,
    NULL_SINK,
    NULL_TRACER,
    NullSink,
    TraceEvent,
    TraceSink,
    Tracer,
)
from .chrometrace import ChromeTraceSink, to_chrome_trace
from .metrics import FlowSeries, MetricsSampler, percentile
from .report import (
    RunReport,
    SCHEMA,
    flow_stats_dict,
    jsonable,
    platform_dict,
    validate_report,
)
from .session import ObsSession, current_session, observe

__all__ = [
    "KIND_GUARD",
    "KIND_MEM",
    "KIND_META",
    "KIND_PACKET",
    "KIND_PHASE",
    "ListSink",
    "NULL_SINK",
    "NULL_TRACER",
    "NullSink",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "ChromeTraceSink",
    "to_chrome_trace",
    "FlowSeries",
    "MetricsSampler",
    "percentile",
    "RunReport",
    "SCHEMA",
    "flow_stats_dict",
    "jsonable",
    "platform_dict",
    "validate_report",
    "ObsSession",
    "current_session",
    "observe",
]
