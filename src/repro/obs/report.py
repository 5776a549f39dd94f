"""Machine-readable run reports.

A :class:`RunReport` is the canonical serialized record of one experiment
or CLI invocation: what was run (kind, command, config, seed, scale), on
what simulated hardware (the full calibration-constant set of the
:class:`~repro.hw.topology.PlatformSpec`), what came out (per-flow
statistics, kind-specific results), and — when metrics sampling was on —
the per-flow time series. Reports serialize to JSON (``to_json`` /
``write``) and CSV (``flows_csv`` / ``timeseries_csv``). :func:`jsonable`
coerces experiment result objects into the plain data a report's
``results`` holds; the golden reports in ``tests/golden/`` are built
with it.

The module is deliberately free of imports from :mod:`repro.hw` /
:mod:`repro.click`: everything is duck-typed, which keeps the
observability layer import-cycle-free (the machine imports ``obs``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Schema identifier embedded in every report (bump on breaking change).
SCHEMA = "repro.run_report/1"

#: Keys every serialized report must carry.
REQUIRED_KEYS = ("schema", "kind", "platform", "config", "flows", "results")

#: The PlatformSpec fields recorded as calibration constants.
_PLATFORM_FIELDS = (
    "n_sockets", "cores_per_socket", "freq_hz",
    "l1_size", "l1_ways", "l2_size", "l2_ways", "l3_size", "l3_ways",
    "lat_l1", "lat_l2", "lat_l3", "lat_dram_extra",
    "mc_service_cycles", "qpi_extra_cycles", "qpi_service_cycles",
    "scale",
)

#: Per-flow statistic columns (FlowStats property names).
FLOW_STAT_FIELDS = (
    "packets", "cycles", "seconds", "packets_per_sec",
    "cycles_per_packet", "cycles_per_instruction",
    "l3_refs_per_sec", "l3_hits_per_sec", "l3_misses_per_sec",
    "l3_hit_rate", "l3_refs_per_packet", "l3_misses_per_packet",
    "l2_hits_per_packet",
)


def jsonable(value: Any) -> Any:
    """Coerce result values into JSON-serializable shapes.

    Experiments hand over whatever their result objects hold: tuples,
    tuple-keyed dicts (e.g. the Figure 2 matrix), dataclasses (solo
    profiles), numpy scalars. Keys become strings; sequences become
    lists; unknown objects fall back to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            ("/".join(map(str, k)) if isinstance(k, tuple) else str(k)):
                jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return repr(value)


def platform_dict(spec) -> Dict[str, Any]:
    """The calibration constants of a PlatformSpec, as plain data."""
    return {name: getattr(spec, name) for name in _PLATFORM_FIELDS}


def flow_stats_dict(label: str, stats) -> Dict[str, Any]:
    """One flow's measured-window statistics as plain data."""
    out: Dict[str, Any] = {"label": label}
    for name in FLOW_STAT_FIELDS:
        out[name] = getattr(stats, name)
    latencies = getattr(stats, "latencies", None)
    if latencies:
        out["latency_ns"] = {
            f"p{q:g}": stats.latency_percentile_ns(q)
            for q in (50, 90, 99)
        }
    return out


def _config_dict(config) -> Dict[str, Any]:
    """A config object (dataclass or mapping) as plain data."""
    if config is None:
        return {}
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    raise TypeError(f"cannot serialize config of type {type(config)!r}")


@dataclass
class RunReport:
    """One run's machine-readable record. Build with :meth:`new`."""

    kind: str
    command: str = ""
    seed: Optional[int] = None
    scale: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    platform: Dict[str, Any] = field(default_factory=dict)
    flows: List[Dict[str, Any]] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    timeseries: Dict[str, Any] = field(default_factory=dict)
    #: Volatile execution metadata (sweep parallelism, cache hit/miss and
    #: retry counters, wall-clock). Everything *outside* this key is
    #: deterministic: byte-identical across job counts and cache states.
    execution: Dict[str, Any] = field(default_factory=dict)
    schema: str = SCHEMA

    @classmethod
    def new(cls, kind: str, spec=None, config=None, command: str = "",
            seed: Optional[int] = None) -> "RunReport":
        """A report pre-filled from a PlatformSpec and an experiment config."""
        config_data = _config_dict(config)
        if seed is None:
            seed = config_data.get("seed")
        scale = None
        if spec is not None:
            scale = spec.scale
        elif "scale" in config_data:
            scale = config_data["scale"]
        return cls(
            kind=kind, command=command, seed=seed, scale=scale,
            config=config_data,
            platform=platform_dict(spec) if spec is not None else {},
        )

    # -- population ---------------------------------------------------------

    def add_result_flows(self, result) -> None:
        """Append every flow of a :class:`~repro.hw.machine.RunResult`."""
        for label in result.flow_labels:
            self.flows.append(flow_stats_dict(label, result[label]))

    def attach_metrics(self, sampler, name: str = "run0") -> None:
        """Embed a sampler's interval time series under ``timeseries``."""
        payload = sampler.payload()
        if payload:
            self.timeseries[name] = payload

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        # Serial runs carry no execution metadata; omitting the empty key
        # keeps their documents byte-identical to pre-sweep reports (and
        # to the committed goldens).
        if not out["execution"]:
            del out["execution"]
        # Keep the schema marker first for human readers of the JSON.
        return {"schema": out.pop("schema"), **out}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> str:
        """Write the JSON document to ``path``; returns the path."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    def flows_csv(self) -> str:
        """The per-flow statistics table as CSV text."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("label",) + FLOW_STAT_FIELDS)
        for flow in self.flows:
            writer.writerow([flow.get("label")] +
                            [flow.get(name) for name in FLOW_STAT_FIELDS])
        return buf.getvalue()

    def timeseries_csv(self, run: str = "run0",
                       flow: Optional[str] = None) -> str:
        """One run's sampled time series as CSV (all flows or one)."""
        series = self.timeseries.get(run)
        if not series:
            raise KeyError(f"report has no timeseries for {run!r}")
        labels = [flow] if flow is not None else sorted(series)
        columns = None
        buf = io.StringIO()
        writer = csv.writer(buf)
        for label in labels:
            for point in series[label]:
                if columns is None:
                    columns = sorted(point)
                    writer.writerow(["flow"] + columns)
                writer.writerow([label] + [point.get(c) for c in columns])
        if columns is None:
            raise KeyError(f"no points recorded for {labels!r}")
        return buf.getvalue()


def validate_report(data: Dict[str, Any]) -> List[str]:
    """Schema-check a deserialized report; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"report must be an object, got {type(data).__name__}"]
    for key in REQUIRED_KEYS:
        if key not in data:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if data["schema"] != SCHEMA:
        problems.append(f"unknown schema {data['schema']!r}")
    if not isinstance(data["kind"], str) or not data["kind"]:
        problems.append("kind must be a non-empty string")
    for key in ("platform", "config", "results"):
        if not isinstance(data[key], dict):
            problems.append(f"{key} must be an object")
    if not isinstance(data["flows"], list):
        problems.append("flows must be a list")
    else:
        for i, flow in enumerate(data["flows"]):
            if not isinstance(flow, dict) or "label" not in flow:
                problems.append(f"flows[{i}] must be an object with a label")
    if not isinstance(data.get("execution", {}), dict):
        problems.append("execution must be an object")
    timeseries = data.get("timeseries", {})
    if not isinstance(timeseries, dict):
        problems.append("timeseries must be an object")
    else:
        for run, series in timeseries.items():
            if not isinstance(series, dict):
                problems.append(f"timeseries[{run!r}] must map flows to points")
                continue
            for label, points in series.items():
                if not isinstance(points, list):
                    problems.append(
                        f"timeseries[{run!r}][{label!r}] must be a list")
    return problems
