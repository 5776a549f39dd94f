"""Randomized, well-formed experiment configurations.

A :class:`ScenarioConfig` is a plain-data description of one seeded
machine setup: platform shape (scale, sockets), measurement window, and
a list of :class:`FlowConf` placements drawn from the full application
registry — plain pipelines, synthetics, shared-core multiplexes,
throttled flows, and two-faced adversaries, with optional remote NUMA
data placement. Configurations serialize losslessly to JSON (they are
what the regression corpus stores and what the sweep-equality shard task
receives) and hash to a stable content digest.

:func:`generate` derives scenarios deterministically from a master seed:
scenario *i* of seed *S* is always the same configuration, so a failure
reported by CI as ``--scenarios 200 --seed 0x5EED`` is reproducible with
the scenario's serialized config alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..apps.registry import APP_NAMES, REALISTIC_APPS, app_factory
from ..apps.synthetic import syn_factory, syn_max_factory
from ..click.multiflow import shared_core_factory
from ..core.throttling import throttled_factory, two_faced_factory
from ..hw.machine import Machine
from ..hw.topology import PlatformSpec
from ..sweep.shard import canonical_json

#: Flow-wrapper kinds the generator can produce.
FLOW_KINDS = ("app", "syn", "shared", "throttled", "twofaced")

#: SYN cpu-ops levels (the paper's sensitivity-sweep x axis).
SYN_LEVELS = (0, 60, 360, 1440)

#: Throttle targets (L3 refs/sec) reasonable at scale 16-64.
THROTTLE_RATES = (1.2e7, 2.0e7, 3.0e7)


@dataclass(frozen=True)
class FlowConf:
    """One flow placement (plain data; see :meth:`factory`)."""

    kind: str                       #: one of FLOW_KINDS
    core: int
    app: Optional[str] = None       #: app / throttled / twofaced base type
    apps: Tuple[str, ...] = ()      #: shared-core member types
    cpu_ops: Optional[int] = None   #: SYN intensity (None = SYN_MAX)
    rate: Optional[float] = None    #: throttle target refs/sec
    trigger: Optional[int] = None   #: two-faced trigger packet count
    data_domain: Optional[int] = None

    def factory(self):
        """The flow factory this configuration describes."""
        if self.kind == "app":
            return app_factory(self.app)
        if self.kind == "syn":
            if self.cpu_ops is None:
                return syn_max_factory()
            return syn_factory(cpu_ops_per_ref=self.cpu_ops)
        if self.kind == "shared":
            return shared_core_factory(
                [app_factory(a) for a in self.apps],
                name="mix-" + "-".join(self.apps))
        if self.kind == "throttled":
            return throttled_factory(app_factory(self.app), self.rate)
        if self.kind == "twofaced":
            return two_faced_factory(app_factory(self.app), syn_max_factory(),
                                     self.trigger)
        raise ValueError(f"unknown flow kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "core": self.core}
        if self.app is not None:
            out["app"] = self.app
        if self.apps:
            out["apps"] = list(self.apps)
        if self.cpu_ops is not None:
            out["cpu_ops"] = self.cpu_ops
        if self.rate is not None:
            out["rate"] = self.rate
        if self.trigger is not None:
            out["trigger"] = self.trigger
        if self.data_domain is not None:
            out["data_domain"] = self.data_domain
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowConf":
        return cls(
            kind=data["kind"], core=data["core"], app=data.get("app"),
            apps=tuple(data.get("apps", ())), cpu_ops=data.get("cpu_ops"),
            rate=data.get("rate"), trigger=data.get("trigger"),
            data_domain=data.get("data_domain"),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully seeded, reproducible machine configuration."""

    seed: int
    scale: int = 64
    sockets: int = 1
    warmup: int = 30
    measure: int = 100
    flows: Tuple[FlowConf, ...] = ()
    name: str = ""

    def spec(self) -> PlatformSpec:
        spec = PlatformSpec.westmere().scaled(self.scale)
        return spec.single_socket() if self.sockets == 1 else spec

    def build(self, checker=None, metrics=None) -> Machine:
        """A fresh machine implementing this configuration."""
        machine = Machine(self.spec(), seed=self.seed, checker=checker,
                          metrics=metrics)
        for fc in self.flows:
            machine.add_flow(fc.factory(), core=fc.core,
                             data_domain=fc.data_domain)
        return machine

    def run(self, engine: Optional[str] = None, checker=None):
        """Build and run once; returns ``(machine, result)``."""
        machine = self.build(checker=checker)
        result = machine.run(warmup_packets=self.warmup,
                             measure_packets=self.measure, engine=engine)
        return machine, result

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "scale": self.scale,
            "sockets": self.sockets, "warmup": self.warmup,
            "measure": self.measure, "name": self.name,
            "flows": [fc.to_dict() for fc in self.flows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioConfig":
        return cls(
            seed=data["seed"], scale=data.get("scale", 64),
            sockets=data.get("sockets", 1), warmup=data.get("warmup", 30),
            measure=data.get("measure", 100), name=data.get("name", ""),
            flows=tuple(FlowConf.from_dict(f) for f in data.get("flows", ())),
        )

    def digest(self) -> str:
        """Content hash of the configuration (name excluded)."""
        doc = self.to_dict()
        doc.pop("name", None)
        return hashlib.sha256(
            canonical_json(doc).encode()).hexdigest()[:16]

    def describe(self) -> str:
        parts = []
        for fc in self.flows:
            what = {
                "app": fc.app,
                "syn": f"SYN({fc.cpu_ops if fc.cpu_ops is not None else 'max'})",
                "shared": "+".join(fc.apps),
                "throttled": f"thr({fc.app}@{fc.rate:.2g})"
                if fc.rate else f"thr({fc.app})",
                "twofaced": f"2faced({fc.app},t={fc.trigger})",
            }[fc.kind]
            where = f"@{fc.core}"
            if fc.data_domain is not None:
                where += f"/d{fc.data_domain}"
            parts.append(what + where)
        return (f"{self.name or 'scenario'}[seed={self.seed} "
                f"scale={self.scale} sockets={self.sockets} "
                f"w={self.warmup} m={self.measure}] " + " ".join(parts))


def _gen_flow(rng: random.Random, core: int, sockets: int,
              cores_per_socket: int) -> FlowConf:
    kind = rng.choices(FLOW_KINDS, weights=(55, 15, 10, 10, 10))[0]
    data_domain = None
    if sockets == 2 and rng.random() < 0.2:
        # Remote data placement: home the data on the other socket.
        data_domain = 1 - (core // cores_per_socket)
    if kind == "app":
        return FlowConf("app", core, app=rng.choice(APP_NAMES),
                        data_domain=data_domain)
    if kind == "syn":
        cpu_ops = rng.choice(SYN_LEVELS + (None,))
        return FlowConf("syn", core, cpu_ops=cpu_ops,
                        data_domain=data_domain)
    if kind == "shared":
        members = tuple(rng.sample(REALISTIC_APPS, rng.choice((2, 3))))
        return FlowConf("shared", core, apps=members,
                        data_domain=data_domain)
    if kind == "throttled":
        return FlowConf("throttled", core,
                        app=rng.choice(("IP", "MON", "RE")),
                        rate=rng.choice(THROTTLE_RATES),
                        data_domain=data_domain)
    # twofaced
    return FlowConf("twofaced", core, app=rng.choice(("FW", "MON")),
                    trigger=rng.choice((40, 120, 250)),
                    data_domain=data_domain)


def generate_one(master_seed: int, index: int) -> ScenarioConfig:
    """Scenario ``index`` of the stream seeded by ``master_seed``."""
    rng = random.Random((master_seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)
    sockets = 2 if rng.random() < 0.25 else 1
    scale = rng.choice((64, 64, 64, 16))
    spec = PlatformSpec.westmere().scaled(scale)
    cores_per_socket = spec.cores_per_socket
    total_cores = cores_per_socket * sockets
    n_flows = rng.choices((1, 2, 3, 4), weights=(25, 35, 25, 15))[0]
    n_flows = min(n_flows, total_cores)
    cores = rng.sample(range(total_cores), n_flows)
    flows = tuple(_gen_flow(rng, core, sockets, cores_per_socket)
                  for core in sorted(cores))
    config = ScenarioConfig(
        seed=rng.randrange(1, 1 << 31),
        scale=scale, sockets=sockets,
        warmup=rng.choice((1, 10, 30, 60)),
        measure=rng.choice((60, 100, 150, 200)),
        flows=flows,
    )
    name = f"scn{index:04d}-{config.digest()[:8]}"
    return dataclasses.replace(config, name=name)


def generate(n: int, master_seed: int) -> List[ScenarioConfig]:
    """``n`` deterministic scenarios for ``master_seed``."""
    return [generate_one(master_seed, i) for i in range(n)]
