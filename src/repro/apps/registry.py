"""Application registry: build the paper's flow types by name.

Each realistic flow type is a :class:`~repro.click.pipeline.Pipeline`
assembled exactly as Section 2.1 describes:

* ``IP``  — CheckIPHeader -> RadixIPLookup -> DecIPTTL
* ``MON`` — IP + NetFlow
* ``FW``  — IP + NetFlow + Firewall
* ``RE``  — IP + NetFlow + RE encoding
* ``VPN`` — IP + NetFlow + AES-128 encryption

plus the ``SYN``/``SYN_MAX`` synthetics. Each type also pins the paper's
input-traffic class (random destinations for IP, a fixed flow population
for MON/FW/VPN, redundant content for RE).
"""

from __future__ import annotations

from typing import Callable, Dict

from ..constants import DEFAULT_PAYLOAD_BYTES, NETFLOW_TABLE_ENTRIES
from ..hw.machine import FlowEnv
from ..click.pipeline import Pipeline
from ..click.elements.checkipheader import CheckIPHeader
from ..net.flowgen import (
    FlowPopulationTraffic,
    RedundantTraffic,
    UniformRandomTraffic,
)
from .dpi import DPIElement
from .firewall import Firewall
from .ipforward import DecIPTTL, RadixIPLookup
from .netflow import NetFlow
from .redundancy import REElement
from .synthetic import syn_factory, syn_max_factory
from .vpn import VPNEncrypt

#: Relative solo throughput of each type; scales per-flow measurement
#: packet targets so mixed runs finish in comparable simulated time.
MEASURE_WEIGHTS = {
    "IP": 1.0,
    "MON": 0.9,
    "FW": 0.14,
    "RE": 0.45,
    "VPN": 0.33,
    "DPI": 0.28,
}

REALISTIC_APPS = ("IP", "MON", "FW", "RE", "VPN")
#: Extension applications beyond the paper's five (Section 6 names DPI as
#: an emerging, cache-hungry application class).
EXTENSION_APPS = ("DPI",)
APP_NAMES = REALISTIC_APPS + EXTENSION_APPS + ("SYN", "SYN_MAX")


def _ip_elements(env: FlowEnv) -> list:
    return [CheckIPHeader(), RadixIPLookup(), DecIPTTL()]


def _mon_elements(env: FlowEnv) -> list:
    return _ip_elements(env) + [NetFlow()]


#: Per-application payload sizes: RE processes bulk content (fingerprinting
#: wants multiple windows per packet); VPN encrypts a bigger payload than
#: the forwarding-only flows.
RE_PAYLOAD_BYTES = 512
VPN_PAYLOAD_BYTES = 256
DPI_PAYLOAD_BYTES = 256


def _population_source(env: FlowEnv, payload_bytes: int):
    return FlowPopulationTraffic(
        env.rng, n_flows=env.spec.scale_table(NETFLOW_TABLE_ENTRIES),
        payload_bytes=payload_bytes, addr_bits=env.spec.address_bits,
    )


def make_app(name: str, env: FlowEnv,
             payload_bytes: int = DEFAULT_PAYLOAD_BYTES, **params):
    """Build a flow of type ``name`` in environment ``env``.

    Extra ``params`` go to the synthetics (``cpu_ops_per_ref``,
    ``refs_per_packet``). Section 4's control element is a wrapper
    around the built flow (:mod:`repro.core.throttling`).
    """
    if name == "SYN":
        return syn_factory(**params)(env)
    if name == "SYN_MAX":
        return syn_max_factory(**params)(env)

    if name == "IP":
        source = UniformRandomTraffic(env.rng, payload_bytes=payload_bytes,
                                      addr_bits=env.spec.address_bits)
        elements = _ip_elements(env)
    elif name == "MON":
        source = _population_source(env, payload_bytes)
        elements = _mon_elements(env)
    elif name == "FW":
        source = _population_source(env, payload_bytes)
        elements = _mon_elements(env) + [Firewall()]
    elif name == "RE":
        source = RedundantTraffic(env.rng, redundancy=0.35,
                                  payload_bytes=RE_PAYLOAD_BYTES,
                                  addr_bits=env.spec.address_bits)
        elements = _mon_elements(env) + [REElement()]
    elif name == "VPN":
        source = _population_source(env, VPN_PAYLOAD_BYTES)
        elements = _mon_elements(env) + [VPNEncrypt()]
    elif name == "DPI":
        source = _population_source(env, DPI_PAYLOAD_BYTES)
        elements = _mon_elements(env) + [DPIElement()]
    else:
        raise ValueError(f"unknown application {name!r} "
                         f"(known: {', '.join(APP_NAMES)})")

    return Pipeline(name=name, env=env, source=source, elements=elements,
                    measure_weight=MEASURE_WEIGHTS[name])


def app_factory(name: str, **kwargs) -> Callable[[FlowEnv], object]:
    """A factory suitable for :meth:`Machine.add_flow`."""

    def build(env: FlowEnv):
        return make_app(name, env, **kwargs)

    # The stream signature: with the (seed, core, spec) the batch
    # engine's cache key adds, it pins the generated stream, since
    # registry apps construct their tables and traffic from the seeded
    # env.rng only. Only parameter sets known to pin the stream get one;
    # any other simply is not cached.
    if name == "SYN" and set(kwargs) <= {"cpu_ops_per_ref", "refs_per_packet",
                                         "array_bytes"}:
        from .synthetic import syn_signature
        build.stream_signature = syn_signature(
            kwargs.get("cpu_ops_per_ref", 0), kwargs.get("refs_per_packet", 32),
            kwargs.get("array_bytes"), "SYN")
    elif name == "SYN_MAX" and set(kwargs) <= {"array_bytes"}:
        from .synthetic import syn_signature
        build.stream_signature = syn_signature(
            0, 32, kwargs.get("array_bytes"), "SYN_MAX")
    elif set(kwargs) <= {"payload_bytes"} and name in MEASURE_WEIGHTS:
        build.stream_signature = (
            "app", name, kwargs.get("payload_bytes", DEFAULT_PAYLOAD_BYTES))
    return build


def describe_apps() -> Dict[str, str]:
    """One-line description per application (CLI help)."""
    return {
        "IP": "full IP forwarding (radix-trie LPM, checksum, TTL)",
        "MON": "IP + NetFlow per-flow statistics",
        "FW": "IP + NetFlow + 1000-rule sequential firewall",
        "RE": "IP + NetFlow + redundancy elimination",
        "VPN": "IP + NetFlow + AES-128 encryption",
        "DPI": "IP + NetFlow + Aho-Corasick signature scan (extension)",
        "SYN": "synthetic: configurable CPU ops + random L3-sized reads",
        "SYN_MAX": "synthetic: back-to-back memory accesses",
    }
