"""Application registry: every flow type builds and runs."""

import pytest

from repro.apps.registry import (
    APP_NAMES,
    MEASURE_WEIGHTS,
    REALISTIC_APPS,
    app_factory,
    describe_apps,
    make_app,
)
from repro.apps.synthetic import SynApp
from repro.click.pipeline import Pipeline
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.mem.access import AccessContext
from tests.conftest import make_env


@pytest.mark.parametrize("name", REALISTIC_APPS)
def test_realistic_apps_are_pipelines(name):
    app = make_app(name, make_env())
    assert isinstance(app, Pipeline)
    assert app.name == name
    assert app.measure_weight == MEASURE_WEIGHTS[name]


@pytest.mark.parametrize("name", ["SYN", "SYN_MAX"])
def test_synthetics(name):
    app = make_app(name, make_env())
    assert isinstance(app, SynApp)


def test_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown"):
        make_app("NAT", make_env())


@pytest.mark.parametrize("name", REALISTIC_APPS)
def test_every_app_processes_packets(name):
    app = make_app(name, make_env())
    ctx = AccessContext()
    for _ in range(5):
        ctx.reset()
        app.run_packet(ctx)
        ctx.finish_packet()
        assert ctx.n_references > 0 or ctx.trailing_gap > 0


def test_element_composition_matches_paper():
    """MON = IP + NetFlow; FW/RE/VPN extend MON (Section 2.1)."""
    def names(app):
        return [e.__class__.__name__ for e in make_app(app, make_env()).elements]

    ip = names("IP")
    assert ip == ["CheckIPHeader", "RadixIPLookup", "DecIPTTL"]
    assert names("MON") == ip + ["NetFlow"]
    assert names("FW") == ip + ["NetFlow", "Firewall"]
    assert names("RE") == ip + ["NetFlow", "REElement"]
    assert names("VPN") == ip + ["NetFlow", "VPNEncrypt"]


def test_app_factory_runs_on_machine():
    m = Machine(PlatformSpec.westmere().scaled(64))
    m.add_flow(app_factory("IP"), core=0, label="IP")
    stats = m.run(warmup_packets=100, measure_packets=200)["IP"]
    assert stats.packets == 200
    assert stats.l3_refs_per_sec > 0


def test_describe_apps_covers_all():
    descriptions = describe_apps()
    assert set(descriptions) == set(APP_NAMES)
    assert all(descriptions.values())
