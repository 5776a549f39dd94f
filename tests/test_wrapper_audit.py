"""Flow-identity audit: the stream cache must never alias a wrapper.

The batch engine keys its skeleton/stream cache on the stream signature
the innermost factory declares (``FlowRun.signature``), and labels on
the flow's ``name``. On a warm cache ``Machine.add_flow`` stands a
skeleton of that innermost flow in for the factory's product, wrapped
only in the wrappers declared through ``inner_factory``. A signatured
factory that builds a layer it does not declare would therefore lose
that layer on cache-warm runs, and a wrapper that reuses its inner
flow's name could not be told apart from it. ``Machine.add_flow``
audits every constructed flow against both; these are the regression
tests.
"""

import pytest

from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.check.scenarios import FlowConf
from repro.click.multiflow import SharedCoreFlow
from repro.core.throttling import (ThrottledFlow, TwoFacedFlow,
                                   throttled_factory, two_faced_factory,
                                   wrapper_factory)
from repro.guard.wrappers import guarded_factory
from repro.hw.machine import Machine, _audit_wrapper_identity, flow_layers
from repro.hw.topology import PlatformSpec


def spec():
    return PlatformSpec.westmere().scaled(64)


class _NameStealingWrapper:
    """A buggy wrapper that forwards its inner flow's identity."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def run_packet(self, ctx):
        return self.inner.run_packet(ctx)


def test_add_flow_rejects_name_aliasing_wrapper():
    m = Machine(spec())
    with pytest.raises(ValueError, match="name"):
        m.add_flow(lambda env: _NameStealingWrapper(syn_factory()(env)),
                   core=0)


def test_add_flow_rejects_signature_aliasing_wrapper():
    # A signatured factory building a throttle it does not declare: a
    # warm-cache skeleton would stand for the whole flow and drop it.
    def undeclared(env):
        return ThrottledFlow(syn_factory()(env), target_refs_per_sec=1e6)

    undeclared.stream_signature = syn_factory().stream_signature
    with pytest.raises(ValueError, match="stream signature"):
        Machine(spec()).add_flow(undeclared, core=0)
    # A declared wrapper that is timing-pure would have its own stream
    # cached under the inner flow's signature.
    pure_wrap = wrapper_factory(syn_factory(),
                                lambda inner: SharedCoreFlow([inner]))
    with pytest.raises(ValueError, match="stream signature"):
        Machine(spec()).add_flow(pure_wrap, core=0)


def test_audit_allows_uncacheable_wrappers():
    # A factory declaring no signature is never stream-cached, so it may
    # build any wrapper, even over a flow whose factory is signatured.
    m = Machine(spec())
    fr = m.add_flow(
        lambda env: ThrottledFlow(syn_factory()(env), 1e6), core=0)
    assert fr.flow.name.startswith("throttled(")
    assert fr.signature is None


def test_shipped_wrappers_pass_the_audit():
    # Every wrapper in the tree must construct cleanly under the audit.
    m = Machine(spec())
    m.add_flow(throttled_factory(syn_factory(), target_refs_per_sec=1e6),
               core=0)
    m.add_flow(guarded_factory(syn_factory()), core=1)
    m.add_flow(two_faced_factory(syn_factory(), syn_max_factory(), 10),
               core=2)
    m.add_flow(guarded_factory(throttled_factory(syn_factory(), 1e6)),
               core=3)
    names = [fr.flow.name for fr in m.flows]
    assert all(name.startswith(("throttled(", "guarded(", "twofaced("))
               for name in names)


_FLOW_CONFS = [
    FlowConf("app", 0, app="IP"),
    FlowConf("syn", 0, cpu_ops=60),
    FlowConf("syn", 0),
    FlowConf("shared", 0, apps=("IP", "MON")),
    FlowConf("throttled", 0, app="MON", rate=1e7),
    FlowConf("twofaced", 0, app="IP", trigger=20),
]


@pytest.mark.parametrize("guarded", [False, True], ids=["bare", "guarded"])
@pytest.mark.parametrize("conf", _FLOW_CONFS,
                         ids=lambda conf: conf.kind + str(conf.cpu_ops or ""))
def test_every_flow_conf_kind_constructs_cleanly(conf, guarded):
    factory = conf.factory()
    if guarded:
        factory = guarded_factory(factory)
    fr = Machine(spec()).add_flow(factory, core=0)
    innermost = factory
    while getattr(innermost, "inner_factory", None) is not None:
        innermost = innermost.inner_factory
    assert fr.signature == innermost.stream_signature
    assert fr.signature is not None
    # Flows carry no signature of their own.
    assert not any(hasattr(layer, "stream_signature")
                   for layer in flow_layers(fr.flow))


def test_audit_ignores_flows_without_inners():
    class Plain:
        name = "plain"

        def run_packet(self, ctx):
            return None

    _audit_wrapper_identity(Plain(), 0, False)  # must not raise


def test_audit_checks_two_faced_personas():
    class Persona:
        def __init__(self, name):
            self.name = name

        def run_packet(self, ctx):
            return None

    # TwoFacedFlow derives a distinct name: passes.
    _audit_wrapper_identity(
        TwoFacedFlow(Persona("i"), Persona("a"), trigger_packets=1), 0, False)

    class BuggyComposite:
        """Forwards a persona's name verbatim (the audited bug)."""

        def __init__(self, innocent, aggressive):
            self.innocent = innocent
            self.aggressive = aggressive
            self.name = aggressive.name

        def run_packet(self, ctx):
            return None

    with pytest.raises(ValueError, match="name"):
        _audit_wrapper_identity(
            BuggyComposite(Persona("i"), Persona("a")), 0, False)
