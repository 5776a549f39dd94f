"""Substrate microbenchmarks (classic pytest-benchmark timings).

These are not paper figures; they characterize the building blocks the
experiments run on: cache probes, trie lookups (the reference walk and
the IP lookup element's recorded one), AES blocks and batched CTR
keystreams, Rabin fingerprints (rolling and RE's aligned chunks),
firewall scans, per-app functional packet generation, and raw engine
event throughput, solo and across core switches.
"""

import itertools
import random
import time

import pytest

from repro.apps.aes import AES128, ctr_keystreams
from repro.apps.fingerprint import RabinFingerprinter
from repro.apps.firewall import Firewall
from repro.apps.ipforward import RadixIPLookup
from repro.apps.radixtrie import RouteTableBuilder
from repro.apps.registry import REALISTIC_APPS, app_factory, make_app
from repro.hw.cache import SetAssociativeCache
from repro.hw.machine import Machine
from repro.hw.topology import PlatformSpec
from repro.hw.machine import FlowEnv
from repro.mem.access import AccessContext
from repro.mem.allocator import AddressSpace
from repro.net.packet import Packet


def make_env(spec, domain=0, seed=7):
    return FlowEnv(space=AddressSpace(spec.n_sockets), domain=domain,
                   spec=spec, rng=random.Random(seed))


def test_cache_access_throughput(benchmark):
    cache = SetAssociativeCache(size=256 * 1024, ways=8)
    rng = random.Random(1)
    lines = [rng.randrange(1 << 20) for _ in range(4096)]

    def probe_all():
        access = cache.access
        for line in lines:
            access(line)

    benchmark(probe_all)
    assert cache.hits + cache.misses > 0


def test_trie_lookup_throughput(benchmark):
    rng = random.Random(2)
    trie = RouteTableBuilder(rng).build(20_000)
    addrs = [rng.getrandbits(32) for _ in range(2048)]

    def lookup_all():
        lookup = trie.lookup
        for addr in addrs:
            lookup(addr)

    benchmark(lookup_all)


def test_radix_ip_lookup_process_throughput(benchmark):
    """The hot path's lookup: the element's fused walk on a recording
    context (``RadixTrie.lookup`` above is its reference)."""
    env = make_env(PlatformSpec.westmere().scaled(64))
    element = RadixIPLookup()
    element.initialize(env)
    rng = random.Random(2)
    packets = [Packet.udp(src=1, dst=rng.getrandbits(env.spec.address_bits))
               for _ in range(2048)]
    ctx = AccessContext()

    def process_all():
        process = element.process
        reset = ctx.reset
        refs = 0
        for packet in packets:
            process(ctx, packet)
            refs += ctx.n_references
            reset()
        return refs

    assert benchmark(process_all) >= len(packets)


def test_trie_build_throughput(benchmark):
    """Cold build of a scale-64 IP table (2000 routes, 26-bit universe).

    Every round seeds a fresh RNG, so the process-wide build memo never
    answers and a regression in the cold build stays visible.
    """
    seeds = itertools.count(0x7E1E_0000)
    built = []

    def fresh_builder():
        return (RouteTableBuilder(random.Random(next(seeds)), addr_bits=26),), {}

    def build(builder):
        built.append(builder.build(2000))

    benchmark.pedantic(build, setup=fresh_builder, rounds=5)
    assert len({id(trie) for trie in built}) == len(built)
    assert all(trie.n_routes == 2001 for trie in built)


def test_aes_block_throughput(benchmark):
    cipher = AES128(b"\x13" * 16)
    block = bytes(range(16))

    def encrypt_64():
        encrypt = cipher.encrypt_block
        b = block
        for _ in range(64):
            b = encrypt(b)
        return b

    out = benchmark(encrypt_64)
    assert len(out) == 16


def test_aes_ctr_run_ahead_throughput(benchmark):
    """One VPN run-ahead refill: 64 packets of 256 bytes in one kernel call."""
    cipher = AES128(b"\x13" * 16)
    requests = [(j, 16 * j, 256) for j in range(64)]
    out = benchmark(ctr_keystreams, cipher, requests)
    assert [len(ks) for ks in out] == [256] * 64
    assert out[5] == b"".join(
        cipher.encrypt_block((5).to_bytes(8, "big")
                             + (80 + i).to_bytes(8, "big"))
        for i in range(16))


@pytest.mark.parametrize("app", REALISTIC_APPS + ("DPI", "SYN_MAX"))
def test_generate_per_app(benchmark, app):
    """Functional generation of one flow: 64 ``run_packet`` calls per round
    at scale 64, the per-app split of the engine's generation time (the
    paper's five flows, DPI and the SYN_MAX probe)."""
    flow = make_app(app, make_env(PlatformSpec.westmere().scaled(64)))
    ctx = AccessContext()

    def generate_64():
        refs = 0
        for _ in range(64):
            flow.run_packet(ctx)
            refs += ctx.n_references
            ctx.reset()
        return refs

    assert benchmark(generate_64) > 0


def test_rabin_rolling_throughput(benchmark):
    fp = RabinFingerprinter(window=64)
    data = bytes((i * 31 + 7) % 256 for i in range(4096))
    result = benchmark(lambda: sum(1 for _ in fp.rolling(data)))
    assert result == 4096 - 64 + 1


def test_rabin_aligned_throughput(benchmark):
    """RE's per-packet fingerprints: eight 64-byte chunks of a 512-byte
    payload in one NumPy product."""
    fp = RabinFingerprinter(window=64)
    data = bytes((i * 31 + 7) % 256 for i in range(512))
    chunks = benchmark(fp.aligned, data)
    assert chunks == [(off, fp.fingerprint(data[off:off + 64]))
                      for off in range(0, 512, 64)]


def test_firewall_scan_throughput(benchmark):
    fw = Firewall(n_rules=1000)
    fw.initialize(make_env(PlatformSpec.westmere().scaled(8)))
    rng = random.Random(3)
    packets = [Packet.udp(src=rng.getrandbits(32), dst=rng.getrandbits(32),
                          dport=rng.randrange(65536)) for _ in range(256)]

    def scan_all():
        match = fw.first_match
        return sum(1 for p in packets if match(p) is None)

    passed = benchmark(scan_all)
    assert passed >= 250  # rules are unmatchable by construction


def test_engine_event_rate(benchmark):
    """End-to-end engine throughput: one IP flow, reported as time/run."""
    spec = PlatformSpec.westmere().scaled(32).single_socket()

    def run():
        machine = Machine(spec)
        machine.add_flow(app_factory("IP"), core=0, label="IP")
        return machine.run(warmup_packets=500, measure_packets=1500)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nengine processed {result.events:,} memory references")
    assert result.events > 10_000


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_driver_switch_rate(benchmark, engine):
    """The core-interleaving driver under contention: six SYN_MAX flows
    on one socket switch cores about once per reference (the solo
    ``test_engine_event_rate`` never switches). Reports ns/reference of
    the second of two identical runs, so the batch engine replays its
    cached streams instead of generating them."""
    spec = PlatformSpec.westmere().scaled(64).single_socket()

    def run():
        machine = Machine(spec)
        for core in range(6):
            machine.add_flow(app_factory("SYN_MAX"), core=core)
        start = time.perf_counter()
        result = machine.run(warmup_packets=200, measure_packets=400,
                             engine=engine)
        return result, time.perf_counter() - start

    run()
    result, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    ns_per_ref = seconds * 1e9 / result.events
    benchmark.extra_info["ns_per_ref"] = ns_per_ref
    print(f"\n{engine} driver: {result.events:,} references, "
          f"{ns_per_ref:.0f} ns/reference")
    assert len(result.flow_labels) == 6
