"""Ablations for the design choices DESIGN.md calls out.

* delta (the hit-to-miss penalty) drives drop magnitude — Equation 1's
  mechanism, checked by varying the simulated DRAM latency.
* the memory-controller service time drives the (small) MC-only effect of
  Figure 4(b).
* the platform scale knob preserves contention shapes (the basis for
  running experiments scaled down).
* the SYN array size calibrates the profiler's per-reference
  aggressiveness (the SYN-equivalence substitution).
"""

from dataclasses import replace

from repro.apps.registry import app_factory
from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.hw.counters import performance_drop
from repro.hw.machine import Machine


def _mon_drop_vs_synmax(spec, seed, warm, meas, data_domain=None,
                        competitor_cores=None, array_bytes=None):
    solo_machine = Machine(spec, seed=seed)
    solo_machine.add_flow(app_factory("MON"), core=0, label="T")
    solo = solo_machine.run(warmup_packets=warm, measure_packets=meas)["T"]
    machine = Machine(spec, seed=seed)
    machine.add_flow(app_factory("MON"), core=0, label="T")
    cores = competitor_cores or range(1, 6)
    labels = []
    for i, core in enumerate(cores):
        fr = machine.add_flow(
            syn_factory(cpu_ops_per_ref=0, array_bytes=array_bytes),
            core=core, data_domain=data_domain, label=f"S{i}",
        )
        labels.append(fr.label)
    result = machine.run(warmup_packets=warm, measure_packets=meas)
    drop = performance_drop(solo.packets_per_sec,
                            result["T"].packets_per_sec)
    refs = sum(result[lbl].l3_refs_per_sec for lbl in labels)
    return drop, refs


def test_ablation_delta_drives_drop(benchmark, config, run_once, strict):
    """Halving/doubling the miss penalty scales the contention drop."""
    spec = config.socket_spec()

    def experiment():
        out = {}
        for factor in (0.5, 1.0, 2.0):
            varied = replace(spec,
                             lat_dram_extra=spec.lat_dram_extra * factor)
            out[factor], _ = _mon_drop_vs_synmax(
                varied, config.seed, config.corun_warmup,
                config.corun_measure)
        return out

    drops = run_once(benchmark, experiment)
    print("\nMON drop vs 5 SYN_MAX, by delta factor: " + ", ".join(
        f"x{f}: {100 * d:.1f}%" for f, d in sorted(drops.items())))
    if not strict:
        return
    assert drops[0.5] < drops[1.0] < drops[2.0]
    assert drops[2.0] > 1.4 * drops[0.5]


def test_ablation_mc_service_drives_mc_only_drop(benchmark, config, run_once,
                                                 strict):
    """The MC-only effect (Figure 4(b)) scales with the fill service time."""
    spec = config.spec()

    def experiment():
        out = {}
        for service in (2.5, 5.0, 15.0):
            varied = replace(spec, mc_service_cycles=service)
            out[service], _ = _mon_drop_vs_synmax(
                varied, config.seed, config.corun_warmup,
                config.corun_measure, data_domain=0,
                competitor_cores=range(6, 11))
        return out

    drops = run_once(benchmark, experiment)
    print("\nMON drop under MC-only contention, by service cycles: "
          + ", ".join(f"{s}: {100 * d:.2f}%" for s, d in sorted(drops.items())))
    if not strict:
        return
    assert drops[2.5] <= drops[5.0] <= drops[15.0]
    # Even at triple service time the MC-only effect stays modest
    # (the paper's point: the cache is the dominant factor).
    assert drops[15.0] < 0.15


def test_ablation_scale_preserves_shapes(benchmark, config, run_once, strict):
    """The scaled-down platform reproduces the full-er platform's shapes."""

    from repro.hw.topology import PlatformSpec

    def experiment():
        out = {}
        for scale, warm in ((8, config.corun_warmup),
                            (16, max(2500, config.corun_warmup // 2))):
            spec = PlatformSpec.westmere().scaled(scale).single_socket()
            out[scale], _ = _mon_drop_vs_synmax(
                spec, config.seed, warm, config.corun_measure)
        return out

    drops = run_once(benchmark, experiment)
    print("\nMON drop vs 5 SYN_MAX by platform scale: " + ", ".join(
        f"1/{s}: {100 * d:.1f}%" for s, d in sorted(drops.items())))
    if not strict:
        return
    # Same regime at both scales (within a generous band).
    assert abs(drops[8] - drops[16]) < 0.12
    assert min(drops.values()) > 0.08


def test_ablation_syn_array_size_sets_aggressiveness(benchmark, config,
                                                     run_once, strict):
    """Bigger SYN arrays are more evicting per reference (fewer refs/sec,
    similar-or-more damage) — the calibration dial behind SYN-equivalence."""
    spec = config.socket_spec()

    def experiment():
        out = {}
        for fraction in (0.1, 0.4, 1.0):
            array = int(spec.l3_size * fraction)
            out[fraction] = _mon_drop_vs_synmax(
                spec, config.seed, config.corun_warmup,
                config.corun_measure, array_bytes=array)
        return out

    results = run_once(benchmark, experiment)
    print("\nSYN array ablation (fraction of L3 -> drop @ refs/s):")
    for fraction, (drop, refs) in sorted(results.items()):
        print(f"  {fraction:4.1f} x L3: drop {100 * drop:5.1f}% at "
              f"{refs / 1e6:6.1f}M refs/s")
    if not strict:
        return
    # Larger arrays: fewer refs/sec (more misses, slower)...
    assert results[0.1][1] > results[1.0][1]
    # ...but per-reference damage grows monotonically.
    damage_per_ref = {f: d / max(r, 1.0) for f, (d, r) in results.items()}
    assert damage_per_ref[0.1] < damage_per_ref[0.4] < damage_per_ref[1.0]
