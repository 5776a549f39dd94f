"""Section 4, containment: throttling bounds hidden aggressiveness.

A two-faced flow (profiled as gentle, turns SYN_MAX) is pinned at its
profiled refs/sec by the control loop; its victim's drop returns to near
the innocent level.
"""

from repro.apps.registry import app_factory
from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.core.throttling import throttled_factory, two_faced_factory
from repro.hw.counters import performance_drop
from repro.hw.machine import Machine

INNOCENT_OPS = 600


#: Number of (identical) neighbour flows mounting the attack.
N_NEIGHBOURS = 3


def _victim_run(config, neighbour_factory):
    machine = Machine(config.socket_spec(), seed=config.seed)
    machine.add_flow(app_factory("MON"), core=0, label="victim")
    for i in range(N_NEIGHBOURS):
        machine.add_flow(neighbour_factory, core=1 + i, label=f"n{i}")
    result = machine.run(warmup_packets=config.corun_warmup,
                         measure_packets=config.corun_measure)
    return result


def _neighbour_refs(result):
    return sum(result[f"n{i}"].l3_refs_per_sec for i in range(N_NEIGHBOURS))


def test_throttling_contains_two_faced_flow(benchmark, config, run_once,
                                            strict):
    spec = config.socket_spec()

    def experiment():
        # Offline profile of the innocent persona.
        machine = Machine(spec, seed=config.seed)
        machine.add_flow(syn_factory(cpu_ops_per_ref=INNOCENT_OPS), core=0,
                         label="p")
        profiled = machine.run(
            warmup_packets=config.corun_warmup,
            measure_packets=config.corun_measure)["p"].l3_refs_per_sec

        two_faced = two_faced_factory(
            syn_factory(cpu_ops_per_ref=INNOCENT_OPS), syn_max_factory(), 50)
        innocent = _victim_run(config, syn_factory(cpu_ops_per_ref=INNOCENT_OPS))
        attack = _victim_run(config, two_faced)
        defended = _victim_run(config, throttled_factory(
            two_faced, target_refs_per_sec=profiled, adjust_every=16,
            gain=1.0))
        return profiled, innocent, attack, defended

    profiled, innocent, attack, defended = run_once(benchmark, experiment)
    base = innocent["victim"].packets_per_sec
    attack_drop = performance_drop(base, attack["victim"].packets_per_sec)
    defended_drop = performance_drop(base, defended["victim"].packets_per_sec)
    print(f"\nprofiled per-neighbour rate: {profiled / 1e6:.1f}M refs/s")
    print(f"attack neighbours:   {_neighbour_refs(attack) / 1e6:.1f}M refs/s "
          f"-> victim drop {attack_drop:.1%}")
    print(f"defended neighbours: {_neighbour_refs(defended) / 1e6:.1f}M refs/s "
          f"-> victim drop {defended_drop:.1%}")

    if not strict:
        return
    # The attack hurts; the throttle restores most of the loss and pins
    # the neighbour near its profiled rate.
    assert attack_drop > 0.03
    assert defended_drop < attack_drop / 2
    assert _neighbour_refs(defended) < N_NEIGHBOURS * profiled * 1.3
