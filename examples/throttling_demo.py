#!/usr/bin/env python3
"""Containing hidden aggressiveness (Section 4).

An adversarial flow behaves like an innocent firewall during offline
profiling, then — on a trigger — switches to SYN_MAX-style memory
thrashing, wrecking its neighbours. The defense is the paper's control
element: monitor each flow's cache refs/sec against its profiled rate and
slow it down when it exceeds the profile.

The demo measures a victim MON flow's throughput in three worlds:
  1. beside the innocent flow,
  2. beside the two-faced flow, unthrottled (the attack),
  3. beside the two-faced flow behind the throttle (the defense).

Run:  python examples/throttling_demo.py
"""

from repro import Machine, PlatformSpec, app_factory, performance_drop
from repro.apps.synthetic import syn_factory, syn_max_factory
from repro.core.throttling import throttled_factory, two_faced_factory

SCALE = 16
WARMUP, MEASURE = 3000, 1500

#: The innocent persona: a gentle synthetic standing in for FW-like load.
INNOCENT = dict(cpu_ops_per_ref=600)


def attacker_factory(trigger=50, throttle_at=None):
    """The two-faced neighbour, behind the throttle when ``throttle_at``."""
    factory = two_faced_factory(syn_factory(**INNOCENT), syn_max_factory(),
                                trigger)
    if throttle_at is None:
        return factory
    return throttled_factory(factory, target_refs_per_sec=throttle_at,
                             adjust_every=16, gain=1.0)


#: Three colluding neighbours share the socket with the victim.
N_NEIGHBOURS = 3


def victim_throughput(spec, neighbour_factory) -> tuple:
    machine = Machine(spec)
    machine.add_flow(app_factory("MON"), core=0, label="victim")
    for i in range(N_NEIGHBOURS):
        machine.add_flow(neighbour_factory, core=1 + i, label=f"n{i}")
    result = machine.run(warmup_packets=WARMUP, measure_packets=MEASURE)
    neighbour_rate = sum(
        result[f"n{i}"].l3_refs_per_sec for i in range(N_NEIGHBOURS)
    )
    return result["victim"].packets_per_sec, neighbour_rate


def main() -> None:
    spec = PlatformSpec.westmere().scaled(SCALE).single_socket()

    # Offline profile of the innocent persona: this is what the operator saw.
    machine = Machine(spec)
    machine.add_flow(syn_factory(**INNOCENT), core=0, label="profiled")
    profiled = machine.run(warmup_packets=WARMUP,
                           measure_packets=MEASURE)["profiled"]
    profiled_rate = profiled.l3_refs_per_sec
    print(f"profiled per-neighbour rate: {profiled_rate / 1e6:.1f}M refs/sec "
          f"({N_NEIGHBOURS} neighbours)")

    baseline, rate = victim_throughput(spec, syn_factory(**INNOCENT))
    print(f"\n1) innocent neighbours: victim {baseline:>12,.0f} pps "
          f"(neighbours {rate / 1e6:5.1f}M refs/s)")

    attacked, rate = victim_throughput(spec, attacker_factory())
    print(f"2) attack, no defense : victim {attacked:>12,.0f} pps "
          f"(neighbours {rate / 1e6:5.1f}M refs/s)  "
          f"drop {performance_drop(baseline, attacked):.1%}")

    defended, rate = victim_throughput(
        spec, attacker_factory(throttle_at=profiled_rate))
    print(f"3) attack + throttle  : victim {defended:>12,.0f} pps "
          f"(neighbours {rate / 1e6:5.1f}M refs/s)  "
          f"drop {performance_drop(baseline, defended):.1%}")

    print("\nThe throttle pins the attacker at its profiled refs/sec, so the "
          "victim keeps (nearly) its expected performance — the system "
          "administrator's prediction stays valid.")


if __name__ == "__main__":
    main()
