"""Table 1: solo-run characteristics of each flow type.

Paper-vs-measured: absolute rates differ (the substrate is a simulator at
reduced scale), but the orderings that drive the paper's analysis must
hold — MON and IP lead in cache refs/sec and hits/sec, FW trails both by
an order of magnitude, FW/RE are the most expensive per packet, and VPN
has the lowest CPI.
"""

from repro.experiments import table1
from repro.experiments.table1 import PAPER_TABLE1


def test_table1(benchmark, config, runner, run_once, strict):
    # Later benchmarks (Figures 2, 5, 8, ...) reuse these solo profiles
    # through the session runner's cache.
    result = run_once(benchmark, lambda: table1.run(config, runner=runner))
    print()
    print(result.render())
    print("\npaper Table 1 (for comparison):")
    for app, row in PAPER_TABLE1.items():
        print(f"  {app:4s} cpi={row[0]:5.2f} refs/s={row[1]:6.2f}M "
              f"hits/s={row[2]:6.2f}M cyc/pkt={row[3]}")

    if not strict:
        return
    p = result.profiles
    # Aggressiveness ordering (refs/sec): MON & IP lead, FW trails.
    assert p["MON"].l3_refs_per_sec > p["RE"].l3_refs_per_sec
    assert p["IP"].l3_refs_per_sec > p["VPN"].l3_refs_per_sec
    assert p["FW"].l3_refs_per_sec * 4 < p["RE"].l3_refs_per_sec
    # Sensitivity ordering (hits/sec): MON > IP > the rest; FW last.
    assert p["MON"].l3_hits_per_sec > p["IP"].l3_hits_per_sec
    assert p["IP"].l3_hits_per_sec > p["RE"].l3_hits_per_sec
    assert min(p[a].l3_hits_per_sec for a in ("IP", "MON", "RE", "VPN")) > \
        p["FW"].l3_hits_per_sec
    # Cost ordering: FW and RE are the heavyweights; IP the lightest.
    assert p["FW"].cycles_per_packet > 5 * p["MON"].cycles_per_packet
    assert p["RE"].cycles_per_packet > p["VPN"].cycles_per_packet > \
        p["MON"].cycles_per_packet > p["IP"].cycles_per_packet
    # VPN is the CPU-intensive flow (lowest cycles/instruction).
    assert p["VPN"].cycles_per_instruction == \
        min(x.cycles_per_instruction for x in p.values())
