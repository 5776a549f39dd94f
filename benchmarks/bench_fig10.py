"""Figure 10: how much can contention-aware scheduling buy?

Checked shapes: for realistic combinations the best-vs-worst placement
gap is small (the paper's headline: ~2% max, for 6 MON + 6 FW); the
adversarial 6 SYN_MAX + 6 FW combination gives the largest gap (paper:
~6%); and for 6 MON + 6 FW the worst placement is the one that packs all
MON flows onto one socket.
"""

from repro.experiments import fig10

BENCH_COMBOS = {
    "6MON+6FW": ("MON",) * 6 + ("FW",) * 6,
    "6MON+6IP": ("MON",) * 6 + ("IP",) * 6,
    "6RE+6FW": ("RE",) * 6 + ("FW",) * 6,
    "6SYN_MAX+6FW": ("SYN_MAX",) * 6 + ("FW",) * 6,
}


def test_fig10_scheduling_benefit(benchmark, config, run_once, strict):
    result = run_once(
        benchmark, lambda: fig10.run(config, combinations=BENCH_COMBOS)
    )
    print()
    print(result.render())
    print(f"\nmax realistic gain: {100 * result.max_realistic_gain():.2f}pp; "
          f"adversarial (SYN_MAX) gain: "
          f"{100 * result.gain('6SYN_MAX+6FW'):.2f}pp "
          "(paper: ~2pp and ~6pp)")

    if not strict:
        return
    # Realistic combinations: placement buys only a few percent.
    assert result.max_realistic_gain() < 0.06
    # The adversarial combination is the largest gain observed.
    assert result.gain("6SYN_MAX+6FW") >= result.max_realistic_gain() - 0.01
    # 6 MON + 6 FW: the worst placement packs the MON flows together.
    study = result.studies["6MON+6FW"]
    worst_counts = sorted(group.count("MON") for group in study.worst.split)
    assert worst_counts == [0, 6]
    # Uniform-split best placement spreads the sensitive flows.
    best_counts = sorted(group.count("MON") for group in study.best.split)
    assert best_counts[0] >= 2
    # Per-flow view: MON suffers more under the worst placement.
    worst_mon = [d for lbl, d in study.worst.per_flow_drop.items()
                 if lbl.startswith("MON")]
    best_mon = [d for lbl, d in study.best.per_flow_drop.items()
                if lbl.startswith("MON")]
    assert sum(worst_mon) / len(worst_mon) > sum(best_mon) / len(best_mon)
