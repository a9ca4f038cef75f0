"""Figures 1 and 7: impact of inflated subscription, unprotected vs protected.

Regenerates the four throughput curves (F1, F2, T1, T2) of Figure 1 (FLID-DL,
attack succeeds) and Figure 7 (FLID-DS, attack blocked) and prints the
per-flow averages before and during the attack plus Jain's fairness index.
"""

from repro.analysis import format_table
from repro.experiments import run_inflated_subscription_experiment

BENCH_DURATION_S = 60.0
BENCH_ATTACK_START_S = 30.0


def _report(result, title):
    rows = [
        (
            name,
            round(result.average_before_kbps[name], 1),
            round(result.average_during_kbps[name], 1),
        )
        for name in ("F1", "F2", "T1", "T2")
    ]
    print(f"\n{title} (fair share {result.fair_share_kbps:.0f} Kbps)")
    print(format_table(["flow", "before attack (Kbps)", "during attack (Kbps)"], rows))
    print(
        f"Jain fairness before={result.fairness_before:.3f} "
        f"during={result.fairness_during:.3f}; F1 gain x{result.attacker_gain:.2f}"
    )


def test_figure1_flid_dl_attack(bench_config, bench_record):
    result = run_inflated_subscription_experiment(
        protected=False,
        config=bench_config,
        attack_start_s=BENCH_ATTACK_START_S,
        duration_s=BENCH_DURATION_S,
    )
    _report(result, "Figure 1 — FLID-DL under inflated subscription")
    bench_record(
        {
            "during_kbps": result.average_during_kbps,
            "before_kbps": result.average_before_kbps,
            "fairness_before": result.fairness_before,
            "fairness_during": result.fairness_during,
            "attacker_gain": result.attacker_gain,
        },
    )
    # Paper: F1 jumps to ~690 Kbps (2.8x its fair share) while others collapse.
    assert result.average_during_kbps["F1"] > 1.8 * result.fair_share_kbps
    assert result.fairness_during < result.fairness_before


def test_figure7_flid_ds_protection(bench_config, bench_record):
    result = run_inflated_subscription_experiment(
        protected=True,
        config=bench_config,
        attack_start_s=BENCH_ATTACK_START_S,
        duration_s=BENCH_DURATION_S,
    )
    _report(result, "Figure 7 — FLID-DS (DELTA + SIGMA) under the same attack")
    bench_record(
        {
            "during_kbps": result.average_during_kbps,
            "before_kbps": result.average_before_kbps,
            "fairness_before": result.fairness_before,
            "fairness_during": result.fairness_during,
            "attacker_gain": result.attacker_gain,
        },
    )
    # Paper: the fair allocation is preserved; the attacker gains nothing.
    assert result.average_during_kbps["F1"] < 1.3 * result.fair_share_kbps
    assert result.average_during_kbps["F2"] > 0.25 * result.fair_share_kbps
