#!/usr/bin/env python3
"""The paper's motivating attack and its defence, side by side.

Reproduces a shortened version of Figures 1 and 7: two multicast sessions
(receivers F1 and F2) and two TCP Reno connections (T1 and T2) share a
1 Mbps bottleneck; halfway through the run (t = 40 s) receiver F1 inflates
its subscription: ``inflated-join`` against FLID-DL, and against FLID-DS
the same joins stacked with key replay and key guessing
(:func:`repro.adversary.paper_attacker`).

The script runs both registered figures — plain FLID-DL (IGMP-managed
groups, the attack succeeds) and FLID-DS (DELTA + SIGMA, the attack is
blocked) — and prints the before/during throughput of every flow.

Run with::

    python examples/inflated_subscription_attack.py
"""

from repro.analysis import format_table
from repro.experiments import FAIR_SHARE_BPS, figure, run_figure

DURATION_S = 80.0
FAIR_SHARE_KBPS = FAIR_SHARE_BPS / 1e3


def run_variant(protected: bool) -> None:
    label = "FLID-DS (protected by DELTA + SIGMA)" if protected else "FLID-DL (unprotected)"
    attack_start_s = DURATION_S / 2
    table = run_figure(
        figure("figure7_flid_ds_protection" if protected else "figure1_flid_dl_attack"),
        attack_start_s=attack_start_s,
        duration_s=DURATION_S,
    )
    rows = [
        (
            flow,
            f"{table['before_kbps'][flow]:.0f}",
            f"{table['during_kbps'][flow]:.0f}",
        )
        for flow in ("F1", "F2", "T1", "T2")
    ]
    print(f"\n=== {label} ===")
    print(f"F1 starts its attack at t = {attack_start_s:.0f} s; fair share is "
          f"{FAIR_SHARE_KBPS:.0f} Kbps per flow")
    print(format_table(["flow", "before attack (Kbps)", "during attack (Kbps)"], rows))
    print(f"Jain fairness index: before = {table['fairness_before']:.3f}, "
          f"during = {table['fairness_during']:.3f}")
    if protected:
        print("-> the attacker is denied keys for the extra groups; the edge router "
              "never forwards them, so the allocation stays fair.")
    else:
        print(f"-> the attacker multiplies its throughput by "
              f"{table['attacker_gain']:.1f}x its fair share at everyone else's expense.")


def main() -> None:
    run_variant(protected=False)
    run_variant(protected=True)


if __name__ == "__main__":
    main()
