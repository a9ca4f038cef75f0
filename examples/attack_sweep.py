#!/usr/bin/env python3
"""Sweep an adversary grid — attacker type × intensity — through the runner.

Every strategy in the adversary registry is mounted against honest
competition on the protected protocol at three intensities, fanned out over
the parallel :class:`ExperimentRunner`, and summarised by the protection
metrics: the attacker's excess goodput over the honest baseline and the time
SIGMA/DELTA took to contain its subscription.  The punchline is the paper's:
whatever the strategy and however hard it pushes, the excess stays near zero.

Run with::

    python examples/attack_sweep.py
"""

from repro.adversary import AttackSpec, adversary_names
from repro.analysis import format_table
from repro.experiments import ExperimentRunner, attack_duel_spec

DURATION_S = 30.0
ONSET_S = 8.0
INTENSITIES = (0.5, 1.0, 2.0)


def grid():
    """One spec per (strategy, intensity) cell, all on the protected duel."""
    specs = []
    for strategy in adversary_names():
        for intensity in INTENSITIES:
            receivers = (0, 1) if strategy == "collusion" else (0,)
            specs.append(
                attack_duel_spec(
                    f"sweep-{strategy}-x{intensity:g}",
                    stack=(AttackSpec(strategy, receivers=receivers),),
                    attack_start_s=ONSET_S,
                    intensity=intensity,
                    duration_s=DURATION_S,
                )
            )
    return specs


def main() -> None:
    specs = grid()
    runner = ExperimentRunner(jobs=2)
    results = runner.run(specs)

    rows = []
    for spec, result in zip(specs, results):
        protection = result.metrics["protection"]
        session = protection["sessions"]["F1"]
        strategy = spec.sessions[0].attacks[0].strategy
        intensity = spec.sessions[0].attacks[0].intensity
        worst_excess = max(
            entry["excess_kbps"] for entry in session["attackers"].values()
        )
        containments = [
            entry["containment_s"] for entry in session["attackers"].values()
        ]
        contained = (
            "never"
            if any(value is None for value in containments)
            else f"{max(containments):.1f}"
        )
        rows.append(
            (
                strategy,
                f"x{intensity:g}",
                f"{protection['honest_baseline_kbps']:.0f}",
                f"{worst_excess:+.1f}",
                contained,
            )
        )

    print(
        f"adversary grid on the protected duel ({DURATION_S:.0f}s runs, "
        f"attack from t={ONSET_S:.0f}s):\n"
    )
    print(
        format_table(
            ["strategy", "intensity", "baseline (Kbps)", "excess (Kbps)", "contained (s)"],
            rows,
        )
    )
    print(
        "\n-> under SIGMA no strategy, at any intensity, sustains goodput "
        "meaningfully above the honest baseline."
    )


if __name__ == "__main__":
    main()
