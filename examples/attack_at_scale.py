#!/usr/bin/env python3
"""Protection at scale: the audience × attacker-fraction containment grid.

The paper's containment claim is population-relative — however large the
honest audience and however big the attacking minority, SIGMA bounds what
the attackers extract.  This walkthrough sweeps exactly that grid: honest
audiences from 1,000 to 100,000 receivers, attacker fractions from 0.1 % to
10 %, every population realised as a cohort (honest audience as a
:class:`~repro.experiments.spec.CohortDecl`, attackers as an *adversarial*
cohort mounting ``inflated-join``) so the whole grid runs in seconds.

For each grid point the protection metrics report the attacker cohort's
per-member excess goodput over the honest baseline, the population-weighted
excess (what the whole cohort extracted), and the time to containment.  The
punchline is flatness: the per-member excess stays pinned near (below)
zero along *both* axes.

Run with::

    python examples/attack_at_scale.py

See ``docs/threat-model.md`` for which strategies batch exactly over
cohorts, and ``docs/scale.md`` for the cohort model itself.
"""

from repro.analysis import format_table
from repro.experiments import ExperimentRunner, scenario_spec

AUDIENCES = (1_000, 10_000, 100_000)
FRACTIONS = (0.001, 0.01, 0.1)
DURATION_S = 30.0
ONSET_S = 10.0


def main() -> None:
    grid = [
        scenario_spec(
            "scale-protection",
            audience=audience,
            attacker_fraction=fraction,
            attack_start_s=ONSET_S,
            duration_s=DURATION_S,
        ).with_seed(0)
        for audience in AUDIENCES
        for fraction in FRACTIONS
    ]
    results = ExperimentRunner(jobs=2).run(grid)

    rows = []
    index = 0
    for audience in AUDIENCES:
        for fraction in FRACTIONS:
            result = results[index]
            index += 1
            protection = result.metrics["protection"]
            entry = protection["sessions"]["attackers"]["attackers"]["0"]
            containment = entry["containment_s"]
            rows.append(
                (
                    f"{audience:,}",
                    f"{fraction:.1%}",
                    entry["population"],
                    f"{protection['honest_baseline_kbps']:.1f}",
                    f"{entry['excess_kbps']:.1f}",
                    f"{entry['weighted_excess_kbps']:.1f}",
                    "never" if containment is None else f"{containment:.1f}",
                )
            )

    print(
        format_table(
            [
                "audience",
                "attacker %",
                "attackers",
                "baseline (Kbps)",
                "excess/member",
                "weighted excess",
                "contained (s)",
            ],
            rows,
        )
    )
    print(
        "\nContainment at scale: per-member excess stays at or below zero on "
        "both axes —\nthe inflated-join cohort never outruns the honest "
        "baseline, which is the paper's\nrobustness claim extended three "
        "orders of magnitude past its §5 experiments."
    )


if __name__ == "__main__":
    main()
