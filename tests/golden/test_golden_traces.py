"""Golden-trace regression tests for the protection results.

Each case runs a registered scenario (shortened for test speed) and compares
its :func:`~repro.experiments.golden.scenario_trace_digest` — per-slot
subscription vectors in the clear, SHA-256 over the throughput series and
over the full metric document — against the stored digest in this directory.
The simulator is byte-deterministic per spec (the property suite asserts it
across processes and hash seeds), so any drift in the protocols, the
adversary subsystem or the protection metrics fails here with a readable
subscription-vector diff.

Regenerate after an *intentional* behaviour change with::

    python -m pytest tests/golden --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.experiments.golden import scenario_trace_digest
from repro.experiments import scenario_spec

GOLDEN_DIR = Path(__file__).parent

#: Scenario name -> builder overrides (shortened runs; onset well inside).
CASES = {
    "figure1-attack": dict(attack_start_s=12.0, duration_s=30.0),
    "figure7-defence": dict(attack_start_s=12.0, duration_s=30.0),
    "attack-flapping": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-key-guessing": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-key-replay": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-join-storm": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-ignore-congestion": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-composite": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-collusion-parking-lot": dict(attack_start_s=6.0, duration_s=18.0),
    # Adversarial-cohort / flash-crowd scenarios, at golden-friendly scale
    # (the builders are population-parameterised; the digests lock the
    # batched attack pipeline and the churn booking byte-for-byte).
    "attack-inflated-100k": dict(
        receivers=2000, attackers=5, attack_start_s=6.0, duration_s=18.0
    ),
    # The key-oriented attacks at golden-friendly scale: these digests lock
    # the per-cohort randomness (one seeded draw budget per slot) and the
    # member-weighted collusion pool byte-for-byte.
    "attack-keys-100k": dict(
        receivers=2000, replayers=5, guessers=5, attack_start_s=6.0, duration_s=18.0
    ),
    "attack-collusion-100k": dict(
        receivers=2000, publishers=5, exploiters=5, attack_start_s=6.0, duration_s=18.0
    ),
    "attack-churn-flash-crowd": dict(
        initial=50, surge=1950, surge_at_s=8.0, attack_start_s=6.0, duration_s=18.0
    ),
    "scale-protection": dict(
        audience=1000, attacker_fraction=0.01, attack_start_s=6.0, duration_s=18.0
    ),
}

#: Multi-edge shapes of the vector flagship: golden name -> (scenario,
#: overrides).  The first is ``scale-dumbbell-1m`` scaled down; the second
#: spreads 4 audience rows and 2 attacker rows over 8 edges, so its edges
#: fall into three interchangeable classes ({1,2}, {3,4}, the empty 5-8).
MULTI_EDGE_CASES = {
    "scale-dumbbell-1m-4-edges": (
        "scale-dumbbell-1m",
        dict(
            receivers=1000, cohorts=16, attackers=10, attacker_cohorts=4,
            edges=4, duration_s=12.0,
        ),
    ),
    "scale-dumbbell-1m-uneven": (
        "scale-dumbbell-1m",
        dict(
            receivers=1000, cohorts=4, attackers=10, attacker_cohorts=2,
            edges=8, duration_s=12.0,
        ),
    ),
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


GOLDENS = {
    **{name: (name, overrides) for name, overrides in CASES.items()},
    **MULTI_EDGE_CASES,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_trace(name, update_golden):
    scenario, overrides = GOLDENS[name]
    digest = scenario_trace_digest(scenario_spec(scenario, **overrides))
    path = golden_path(name)
    if update_golden:
        path.write_text(json.dumps(digest, sort_keys=True, indent=1) + "\n")
        return
    assert path.exists(), (
        f"missing golden digest {path.name}; generate it with "
        f"`python -m pytest tests/golden --update-golden`"
    )
    stored = json.loads(path.read_text())
    assert digest["spec_sha256"] == stored["spec_sha256"], (
        "the scenario's canonical spec changed; if intentional, rerun with "
        "--update-golden"
    )
    # Compare the readable part first so drift shows as a subscription diff.
    assert digest["sessions"] == stored["sessions"]
    assert digest["metrics_sha256"] == stored["metrics_sha256"]
