"""Shared scaffolding of the population-equivalence suites.

One receiver stands for any number of homogeneous members, so the same
declaration realised at each placement — ``model="individual"`` (N hosts),
``"cohort"`` (one host per cohort) and ``"vector"`` (one host per edge
router carrying the rows) — must produce identical trajectories, goodput and
member-weighted counters on the same seed.  The three suites beside this
module (honest cohorts, adversarial cohorts, vector blocks on both column
backends) build their scenarios here.
"""

import functools
import os

from repro.adversary import AttackSpec
from repro.experiments import (
    PAPER_DEFAULTS,
    CohortDecl,
    Scenario,
    ScenarioSpec,
    SessionDecl,
)
from repro.multicast_cc.population import BACKEND_ENV_VAR

#: Small population (feasible as individuals) on a tight bottleneck, so the
#: runs exercise congestion decreases, deaf periods and upgrades.
POPULATION = 3
DURATION_S = 20.0
ATTACK_DURATION_S = 16.0
ATTACK_START_S = 6.0

#: Every registered strategy batches exactly (docs/threat-model.md).
STRATEGIES = (
    "inflated-join",
    "ignore-congestion",
    "churn",
    "key-replay",
    "key-guessing",
    "join-storm",
    "collusion",
)


def honest_spec(protected: bool, model: str, cohorts=None) -> ScenarioSpec:
    """One session whose whole audience is an honest population block."""
    return ScenarioSpec(
        name="population-equivalence",
        protected=protected,
        expected_sessions=1,
        sessions=(
            SessionDecl(
                "s",
                receivers=0,
                population=(CohortDecl(POPULATION, model=model, cohorts=cohorts),),
            ),
        ),
        duration_s=DURATION_S,
        config=PAPER_DEFAULTS,
    )


def attack_spec(protected: bool, model: str, strategy: str) -> ScenarioSpec:
    """An attacker block mounting ``strategy`` beside one honest session.

    The vector realisation splits the block into one row per member — the
    per-member granularity is the hardest shape to keep exact.
    """
    return ScenarioSpec(
        name="adversarial-population-equivalence",
        protected=protected,
        expected_sessions=2,
        sessions=(
            SessionDecl(
                "atk",
                receivers=0,
                population=(
                    CohortDecl(
                        POPULATION,
                        model=model,
                        cohorts=POPULATION if model == "vector" else None,
                        attack=AttackSpec(strategy, start_s=ATTACK_START_S),
                    ),
                ),
            ),
            SessionDecl("hon", receivers=1),
        ),
        duration_s=ATTACK_DURATION_S,
        config=PAPER_DEFAULTS,
    )


def run(spec: ScenarioSpec, backend: str = "") -> Scenario:
    """Realise and run a spec, pinning the column backend for the build.

    Runs are deterministic and the suites only read the finished scenario,
    so each distinct (spec, backend) is simulated once per process.
    """
    return _run(spec.to_json(), backend)


@functools.lru_cache(maxsize=None)
def _run(spec_json: str, backend: str) -> Scenario:
    spec = ScenarioSpec.from_json(spec_json)
    saved = os.environ.get(BACKEND_ENV_VAR)
    if backend:
        os.environ[BACKEND_ENV_VAR] = backend
    try:
        scenario = Scenario.from_spec(spec)
    finally:
        if backend:
            if saved is None:
                os.environ.pop(BACKEND_ENV_VAR, None)
            else:
                os.environ[BACKEND_ENV_VAR] = saved
    scenario.run(spec.effective_duration_s)
    return scenario
