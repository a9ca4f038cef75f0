"""The scale scenarios and the population field of the scenario spec."""

import json
import time

import pytest

from repro.experiments import (
    CohortDecl,
    ExperimentRunner,
    ScenarioSpec,
    SessionDecl,
    scenario_spec,
)


def test_population_spec_round_trip():
    """population survives the canonical JSON round trip."""
    spec = ScenarioSpec(
        name="pop",
        protected=True,
        sessions=(
            SessionDecl(
                "s",
                receivers=1,
                population=(
                    CohortDecl(500),
                    CohortDecl(5, router="right", start_s=2.0, model="individual"),
                ),
            ),
        ),
    )
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.sessions[0].total_population() == 506


def test_legacy_specs_serialise_without_population_key():
    """Cohort-free specs keep their historical canonical JSON (cache/golden)."""
    spec = ScenarioSpec(
        name="legacy", protected=False, sessions=(SessionDecl("s", receivers=2),)
    )
    payload = json.loads(spec.to_json())
    assert "population" not in payload["sessions"][0]


def test_population_validation():
    with pytest.raises(ValueError):
        SessionDecl("s", receivers=0)  # no receivers at all
    with pytest.raises(ValueError):
        CohortDecl(0)
    with pytest.raises(ValueError):
        CohortDecl(10, model="columnar")  # unknown model name
    # A cohort-only session is fine.
    decl = SessionDecl("s", receivers=0, population=(CohortDecl(10),))
    assert decl.total_population() == 10


def test_scale_scenarios_registered():
    for name in (
        "scale-dumbbell-10k",
        "scale-overhead-100k",
        "attack-inflated-100k",
        "attack-churn-flash-crowd",
        "scale-protection",
        "scale-dumbbell-1m",
    ):
        assert scenario_spec(name).name == name


def test_cohorts_field_round_trip_and_legacy_omission():
    """cohorts survives the JSON round trip; None stays off the wire."""
    spec = scenario_spec("scale-dumbbell-10k", receivers=100, cohorts=4, duration_s=12.0)
    rebuilt = type(spec).from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.sessions[0].population[0].cohorts == 4
    legacy = scenario_spec("scale-dumbbell-10k", receivers=100, duration_s=12.0)
    payload = json.loads(legacy.to_json())
    assert "cohorts" not in payload["sessions"][0]["population"][0]
    # The canonical hash of a cohorts-free spec is therefore unchanged.
    assert legacy.to_json() == scenario_spec(
        "scale-dumbbell-10k",
        receivers=100, cohorts=None, duration_s=12.0
    ).to_json()


def test_scale_dumbbell_1m_reduced_run():
    """A reduced 1k-receiver variant of the 1M scenario runs end to end."""
    spec = scenario_spec(
        "scale-dumbbell-1m",
        receivers=1_000,
        cohorts=16,
        attackers=100,
        attacker_cohorts=8,
        edges=4,
        duration_s=12.0,
        attack_start_s=4.0,
    )
    result = ExperimentRunner().run_one(spec)
    audience = result.metrics["multicast"]["audience"]
    assert audience["population"] == 1_000
    # One row per edge, however many cohort rows each edge carries.
    assert len(audience["receiver_population"]) == 4
    assert sum(audience["receiver_population"]) == 1_000
    protection = result.metrics["protection"]
    entries = protection["sessions"]["attackers"]["attackers"]
    assert sum(e["population"] for e in entries.values()) == 100
    for entry in entries.values():
        assert entry["excess_kbps"] < 0.0  # contained per member


def test_scale_dumbbell_1m_full_population_wall_clock_budget():
    """The full 1,000,000-receiver scenario fits far inside the 300 s budget.

    The acceptance bound is 300 s on the reference 1-CPU container; asserting
    a fifth of that leaves generous slack while failing loudly if per-row
    Python cost ever creeps back into the columnar per-slot path.
    """
    spec = scenario_spec("scale-dumbbell-1m")
    assert spec.sessions[0].total_population() == 1_000_000
    assert spec.sessions[1].total_population() == 10_000
    start = time.perf_counter()
    result = ExperimentRunner().run_one(spec)
    wall_s = time.perf_counter() - start
    assert wall_s < 60.0
    audience = result.metrics["multicast"]["audience"]
    assert audience["population"] == 1_000_000
    assert len(audience["receiver_population"]) == 32  # one row per edge
    protection = result.metrics["protection"]
    entries = protection["sessions"]["attackers"]["attackers"]
    assert sum(e["population"] for e in entries.values()) == 10_000
    for entry in entries.values():
        assert entry["excess_kbps"] < 0.0
        assert entry["containment_s"] is not None


def test_scale_dumbbell_reduced_run():
    """A reduced 500-receiver variant runs end to end with weighted metrics."""
    spec = scenario_spec("scale-dumbbell-10k", receivers=500, duration_s=12.0, attack_start_s=4.0)
    result = ExperimentRunner().run_one(spec)
    audience = result.metrics["multicast"]["audience"]
    assert audience["population"] == 500
    assert audience["receiver_population"] == [500]
    assert audience["weighted_average_kbps"] == audience["receiver_kbps"][0]
    attacker = result.metrics["multicast"]["attacker"]
    assert "population" not in attacker  # individual sessions stay legacy-shaped
    assert "protection" in result.metrics


def test_scale_overhead_100k_wall_clock_budget():
    """The 100k-receiver overhead scenario fits far inside the 5-minute budget.

    The acceptance bound is 300 s on the reference 1-CPU container; asserting
    a tenth of that leaves an order of magnitude of slack while still failing
    loudly if per-receiver cost ever creeps back into the hot path.
    """
    spec = scenario_spec("scale-overhead-100k")  # the full 100,000 receivers, 30 s
    assert spec.sessions[0].total_population() == 100_000
    start = time.perf_counter()
    result = ExperimentRunner().run_one(spec)
    wall_s = time.perf_counter() - start
    assert wall_s < 30.0
    audience = result.metrics["multicast"]["audience"]
    assert audience["population"] == 100_000
    # Figure 9's claim at scale: overhead stays at its per-session value.
    assert 0.0 < audience["overhead_percent"]["delta"] < 2.0
    assert 0.0 < audience["overhead_percent"]["sigma"] < 2.0


def test_attack_inflated_100k_wall_clock_budget():
    """The 100k-audience attack scenario fits far inside the 60 s budget.

    The acceptance bound is 60 s wall on the reference 1-CPU container;
    asserting half of that leaves generous slack while failing loudly if
    per-member cost creeps back into the adversarial-cohort hot path.
    """
    spec = scenario_spec("attack-inflated-100k")  # full: 100,000 honest + 100 attackers
    assert spec.sessions[0].total_population() == 100_000
    assert spec.sessions[1].total_population() == 100
    start = time.perf_counter()
    result = ExperimentRunner().run_one(spec)
    wall_s = time.perf_counter() - start
    assert wall_s < 30.0
    protection = result.metrics["protection"]
    entry = protection["sessions"]["attackers"]["attackers"]["0"]
    assert entry["population"] == 100
    # Containment at scale: the attacker cohort gains nothing per member.
    assert entry["excess_kbps"] < 0.0
    assert entry["containment_s"] is not None
    assert entry["weighted_excess_kbps"] == pytest.approx(100 * entry["excess_kbps"])
    assert result.metrics["multicast"]["audience"]["population"] == 100_000


def test_attack_churn_flash_crowd_surges_to_100k():
    """The flash-crowd scenario grows the audience 100 -> 100k mid-session."""
    spec = scenario_spec("attack-churn-flash-crowd")
    result = ExperimentRunner().run_one(spec)
    crowd = result.metrics["multicast"]["crowd"]
    assert crowd["population"] == 100_000
    assert crowd["weighted_average_kbps"] > 0
    assert "protection" in result.metrics


def test_scale_protection_sweep_grid():
    """The audience × attacker-fraction grid returns one result per point."""
    grid = [
        scenario_spec(
            "scale-protection",
            audience=audience,
            attacker_fraction=fraction,
            duration_s=12.0,
            attack_start_s=4.0,
        ).with_seed(0)
        for audience in (200, 400)
        for fraction in (0.01, 0.1)
    ]
    results = ExperimentRunner(jobs=1).run(grid)
    assert len(results) == 4
    for result in results:
        entry = result.metrics["protection"]["sessions"]["attackers"]["attackers"]["0"]
        assert entry["population"] >= 1
        assert "weighted_excess_kbps" in entry


def test_scale_protection_attacker_sizing():
    spec = scenario_spec("scale-protection", audience=1000, attacker_fraction=0.01)
    assert spec.sessions[1].population[0].count == 10
    assert spec.sessions[0].population[0].count == 990
    spec = scenario_spec("scale-protection", audience=2)
    assert [s.population[0].count for s in spec.sessions] == [1, 1]
    with pytest.raises(ValueError):
        scenario_spec("scale-protection", attacker_fraction=0.0)
    # Audience 0 or 1 used to build 1 honest member and 1 attacker, and 10
    # at 0.99 built 1 honest member and 10 attackers: 11 members.
    for audience, fraction in ((0, 0.01), (1, 0.01), (10, 0.99), (-5, 0.5)):
        with pytest.raises(ValueError, match="scale-protection: audience"):
            scenario_spec("scale-protection", audience=audience, attacker_fraction=fraction)


def test_cohort_population_weights_protection_baseline():
    """The honest baseline weighs the cohort as N receivers, not one."""
    spec = scenario_spec("scale-dumbbell-10k", receivers=200, duration_s=12.0, attack_start_s=4.0)
    result = ExperimentRunner().run_one(spec)
    protection = result.metrics["protection"]
    audience_kbps = result.metrics["multicast"]["audience"]["receiver_kbps"][0]
    # With a 200-strong honest cohort and a single honest-free attacker
    # session, the weighted baseline is dominated by the cohort's rate
    # (computed over the attack window, so only approximately equal to the
    # whole-run goodput).
    assert protection["honest_baseline_kbps"] == pytest.approx(
        audience_kbps, rel=0.5
    )
    assert protection["honest_baseline_kbps"] > 0
