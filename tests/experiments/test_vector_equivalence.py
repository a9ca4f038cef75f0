"""Exactness of vector placement: vector block == cohorts == individuals.

A ``model="vector"`` block packs its cohort rows behind one receiver per edge
router and registers them in the scenario's population table
(``docs/scale.md``).  It must reproduce — with ``==``, on the same seed —
what ``model="cohort"`` and ``model="individual"`` produce member for member:

* identical subscription-level trajectories (the full ``(time, level)``
  transition list),
* identical per-member goodput,
* identical SIGMA counters on the protected variant and identical
  population-weighted IGMP counters on the unprotected one,
* for adversarial blocks, identical attack counters under every registered
  strategy.

Everything here is asserted on **both** column backends: the parametrised
fixtures pin :data:`~repro.multicast_cc.population.BACKEND_ENV_VAR` so the
numpy path and the pure-stdlib ``array.array`` fallback are each held to the
same exactness bar (the CI fallback job re-runs the module with the env var
exported globally, covering the numpy-absent container too).
"""

import itertools

import pytest
from population_equivalence import (
    DURATION_S,
    POPULATION,
    STRATEGIES,
    attack_spec,
    honest_spec,
    run,
)

from repro.experiments import CohortDecl, Scenario


@pytest.fixture(params=[False, True], ids=["flid_dl", "flid_ds"])
def trio(request, backend):
    """(vector, cohort, individual) scenarios per protocol × backend.

    The vector realisation splits the population into one row per member
    (``cohorts=POPULATION``), so the block carries per-member granularity —
    the hardest shape for the one-pass rules to keep exact.
    """
    protected = request.param
    return (
        protected,
        backend,
        run(honest_spec(protected, "vector", POPULATION), backend),
        run(honest_spec(protected, "cohort")),
        run(honest_spec(protected, "individual")),
    )


def test_population_accounting(trio):
    """One vector receiver per edge stands for the whole population."""
    _, backend, vector, cohort, individual = trio
    assert vector.sessions[0].total_population == POPULATION
    assert len(vector.sessions[0].receivers) == 1  # one edge on the dumbbell
    assert len(cohort.sessions[0].receivers) == 1
    assert len(individual.sessions[0].receivers) == POPULATION
    assert vector.population_table is not None
    assert vector.population_table.backend == backend
    assert vector.population_table.population == POPULATION
    assert vector.population_table.rows == POPULATION
    assert cohort.population_table is None  # cohorts do not allocate blocks


def test_identical_subscription_trajectories(trio):
    """The vector block's trajectory equals cohort's and every individual's."""
    _, _, vector, cohort, individual = trio
    history = vector.sessions[0].receivers[0].level_history
    assert len(history) > 2, "run too quiet to be a meaningful check"
    assert cohort.sessions[0].receivers[0].level_history == history
    for receiver in individual.sessions[0].receivers:
        assert receiver.level_history == history


def test_block_keeps_per_member_rows(trio):
    """The columnar block tracks every member row, uniformly levelled."""
    _, _, vector, _, _ = trio
    receiver = vector.sessions[0].receivers[0]
    rows = receiver.state_rows()
    assert len(rows) == POPULATION
    assert all(count == 1 for count, _ in rows)
    assert {level for _, level in rows} == {receiver.level}
    # The table's level column is the receiver's level, broadcast.
    (block,) = vector.population_table.blocks()
    assert block.rows() == rows


def test_identical_per_member_goodput(trio):
    """Per-member goodput matches across all three realisations."""
    _, _, vector, cohort, individual = trio
    member_kbps = vector.sessions[0].receivers[0].average_rate_kbps(0.0, DURATION_S)
    assert member_kbps > 0
    assert (
        cohort.sessions[0].receivers[0].average_rate_kbps(0.0, DURATION_S)
        == member_kbps
    )
    for receiver in individual.sessions[0].receivers:
        assert receiver.average_rate_kbps(0.0, DURATION_S) == member_kbps


def test_identical_sigma_counters(trio):
    """Protected variant: every SIGMA counter matches exactly."""
    protected, _, vector, cohort, individual = trio
    if not protected:
        pytest.skip("SIGMA counters exist only on the protected variant")
    for other in (cohort, individual):
        assert vector.sigma.valid_submissions == other.sigma.valid_submissions
        assert vector.sigma.invalid_submissions == other.sigma.invalid_submissions
        assert vector.sigma.session_joins == other.sigma.session_joins
        assert vector.sigma.revocations == other.sigma.revocations
    assert vector.sigma.valid_submissions > 0


def test_identical_igmp_counters(trio):
    """Unprotected variant: population-weighted join/leave counts match."""
    protected, _, vector, cohort, individual = trio
    if protected:
        pytest.skip("IGMP managers exist only on the unprotected variant")
    for other in (cohort, individual):
        assert (
            vector.igmp_managers[0].joins_handled
            == other.igmp_managers[0].joins_handled
        )
        assert (
            vector.igmp_managers[0].leaves_handled
            == other.igmp_managers[0].leaves_handled
        )
    assert vector.igmp_managers[0].joins_handled > 0


def test_block_slices_map_declarations_to_objects(trio):
    """block_slices records each declaration's realised object range."""
    _, _, vector, cohort, individual = trio
    assert vector.sessions[0].block_slices == [(0, 1)]
    assert cohort.sessions[0].block_slices == [(0, 1)]
    assert individual.sessions[0].block_slices == [(0, POPULATION)]


# ----------------------------------------------------------------------
# adversarial vector blocks: every batch-exact strategy
# ----------------------------------------------------------------------
@pytest.fixture(
    params=list(itertools.product([False, True], STRATEGIES)),
    ids=lambda p: f"{'flid_ds' if p[0] else 'flid_dl'}-{p[1]}",
)
def attack_pair(request, backend):
    """(vector, cohort) scenario pairs per protocol × strategy × backend."""
    protected, strategy = request.param
    return (
        protected,
        strategy,
        run(attack_spec(protected, "vector", strategy), backend),
        run(attack_spec(protected, "cohort", strategy)),
    )


def test_identical_attack_trajectories(attack_pair):
    """The adversarial vector block's trajectory equals the cohort's."""
    _, _, vector, cohort = attack_pair
    history = vector.sessions[0].receivers[0].level_history
    assert len(history) >= 1
    assert cohort.sessions[0].receivers[0].level_history == history


def test_identical_attack_counters(attack_pair):
    """Attack counters match member for member (both book per member)."""
    _, strategy, vector, cohort = attack_pair
    vector_stats = vector.sessions[0].receivers[0].adversary_stats()
    assert vector_stats == cohort.sessions[0].receivers[0].adversary_stats()
    if strategy in ("inflated-join", "churn", "join-storm"):
        assert vector_stats["igmp_attempts"] > 0  # the attack actually ran
    protected = attack_pair[0]
    if protected and strategy == "key-guessing":
        assert vector_stats["guess_attempts"] > 0
    if protected and strategy == "key-replay":
        assert vector_stats["replay_attempts"] > 0


def test_identical_protection_counters(attack_pair):
    """SIGMA/IGMP edge counters agree between the two realisations."""
    protected, _, vector, cohort = attack_pair
    if protected:
        assert vector.sigma.valid_submissions == cohort.sigma.valid_submissions
        assert vector.sigma.invalid_submissions == cohort.sigma.invalid_submissions
        assert vector.sigma.igmp_joins_ignored == cohort.sigma.igmp_joins_ignored
    else:
        assert (
            vector.igmp_managers[0].joins_handled
            == cohort.igmp_managers[0].joins_handled
        )


# ----------------------------------------------------------------------
# spec-layer rules specific to vector blocks
# ----------------------------------------------------------------------
def test_cohorts_field_validation():
    """The cohorts split must be realisable and cohort/vector-only."""
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=0)
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=11)  # more rows than members
    with pytest.raises(ValueError):
        CohortDecl(10, model="individual", cohorts=2)
    assert CohortDecl(10, model="vector", cohorts=10).cohorts == 10


def test_vector_blocks_cannot_churn():
    """Population churn needs a single aggregated cohort, never a vector."""
    from repro.experiments import ChurnProcess

    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, model="vector", churn=ChurnProcess(arrival_rate=1.0))
    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, cohorts=2, churn=ChurnProcess(arrival_rate=1.0))
    scenario = Scenario.from_spec(honest_spec(True, "vector", POPULATION))
    with pytest.raises(ValueError, match="cannot churn"):
        scenario.sessions[0].receivers[0].attach_churn(
            ChurnProcess(arrival_rate=1.0)
        )


def test_cohorts_split_of_cohort_model_matches_single_cohort():
    """model="cohort" with cohorts=N realises N per-cohort objects, exactly
    equivalent to the single aggregated cohort."""
    split = run(honest_spec(True, "cohort", POPULATION))
    single = run(honest_spec(True, "cohort"))
    assert len(split.sessions[0].receivers) == POPULATION
    assert split.sessions[0].total_population == POPULATION
    history = single.sessions[0].receivers[0].level_history
    for receiver in split.sessions[0].receivers:
        assert receiver.level_history == history
    assert split.sigma.valid_submissions == single.sigma.valid_submissions
