"""Exactness of adversarial populations: N aggregated attackers == N attackers.

The adversarial contract (``docs/threat-model.md``) extends the honest
exactness guarantee to every registered strategy: a
:class:`~repro.experiments.spec.CohortDecl` carrying an ``AttackSpec``
realised with ``model="cohort"`` must reproduce — with ``==``, on the same
seed — what ``model="individual"`` produces member for member:

* identical subscription-level trajectories (the full ``(time, level)``
  transition list),
* identical per-member goodput,
* identical SIGMA counters (valid/invalid submissions, session joins,
  revocations, ignored bare joins) on the protected variant and identical
  population-weighted IGMP counters on the unprotected one,
* identical attack counters (the aggregated receiver's context books per
  member; the individual realisation's counters are summed across members).

The contract spans the **whole adversary registry** — randomised strategies
draw per-receiver randomness (one seeded draw budget per slot, counts booked
per member) and collusion pools accept member-weighted contributions.  A
strategy registered *without* decision rules is rejected at ``AttackSpec``
declaration — also asserted here.
"""

import itertools

import pytest
from population_equivalence import (
    ATTACK_DURATION_S as DURATION_S,
    POPULATION,
    STRATEGIES,
    attack_spec,
    run,
)

from repro.adversary import AttackSpec
from repro.experiments import CohortDecl, Scenario


@pytest.fixture(
    scope="module",
    params=list(itertools.product([False, True], STRATEGIES)),
    ids=lambda p: f"{'flid_ds' if p[0] else 'flid_dl'}-{p[1]}",
)
def pair(request):
    """One (cohort, individual) scenario pair per protocol × strategy."""
    protected, strategy = request.param
    return (
        protected,
        strategy,
        run(attack_spec(protected, "cohort", strategy)),
        run(attack_spec(protected, "individual", strategy)),
    )


def test_population_accounting(pair):
    """Both realisations stand for the same number of attackers."""
    _, _, cohort, individual = pair
    assert cohort.sessions[0].total_population == POPULATION
    assert individual.sessions[0].total_population == POPULATION
    assert len(cohort.sessions[0].receivers) == 1
    assert len(individual.sessions[0].receivers) == POPULATION


def test_identical_attack_trajectories(pair):
    """The cohort's level trajectory equals every individual attacker's."""
    _, _, cohort, individual = pair
    cohort_history = cohort.sessions[0].receivers[0].level_history
    assert len(cohort_history) >= 1
    for receiver in individual.sessions[0].receivers:
        assert receiver.level_history == cohort_history


def test_identical_per_member_goodput(pair):
    """Per-member attacker goodput matches exactly."""
    _, _, cohort, individual = pair
    member_kbps = cohort.sessions[0].receivers[0].average_rate_kbps(0.0, DURATION_S)
    assert member_kbps > 0
    for receiver in individual.sessions[0].receivers:
        assert receiver.average_rate_kbps(0.0, DURATION_S) == member_kbps


def test_identical_attack_counters(pair):
    """Cohort attack counters equal the member-wise sum of individuals'."""
    protected, strategy, cohort, individual = pair
    cohort_stats = cohort.sessions[0].receivers[0].adversary_stats()
    summed = {
        key: sum(r.adversary_stats()[key] for r in individual.sessions[0].receivers)
        for key in cohort_stats
    }
    assert cohort_stats == summed
    if strategy in ("inflated-join", "churn", "join-storm"):
        assert cohort_stats["igmp_attempts"] > 0  # the attack actually ran
    if protected and strategy == "key-guessing":
        assert cohort_stats["guess_attempts"] > 0
    if protected and strategy == "key-replay":
        assert cohort_stats["replay_attempts"] > 0


def test_identical_sigma_counters(pair):
    """Protected variant: every SIGMA counter matches exactly."""
    protected, _, cohort, individual = pair
    if not protected:
        pytest.skip("SIGMA counters exist only on the protected variant")
    a, b = cohort.sigma, individual.sigma
    assert a.valid_submissions == b.valid_submissions
    assert a.invalid_submissions == b.invalid_submissions
    assert a.session_joins == b.session_joins
    assert a.revocations == b.revocations
    assert a.igmp_joins_ignored == b.igmp_joins_ignored


def test_identical_igmp_counters(pair):
    """Unprotected variant: population-weighted join/leave counts match."""
    protected, _, cohort, individual = pair
    if protected:
        pytest.skip("IGMP managers exist only on the unprotected variant")
    a, b = cohort.igmp_managers[0], individual.igmp_managers[0]
    assert a.joins_handled == b.joins_handled
    assert a.leaves_handled == b.leaves_handled


def test_every_registered_strategy_declares_on_cohorts():
    """The whole registry batches: every strategy is declarable on a cohort."""
    for strategy in STRATEGIES:
        decl = CohortDecl(3, attack=AttackSpec(strategy))
        assert decl.attack.strategy == strategy


def test_strategy_without_batched_rules_rejected_at_declaration():
    """A registered strategy missing its decision.py rules fails AttackSpec.

    The actionable error names the module to extend and the gate to satisfy,
    so a new strategy cannot ship half-batched.
    """
    from repro.adversary import AttackStrategy
    from repro.adversary.registry import ADVERSARIES, register_adversary

    class UnbatchedStrategy(AttackStrategy):
        name = "test-unbatched"

    register_adversary(UnbatchedStrategy)
    try:
        with pytest.raises(ValueError) as excinfo:
            AttackSpec("test-unbatched")
        message = str(excinfo.value)
        assert "repro.multicast_cc.decision" in message
        assert "BATCHED_DECISION_RULES" in message
        assert "exhaustive" in message
    finally:
        del ADVERSARIES["test-unbatched"]
    # Unknown (unregistered) names still defer to the build-time KeyError.
    spec = AttackSpec("no-such-strategy")
    assert spec.strategy == "no-such-strategy"


def test_adversarial_cohorts_refuse_churn_at_the_class_level():
    """The churn+attack exclusion holds even bypassing the spec layer
    (``attach_churn`` is the one check behind every placement)."""
    scenario = Scenario.from_spec(attack_spec(True, "cohort", "inflated-join"))
    receiver = scenario.sessions[0].receivers[0]
    from repro.experiments import ChurnProcess

    with pytest.raises(ValueError, match="cannot churn"):
        receiver.attach_churn(ChurnProcess(arrival_rate=1.0))


def test_protection_metrics_weight_attacker_cohorts():
    """The protection block reports the cohort's population-weighted excess."""
    from repro.experiments import ExperimentRunner

    spec = attack_spec(True, "cohort", "inflated-join")
    result = ExperimentRunner().run_one(spec)
    entry = result.metrics["protection"]["sessions"]["atk"]["attackers"]["0"]
    assert entry["population"] == POPULATION
    assert entry["weighted_excess_kbps"] == pytest.approx(
        POPULATION * entry["excess_kbps"]
    )
    assert entry["counters"]["igmp_attempts"] > 0
