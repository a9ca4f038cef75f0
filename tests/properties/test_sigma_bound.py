"""The paper's core protection invariant, swept over the adversary registry.

§5.2's claim, generalised: **under SIGMA, no registered adversary strategy
achieves long-run goodput above the honest-receiver bound, on any registered
topology.**  Every strategy in :data:`repro.adversary.ADVERSARIES` is run
against honest competition on the dumbbell (two seeds) and the multi-hop
parking lot, and the attacker's goodput over the attack window must stay
within tolerance of the best honest receiver's.

A control test runs the canonical inflated-join attacker against the
*unprotected* protocol and asserts the bound is violated there — the
invariant is a property of SIGMA, not of the test's tolerance.
"""

import pytest

from repro.adversary import ADVERSARIES, AttackSpec
from repro.experiments import ScenarioSpec, Scenario, SessionDecl, TcpDecl
from repro.experiments.spec import FAIR_SHARE_BPS

DURATION_S = 15.0
ONSET_S = 4.0
#: Multiplicative + absolute slack over the best honest receiver: absorbs
#: slot discretisation and measurement-window effects, while still failing
#: the unprotected Figure 1 outcome (attacker at several times fair share).
BOUND_FACTOR = 1.25
BOUND_SLACK_KBPS = 20.0

#: One representative, aggressively parameterised AttackSpec per strategy.
ATTACKS = {
    "inflated-join": AttackSpec("inflated-join", start_s=ONSET_S),
    "ignore-congestion": AttackSpec("ignore-congestion", start_s=ONSET_S),
    "churn": AttackSpec("churn", start_s=ONSET_S, intensity=2.0),
    "key-replay": AttackSpec("key-replay", start_s=ONSET_S, intensity=2.0),
    "key-guessing": AttackSpec(
        "key-guessing", start_s=ONSET_S, intensity=2.0, params={"guesses_per_slot": 8}
    ),
    "join-storm": AttackSpec("join-storm", start_s=ONSET_S, intensity=2.0),
    "collusion": AttackSpec(
        "collusion", receivers=(0, 1), start_s=ONSET_S, params={"pool": "p"}
    ),
}


def test_every_registered_strategy_has_a_case():
    """Adding a strategy without extending this sweep must fail loudly."""
    assert set(ATTACKS) == set(ADVERSARIES)


def duel_spec(attack: AttackSpec, topology: str, seed: int, protected: bool = True) -> ScenarioSpec:
    """Attacker session vs honest session (+ TCP) on the given topology."""
    attacker_receivers = max(attack.receivers) + 1
    if topology == "dumbbell":
        # Three flows cross the bottleneck (two multicast sessions + TCP)
        # regardless of the attacker session's receiver count.
        return ScenarioSpec(
            name=f"bound-{attack.strategy}-dumbbell",
            protected=protected,
            topology_params={"bottleneck_bandwidth_bps": 750_000.0},
            sessions=(
                SessionDecl("atk", receivers=attacker_receivers, attacks=(attack,)),
                SessionDecl("hon", receivers=1),
            ),
            tcp=(TcpDecl("t1"),),
            duration_s=DURATION_S,
            seed=seed,
        )
    if topology == "parking-lot":
        routers = tuple(f"r{i + 1}" for i in range(attacker_receivers))
        return ScenarioSpec(
            name=f"bound-{attack.strategy}-parking-lot",
            protected=protected,
            topology="parking-lot",
            topology_params={
                "hops": 2,
                "bottleneck_bandwidth_bps": (1 + attacker_receivers) * FAIR_SHARE_BPS,
            },
            sessions=(
                SessionDecl(
                    "atk",
                    receivers=attacker_receivers,
                    attacks=(attack,),
                    receiver_routers=routers[:attacker_receivers],
                ),
                SessionDecl("hon", receivers=2, receiver_routers=("r1", "r2")),
            ),
            duration_s=DURATION_S,
            seed=seed,
        )
    raise ValueError(topology)


def attacker_vs_honest_kbps(spec: ScenarioSpec):
    scenario = Scenario.from_spec(spec)
    scenario.run(spec.duration_s)
    attacker_session, honest_session = scenario.sessions
    attackers = [
        rx.average_rate_kbps(ONSET_S, DURATION_S) for rx in attacker_session.receivers
    ]
    honest = [
        rx.average_rate_kbps(ONSET_S, DURATION_S) for rx in honest_session.receivers
    ]
    return attackers, honest


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("strategy", sorted(ATTACKS))
def test_sigma_bounds_every_strategy_on_the_dumbbell(strategy, seed):
    attackers, honest = attacker_vs_honest_kbps(
        duel_spec(ATTACKS[strategy], "dumbbell", seed)
    )
    bound = BOUND_FACTOR * max(honest) + BOUND_SLACK_KBPS
    for attacker_kbps in attackers:
        assert attacker_kbps <= bound, (
            f"{strategy} attacker reached {attacker_kbps:.1f} Kbps, honest "
            f"receivers peaked at {max(honest):.1f} Kbps (seed {seed})"
        )


@pytest.mark.parametrize("strategy", sorted(ATTACKS))
def test_sigma_bounds_every_strategy_on_the_parking_lot(strategy):
    attackers, honest = attacker_vs_honest_kbps(
        duel_spec(ATTACKS[strategy], "parking-lot", seed=0)
    )
    bound = BOUND_FACTOR * max(honest) + BOUND_SLACK_KBPS
    for attacker_kbps in attackers:
        assert attacker_kbps <= bound, (
            f"{strategy} attacker reached {attacker_kbps:.1f} Kbps, honest "
            f"receivers peaked at {max(honest):.1f} Kbps"
        )


def test_unprotected_inflated_join_violates_the_bound():
    """Control: without SIGMA the same inflated-join attacker breaks the bound."""
    attackers, honest = attacker_vs_honest_kbps(
        duel_spec(ATTACKS["inflated-join"], "dumbbell", seed=0, protected=False)
    )
    bound = BOUND_FACTOR * max(honest) + BOUND_SLACK_KBPS
    assert max(attackers) > bound
