"""Unit tests of the composable adversary subsystem.

Covers the declarative layer (AttackSpec validation and serialisation inside
ScenarioSpec), the registry (lookup, stream isolation), strategy composition
and scheduling on live receivers, the collusion pool, and the legacy
``misbehaving`` translation in the scenario interpreter.
"""

import pytest

from repro.adversary import (
    ADVERSARIES,
    AttackSpec,
    adversary_names,
    build_strategies,
)
from repro.adversary.context import CollusionPool
from repro.adversary.strategies import (
    InflatedJoinStrategy,
    KeyGuessingStrategy,
)
from repro.experiments import (
    PAPER_DEFAULTS,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    scenario_spec,
)

FAST = PAPER_DEFAULTS.with_duration(8.0)


# ----------------------------------------------------------------------
# declarative layer
# ----------------------------------------------------------------------
class TestAttackSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackSpec("")
        with pytest.raises(ValueError):
            AttackSpec("churn", receivers=())
        with pytest.raises(ValueError):
            AttackSpec("churn", intensity=0.0)
        with pytest.raises(ValueError):
            AttackSpec("churn", start_s=10.0, stop_s=5.0)

    def test_window(self):
        """The window semantics the receivers dispatch on (strategy side)."""
        from repro.adversary.strategies import ChurnStrategy

        strategy = ChurnStrategy(start_s=5.0, stop_s=10.0)
        assert not strategy.active(4.9)
        assert strategy.active(5.0)
        assert strategy.active(9.9)
        assert not strategy.active(10.0)
        assert ChurnStrategy(start_s=5.0).active(1e9)

    def test_roundtrip_through_scenario_json(self):
        spec = ScenarioSpec(
            name="t",
            protected=True,
            sessions=(
                SessionDecl(
                    "s",
                    receivers=3,
                    attacks=(
                        AttackSpec(
                            "key-guessing",
                            receivers=(0, 2),
                            start_s=3.0,
                            stop_s=7.0,
                            intensity=2.5,
                            params={"guesses_per_slot": 9},
                        ),
                        AttackSpec("churn", receivers=(1,)),
                    ),
                )
            ,),
            config=FAST,
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json() == spec.to_json()
        assert restored.sessions[0].attacks[0].params == {"guesses_per_slot": 9}

    def test_session_decl_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            SessionDecl("s", receivers=2, attacks=(AttackSpec("churn", receivers=(2,)),))

    def test_attacker_indices_and_onset_merge_legacy_and_declared(self):
        decl = SessionDecl(
            "s",
            receivers=4,
            misbehaving=(3,),
            attack_start_s=9.0,
            attacks=(AttackSpec("churn", receivers=(1,), start_s=4.0),),
        )
        assert decl.attacker_indices() == (1, 3)
        assert decl.attack_onset_s() == 4.0
        assert SessionDecl("s").attack_onset_s() is None


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_expected_strategies_registered(self):
        assert {
            "inflated-join",
            "ignore-congestion",
            "churn",
            "key-replay",
            "key-guessing",
            "join-storm",
            "collusion",
        } <= set(adversary_names())

    def test_unknown_strategy_raises(self, tmp_path):
        from repro.simulator.topology import DumbbellConfig, DumbbellNetwork
        from repro.multicast_cc import SessionSpec

        net = DumbbellNetwork(DumbbellConfig())
        spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
        with pytest.raises(KeyError, match="no-such-strategy"):
            build_strategies([AttackSpec("no-such-strategy")], net, spec, "h")

    def test_streams_are_isolated_per_strategy(self):
        from repro.simulator.topology import DumbbellConfig, DumbbellNetwork
        from repro.multicast_cc import SessionSpec

        net = DumbbellNetwork(DumbbellConfig(seed=7))
        spec = SessionSpec("s").with_addresses(net.allocate_groups(10))
        attacks = [AttackSpec("key-guessing"), AttackSpec("key-guessing")]
        first, second = build_strategies(attacks, net, spec, "h")
        # Different stream names -> statistically independent draws.
        assert [first.rng.getrandbits(16) for _ in range(4)] != [
            second.rng.getrandbits(16) for _ in range(4)
        ]

    def test_no_global_random_in_adversary_sources(self):
        """Seed hygiene: adversary randomness must flow through seeded streams."""
        import pathlib
        import repro.adversary as adversary

        package_dir = pathlib.Path(adversary.__file__).parent
        for path in package_dir.glob("*.py"):
            source = path.read_text()
            assert "random.random(" not in source
            assert "random.randint(" not in source
            assert "random.getrandbits(" not in source


# ----------------------------------------------------------------------
# live composition and scheduling
# ----------------------------------------------------------------------
def build_protected_duel(attacks, duration=8.0):
    spec = ScenarioSpec(
        name="unit-duel",
        protected=True,
        expected_sessions=2,
        sessions=(
            SessionDecl("atk", receivers=1, attacks=tuple(attacks)),
            SessionDecl("hon", receivers=1),
        ),
        duration_s=duration,
        config=FAST,
    )
    scenario = Scenario.from_spec(spec)
    scenario.run(duration)
    return scenario


class TestComposition:
    def test_multiple_strategies_stack_on_one_receiver(self):
        scenario = build_protected_duel(
            [
                AttackSpec("key-guessing", start_s=1.0),
                AttackSpec("join-storm", start_s=1.0),
            ]
        )
        attacker = scenario.sessions[0].receivers[0]
        assert [type(s) for s in attacker.strategies] == [
            ADVERSARIES["key-guessing"],
            ADVERSARIES["join-storm"],
        ]
        stats = attacker.adversary_stats()
        assert stats["guess_attempts"] > 0
        assert stats["igmp_attempts"] > 0
        assert sum(a.igmp_joins_ignored for a in scenario.sigma_agents) > 0

    def test_attack_window_stops(self):
        scenario = build_protected_duel(
            [AttackSpec("key-guessing", start_s=1.0, stop_s=3.0)]
        )
        attacker = scenario.sessions[0].receivers[0]
        strategy = attacker.strategies[0]
        assert strategy.started and strategy.stopped
        assert not attacker.attacking
        guesses_at_stop = attacker.adversary_stats()["guess_attempts"]
        assert guesses_at_stop > 0

    def test_legacy_misbehaving_translates_to_strategy_stack(self):
        spec = ScenarioSpec(
            name="legacy",
            protected=True,
            sessions=(SessionDecl("s", receivers=2, misbehaving=(1,), attack_start_s=2.0),),
            duration_s=6.0,
            config=FAST,
        )
        scenario = Scenario.from_spec(spec)
        honest, attacker = scenario.sessions[0].receivers
        assert honest.strategies == []
        names = [type(s).name for s in attacker.strategies]
        assert names == ["inflated-join", "key-replay", "key-guessing"]

    def test_legacy_misbehaving_on_unprotected_protocol(self):
        spec = ScenarioSpec(
            name="legacy-dl",
            protected=False,
            sessions=(SessionDecl("s", receivers=1, misbehaving=(0,), attack_start_s=2.0),),
            duration_s=6.0,
            config=FAST,
        )
        scenario = Scenario.from_spec(spec)
        attacker = scenario.sessions[0].receivers[0]
        assert [type(s) for s in attacker.strategies] == [InflatedJoinStrategy]
        scenario.run(6.0)
        assert attacker.level == attacker.spec.group_count


# ----------------------------------------------------------------------
# collusion pool
# ----------------------------------------------------------------------
class TestCollusionPool:
    def test_publish_merge_and_prune(self):
        pool = CollusionPool("p")
        pool.publish(10, {1: 111})
        pool.publish(10, {2: 222})
        assert pool.keys_for(10) == {1: 111, 2: 222}
        pool.publish(100, {1: 5})
        assert pool.keys_for(10) == {}  # pruned: far in the past
        assert pool.published == 3

    def test_member_weighted_publish_books_cohort_shares(self):
        """One cohort publish with members=N == N identical individual ones."""
        cohort_pool = CollusionPool("c")
        cohort_pool.publish(10, {1: 111, 2: 222}, members=3)
        individual_pool = CollusionPool("i")
        for _ in range(3):
            individual_pool.publish(10, {1: 111, 2: 222})
        assert cohort_pool.keys_for(10) == individual_pool.keys_for(10)
        assert cohort_pool.published == individual_pool.published == 6
        cohort_pool.publish(10, {}, members=3)  # empty publishes book nothing
        assert cohort_pool.published == 6

    def test_pools_are_scoped_per_network(self):
        from repro.simulator.topology import DumbbellConfig, DumbbellNetwork

        first = DumbbellNetwork(DumbbellConfig())
        second = DumbbellNetwork(DumbbellConfig())
        for net in (first, second):
            net._adversary_pools = {}
        first._adversary_pools["p"] = CollusionPool("p")
        assert "p" not in second._adversary_pools


# ----------------------------------------------------------------------
# scenario registry entries
# ----------------------------------------------------------------------
class TestAttackScenarios:
    @pytest.mark.parametrize(
        "name",
        [
            "attack-flapping",
            "attack-key-guessing",
            "attack-key-replay",
            "attack-join-storm",
            "attack-ignore-congestion",
            "attack-composite",
            "attack-collusion-parking-lot",
        ],
    )
    def test_attack_scenarios_build_valid_specs(self, name):
        spec = scenario_spec(name, duration_s=10.0, attack_start_s=3.0)
        assert spec.protected
        assert any(decl.attacks for decl in spec.sessions)
        # Must survive the canonical JSON round trip (runner requirement).
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_attack_scheduled_past_the_run_yields_no_protection_block(self):
        """A clamped zero-width window must not fabricate containment results."""
        from repro.experiments import execute_spec

        spec = scenario_spec("attack-flapping", duration_s=6.0, attack_start_s=50.0)
        result = execute_spec(spec)
        assert "protection" not in result.metrics

    def test_intensity_parameter_reaches_the_strategy(self):
        spec = scenario_spec(
            "attack-key-guessing", duration_s=6.0, attack_start_s=1.0, intensity=3.0
        )
        scenario = Scenario.from_spec(spec)
        attacker = scenario.sessions[0].receivers[0]
        strategy = attacker.strategies[0]
        assert isinstance(strategy, KeyGuessingStrategy)
        assert strategy.intensity == 3.0
