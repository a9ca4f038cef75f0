"""Unit tests of the composable adversary subsystem.

Covers the declarative layer (AttackSpec validation and serialisation inside
ScenarioSpec), the registry (lookup, stream isolation), strategy composition
and scheduling on live receivers, the collusion pool, and the paper's attacker
stack (:func:`~repro.adversary.paper_attacker`) in the scenario interpreter.
"""

import pytest

from repro.adversary import (
    ADVERSARIES,
    AttackSpec,
    adversary_names,
    build_strategies,
    paper_attacker,
)
from repro.adversary.context import CollusionPool
from repro.adversary.strategies import (
    InflatedJoinStrategy,
    KeyGuessingStrategy,
)
from repro.experiments import (
    Scenario,
    ScenarioSpec,
    SessionDecl,
    attack_duel_spec,
    scenario_spec,
)

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
        # Every onset is checked here, the paper attacker's included.
        with pytest.raises(ValueError, match=r"AttackSpec\.start_s must be .* >= 0, got -1\.0"):
            AttackSpec("churn", start_s=-1.0)
        assert AttackSpec("churn", start_s=0).start_s == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_are_refused(self, value):
        """A NaN or infinite intensity used to pass ``<= 0`` and crash the run
        (NaN to int, inf overflow); a non-finite schedule never fired or never
        ended.  Each is refused at declaration, naming its field."""
        with pytest.raises(ValueError, match=r"AttackSpec\.intensity must be a finite number > 0"):
            AttackSpec("churn", intensity=value)
        with pytest.raises(ValueError, match=r"AttackSpec\.start_s"):
            AttackSpec("churn", start_s=value)
        with pytest.raises(ValueError, match=r"AttackSpec\.stop_s"):
            AttackSpec("churn", stop_s=value)

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
            duration_s=8.0,
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_json() == spec.to_json()
        assert restored.sessions[0].attacks[0].params == {"guesses_per_slot": 9}

    def test_session_decl_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            SessionDecl("s", receivers=2, attacks=(AttackSpec("churn", receivers=(2,)),))

    def test_attacker_indices_and_onset_span_every_attack(self):
        decl = SessionDecl(
            "s",
            receivers=4,
            attacks=(
                *paper_attacker(True, start_s=9.0, receivers=(3,)),
                AttackSpec("churn", receivers=(1,), start_s=4.0),
            ),
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

    def test_unknown_strategy_raises(self):
        """An unregistered name never reaches ``build_strategies``: the spec
        refuses it, naming the strategies that exist."""
        with pytest.raises(ValueError, match="no-such-strategy") as excinfo:
            AttackSpec("no-such-strategy")
        for name in adversary_names():
            assert repr(name) in str(excinfo.value)

    def test_streams_are_isolated_per_strategy(self):
        from repro.simulator.topology import NetworkGraph, dumbbell_topology
        from repro.multicast_cc import SessionSpec

        net = NetworkGraph(dumbbell_topology(), seed=7)
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
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl("atk", receivers=1, attacks=tuple(attacks)),
            SessionDecl("hon", receivers=1),
        ),
        duration_s=duration,
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

    @pytest.mark.parametrize("stop_s", [11.0, None])
    def test_churn_stop_abandons_the_groups_above_the_level(self, stop_s):
        """Stopped in its high phase, churn leaves every group it joined above
        ``ctx.level``; never stopped, it ends holding them (unprotected
        flapping duel, 4 s period: high at 10-12 s and again at 18-20 s)."""
        attack = AttackSpec("churn", stop_s=stop_s, params={"period_s": 4.0})
        spec = attack_duel_spec(
            "attack-flapping", stack=(attack,), attack_start_s=2.0, protected=False, duration_s=20.0
        )
        scenario = Scenario.from_spec(spec)
        scenario.run(20.0)
        attacker = scenario.sessions[0].receivers[0]
        held = sorted(
            attacker.spec.group_index_of(address)
            for address in scenario.network.multicast.groups_of(attacker.host)
        )
        strategy = attacker.strategies[0]
        if stop_s is None:
            assert not strategy.stopped
            assert (attacker.level, held) == (3, [1, 2, 3, *range(5, 11)])
        else:
            assert strategy.stopped and not strategy._joined
            assert held == list(range(1, attacker.level + 1)) == [1]

    @pytest.mark.parametrize("protected", (False, True), ids=("flid-dl", "flid-ds"))
    def test_paper_attacker_is_the_stack_of_its_figure(self, protected):
        """Figure 1: inflated-join.  Figure 7: bare joins beside the honest
        pipeline, key replay and key guessing."""
        stack = paper_attacker(protected, start_s=5.0, receivers=(0, 2))
        figure7 = [
            ("inflated-join", {"suppress_honest": False}),
            ("key-replay", {}),
            ("key-guessing", {}),
        ]
        expected = figure7 if protected else [("inflated-join", {})]
        assert [(attack.strategy, dict(attack.params)) for attack in stack] == expected
        for attack in stack:
            assert (attack.receivers, attack.start_s, attack.stop_s) == ((0, 2), 5.0, None)
            assert attack.intensity == 1.0

    def test_paper_attacker_mounts_the_figure7_stack(self):
        attack = paper_attacker(True, start_s=2.0, receivers=(1,))
        spec = ScenarioSpec(
            name="paper-ds",
            protected=True,
            sessions=(SessionDecl("s", receivers=2, attacks=attack),),
            duration_s=6.0,
        )
        scenario = Scenario.from_spec(spec)
        honest, attacker = scenario.sessions[0].receivers
        assert honest.strategies == []
        names = [type(s).name for s in attacker.strategies]
        assert names == ["inflated-join", "key-replay", "key-guessing"]

    def test_paper_attacker_on_unprotected_protocol(self):
        spec = ScenarioSpec(
            name="paper-dl",
            protected=False,
            sessions=(
                SessionDecl("s", receivers=1, attacks=paper_attacker(False, start_s=2.0)),
            ),
            duration_s=6.0,
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
        from repro.simulator.topology import NetworkGraph, dumbbell_topology

        first = NetworkGraph(dumbbell_topology())
        second = NetworkGraph(dumbbell_topology())
        for net in (first, second):
            net._adversary_pools = {}
        first._adversary_pools["p"] = CollusionPool("p")
        assert "p" not in second._adversary_pools


# ----------------------------------------------------------------------
# declared strategy parameters
# ----------------------------------------------------------------------
class TestDeclaredParameters:
    @pytest.mark.parametrize(
        "strategy, params, message",
        [
            ("churn", {"perod_s": 1}, "has no parameter 'perod_s'"),
            ("key-replay", {"period_s": 2.0}, "has no parameter 'period_s'"),
            ("churn", {"period_s": "x"}, "must be a finite number"),
            ("churn", {"period_s": float("nan")}, "must be a finite number"),
            ("churn", {"duty": float("inf")}, "must be a finite number"),
            ("churn", {"period_s": True}, "must be a finite number"),
            ("key-guessing", {"guesses_per_slot": 2.5}, "must be an integer"),
            ("join-storm", {"bursts_per_slot": True}, "must be an integer"),
            ("key-guessing", {"key_bits": 0}, r"in range\(1, 61\)"),
            ("key-guessing", {"key_bits": 61}, r"in range\(1, 61\)"),
            ("ignore-congestion", {"mode": "off"}, r"in \('mask', 'hold'\)"),
            ("inflated-join", {"suppress_honest": 0}, "must be a boolean"),
            ("collusion", {"pool": 3}, "must be a string"),
        ],
    )
    def test_a_param_no_run_can_use_is_refused(self, strategy, params, message):
        """A misspelt key used to run the default in silence, a string period
        to crash a worker mid-run, and ``mode="off"`` to run an honest receiver."""
        with pytest.raises(ValueError, match=r"AttackSpec\.params.*" + message):
            AttackSpec(strategy, params=params)

    def test_declared_params_of_their_kind_are_admitted(self):
        assert AttackSpec("churn", params={"period_s": 2, "duty": 0.25}).params["period_s"] == 2
        AttackSpec("key-guessing", params={"guesses_per_slot": 2, "key_bits": 60})
        AttackSpec("ignore-congestion", params={"mode": "hold"})
        AttackSpec("collusion", params={"pool": "p", "publish": False, "exploit": True})

    def test_an_unset_param_reads_its_declared_default(self):
        for name, cls in ADVERSARIES.items():
            strategy = cls()
            for key, param in cls.parameters.items():
                assert strategy.param(key) == param.default, (name, key)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["attack-flapping", "--param", "perod_s=1"], "AttackSpec.params"),
            (["attack-key-guessing", "--param", "guesses_per_slot=2.5"], "AttackSpec.params"),
            # No builder takes a config: the spec has none.
            (["figure1-attack", "--param", "config=x"], "config"),
            # The registry checks each parameter a row declares before its builder
            # runs (the figure rows' two used to be checked by the spec and the
            # attack, behind a lambda that declared none).
            (
                ["figure1-attack", "--param", "duration_s=x"],
                "scenario 'figure1-attack': duration_s: expected float",
            ),
            (
                ["figure1-attack", "--param", "attack_start_s=x"],
                "scenario 'figure1-attack': attack_start_s: expected float",
            ),
            (
                ["attack-key-replay", "--param", "protected=1"],
                "scenario 'attack-key-replay': protected: expected bool",
            ),
            (
                ["attack-key-replay", "--param", "intensity=true"],
                "scenario 'attack-key-replay': intensity: expected float",
            ),
            # The row's attack starts at 20 s, after a 12 s run has ended.
            (["attack-flapping", "--duration", "12"], "attack_start_s 20"),
        ],
    )
    def test_cli_refuses_the_spec_before_it_runs(self, argv, field, capsys):
        from repro.__main__ import main

        duration = [] if "duration_s=x" in argv or "--duration" in argv else ["--duration", "2"]
        assert main(["run", *argv, *duration]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and field in line

    def test_scenario_param_overrides_the_rows_default(self):
        spec = scenario_spec("attack-flapping", period_s=2)
        assert spec.sessions[0].attacks[0].params == {"period_s": 2}
        spec = scenario_spec("attack-key-guessing")
        assert spec.sessions[0].attacks[0].params == {"guesses_per_slot": 8}


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
        """A clamped zero-width window must not fabricate containment results.

        A figure row clamps a late attack to the run's end; the attack rows
        refuse it (below)."""
        from repro.experiments import execute_spec

        spec = scenario_spec("figure7-defence", duration_s=6.0, attack_start_s=50.0)
        assert spec.sessions[0].attacks[0].start_s == 6.0
        result = execute_spec(spec)
        assert "protection" not in result.metrics

    @pytest.mark.parametrize(
        "name",
        [
            "attack-flapping",
            "attack-key-guessing",
            "attack-key-replay",
            "attack-join-storm",
            "attack-ignore-congestion",
            "attack-composite",
        ],
    )
    @pytest.mark.parametrize("attack_start_s", [10.0, 50.0])
    def test_an_attack_row_refuses_an_attack_that_never_starts(self, name, attack_start_s):
        """It used to run the whole cell honestly under an attack's name."""
        with pytest.raises(ValueError, match=r"attack_start_s .*\(duration_s 10\)"):
            scenario_spec(name, duration_s=10.0, attack_start_s=attack_start_s)

    def test_intensity_parameter_reaches_the_strategy(self):
        spec = scenario_spec(
            "attack-key-guessing", duration_s=6.0, attack_start_s=1.0, intensity=3.0
        )
        scenario = Scenario.from_spec(spec)
        attacker = scenario.sessions[0].receivers[0]
        strategy = attacker.strategies[0]
        assert isinstance(strategy, KeyGuessingStrategy)
        assert strategy.intensity == 3.0
