"""Tests of the §5.1 settings, scenario builder and figure modules.

Experiment smoke tests use short durations; the full paper-scale runs live in
the benchmark harness.
"""

from dataclasses import replace

import pytest

from repro.adversary import AttackSpec
from repro.experiments import (
    PAPER_GROUP_COUNTS,
    PAPER_SLOT_DURATIONS,
    CbrDecl,
    ExperimentRunner,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    figure,
    figure9_model,
    plan_prefix,
    plan_shards,
    scenario_spec,
)
from repro.experiments.metrics import WARMUP_S
from repro.experiments.spec import FAIR_SHARE_BPS
from repro.multicast_cc import SessionSpec


class TestPaperSettings:
    def test_paper_defaults_match_section_5_1(self):
        assert FAIR_SHARE_BPS == 250_000.0
        assert WARMUP_S == 5.0
        session = SessionSpec("a")
        assert session.base_rate_bps == 100_000.0
        assert session.rate_factor == 1.5
        assert session.packet_bytes == 576
        decl = SessionDecl("a")
        assert (decl.group_count, decl.key_bits) == (10, 16)
        assert ScenarioSpec(name="d", protected=False).slot_duration_s == 0.5
        assert ScenarioSpec(name="d", protected=True).slot_duration_s == 0.25
        # 200-second runs: the default of the spec's one run length.
        assert ScenarioSpec(name="d", protected=False).duration_s == 200.0

    def test_every_duel_dumbbell_gets_one_fair_share_per_flow(self, monkeypatch):
        """A duel's bottleneck carries one fair share per multicast session
        and per TCP flow crossing it, however many receivers a session has."""
        from repro.experiments import attacks, list_scenarios, scale

        duels = []

        def recording(*args, **kwargs):
            spec = real_duel_spec(*args, **kwargs)
            duels.append(spec)
            return spec

        real_duel_spec = attacks.duel_spec
        monkeypatch.setattr(attacks, "duel_spec", recording)
        monkeypatch.setattr(scale, "duel_spec", recording)
        for entry in list_scenarios():
            entry.build()
        dumbbells = [spec for spec in duels if spec.topology == "dumbbell"]
        assert len(dumbbells) >= 10
        for spec in dumbbells:
            network = Scenario.from_spec(spec).network
            bottleneck = network.find_link(network.router("left"), network.router("right"))
            flows = len(spec.sessions) + len(spec.tcp)
            assert flows >= 2
            assert bottleneck.bandwidth_bps == FAIR_SHARE_BPS * flows, spec.name

    def test_session_spec_slot_duration_depends_on_protection(self):
        """Every session of a run takes the slot of the run's protocol."""
        for protected, slot_s in ((False, 0.5), (True, 0.25)):
            spec = ScenarioSpec(
                name="d", protected=protected, sessions=(SessionDecl("a"), SessionDecl("b"))
            )
            sessions = Scenario.from_spec(spec).sessions
            assert [s.spec.slot_duration_s for s in sessions] == [slot_s, slot_s]

    def test_with_seed(self):
        spec = ScenarioSpec(name="d", protected=False)
        assert spec.with_seed(7).seed == 7
        assert spec.seed == 0  # frozen original untouched


#: A 500 Kbps dumbbell: one fair share for each of two flows.
TWO_SHARES = {"bottleneck_bandwidth_bps": 500_000.0}


def built(protected=False, **fields):
    """The scenario of a spec declaring ``fields``."""
    return Scenario.from_spec(ScenarioSpec("builder", protected, **fields))


class TestScenarioBuilder:
    def test_unprotected_scenario_installs_igmp(self):
        scenario = built(protected=False)
        assert scenario.sigma is None
        assert scenario.network.router("right").group_manager is not None

    def test_protected_scenario_installs_sigma(self):
        scenario = built(protected=True)
        assert scenario.sigma is not None
        assert scenario.network.router("right").group_manager is scenario.sigma

    def test_a_session_gets_its_sender_and_receivers(self):
        [session] = built(sessions=(SessionDecl("mc1", receivers=3),)).sessions
        assert len(session.receivers) == 3
        assert session.spec.group_count == 10

    def test_sessions_get_distinct_group_addresses(self):
        first, second = built(
            sessions=(SessionDecl("mc1"), SessionDecl("mc2")), topology_params=TWO_SHARES
        ).sessions
        overlap = set(map(int, first.spec.group_addresses)) & set(
            map(int, second.spec.group_addresses)
        )
        assert not overlap

    def test_short_run_produces_throughput(self):
        scenario = built(sessions=(SessionDecl("mc1"),), duration_s=10.0)
        scenario.run()
        assert scenario.sessions[0].receiver.average_rate_kbps(2.0, 10.0) > 50.0

    def test_tcp_and_cbr_can_join_the_mix(self):
        scenario = built(
            sessions=(SessionDecl("mc1"),),
            tcp=(TcpDecl("tcp1"),),
            cbr=(CbrDecl(rate_bps=50_000.0),),
            topology_params=TWO_SHARES,
            duration_s=8.0,
        )
        scenario.run()
        assert scenario.tcp_connections[0].monitor.average_rate_kbps(2.0, 8.0) > 0.0
        assert scenario.cbr_sinks[0].packets_received > 0

    def test_scenario_from_spec_runs_for_the_spec_duration(self):
        """A spec's duration, not the paper's 200 s default, ends the run."""
        assert scenario_spec("figure8-throughput", count=1).duration_s == 200.0
        spec = scenario_spec("figure8-throughput", duration_s=6.0, count=1)
        scenario = Scenario.from_spec(spec)
        assert scenario.duration_s == 6.0
        scenario.run()
        assert scenario.network.sim.now == 6.0
        assert scenario.sessions[0].receiver.average_rate_kbps(WARMUP_S, 6.0) > 50.0


class TestARunIsItsDeclarations:
    """Each value a run varies is read from the one declaration it lives on."""

    @pytest.mark.parametrize("protected", [False, True], ids=["flid-dl", "flid-ds"])
    def test_every_reader_takes_the_one_slot_rule(self, protected):
        slot_s = 0.25 if protected else 0.5
        attack = AttackSpec("inflated-join", start_s=10.3)
        spec = ScenarioSpec(
            name="d", protected=protected, duration_s=12.0,
            sessions=(SessionDecl("a", receivers=2, attacks=(attack,)), SessionDecl("b")),
        )
        if protected:
            assert Scenario.from_spec(spec).slot_clock.duration_s == slot_s
        # The warm-start barrier is the last slot boundary before the onset.
        assert plan_prefix(spec).barrier_s == (10.25 if protected else 10.0)
        sharded = scenario_spec(
            "scale-dumbbell-10m",
            receivers=1_000, cohorts=8, attackers=10, attacker_cohorts=2,
            protected=protected, attack_start_s=2.0, duration_s=4.0,
        )
        assert plan_shards(sharded).slot_s == slot_s

    @pytest.mark.parametrize("protected", [False, True], ids=["flid-dl", "flid-ds"])
    def test_each_session_sends_its_declared_groups(self, protected):
        spec = ScenarioSpec(
            name="d", protected=protected,
            sessions=(SessionDecl("a", group_count=4), SessionDecl("b")),
        )
        narrow, paper = Scenario.from_spec(spec).sessions
        assert (narrow.spec.group_count, paper.spec.group_count) == (4, 10)
        assert len(narrow.spec.group_addresses) == 4
        assert set(narrow.spec.group_addresses).isdisjoint(paper.spec.group_addresses)

    def test_each_protected_session_keys_at_its_declared_width(self):
        spec = ScenarioSpec(
            name="d", protected=True,
            sessions=(SessionDecl("a", key_bits=8), SessionDecl("b")),
        )
        narrow, paper = Scenario.from_spec(spec).sessions
        assert (narrow.sender.key_bits, narrow.receiver.key_bits) == (8, 8)
        assert (paper.sender.key_bits, paper.receiver.key_bits) == (16, 16)


class TestFigure9:
    def test_group_sweep_covers_paper_range(self):
        points = figure9_model().sweep_group_count(PAPER_GROUP_COUNTS)
        assert [p.parameter for p in points][0] == 2.0
        assert points[-1].parameter == 20.0

    def test_sigma_overhead_falls_with_longer_slots(self):
        points = figure9_model().sweep_slot_duration(PAPER_SLOT_DURATIONS)
        assert points[0].sigma_percent > points[-1].sigma_percent

    def test_figure9_model_parameters(self):
        model = figure9_model()
        assert model.data_bits_per_packet == 4000
        assert model.cumulative_rate_bps == 4_000_000.0
        assert model.key_bits == 16

    def test_measured_overhead_models_the_simulated_session(self):
        """Model and measurement cover the groups the cell's session declares:
        SIGMA's wire format then costs one near-constant multiple of the
        model, 6 groups or the paper's 10."""
        decl = figure("figure9_measured_overhead_matches_model")
        measured_over_model = []
        for groups in (6, 10):
            cells = [
                replace(spec, sessions=tuple(
                    replace(session, group_count=groups) for session in spec.sessions
                ))
                for spec in decl.cells(duration_s=6.0)
            ]
            table = decl.reduce(cells, ExperimentRunner().run(cells))
            measured_over_model.append(
                table["measured_sigma_percent"] / table["model_sigma_percent"]
            )
        assert min(measured_over_model) > 0.9 * max(measured_over_model)
