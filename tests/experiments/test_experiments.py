"""Tests of the experiment configuration, scenario builder and figure modules.

Experiment smoke tests use short durations; the full paper-scale runs live in
the benchmark harness.
"""

from dataclasses import replace

from repro.experiments import (
    ExperimentConfig,
    PAPER_DEFAULTS,
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
    scenario_spec,
)


class TestExperimentConfig:
    def test_paper_defaults_match_section_5_1(self):
        cfg = PAPER_DEFAULTS
        assert cfg.fair_share_bps == 250_000.0
        assert cfg.group_count == 10
        assert cfg.base_rate_bps == 100_000.0
        assert cfg.rate_factor == 1.5
        assert cfg.packet_bytes == 576
        assert cfg.flid_dl_slot_s == 0.5
        assert cfg.flid_ds_slot_s == 0.25
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
            assert bottleneck.bandwidth_bps == spec.config.fair_share_bps * flows, spec.name

    def test_session_spec_slot_duration_depends_on_protection(self):
        assert PAPER_DEFAULTS.session_spec("a", protected=False).slot_duration_s == 0.5
        assert PAPER_DEFAULTS.session_spec("a", protected=True).slot_duration_s == 0.25

    def test_with_seed(self):
        cfg = PAPER_DEFAULTS.with_seed(7)
        assert cfg.seed == 7
        assert PAPER_DEFAULTS.seed == 0  # frozen original untouched


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
        assert scenario.sessions[0].receiver.average_rate_kbps(spec.config.warmup_s, 6.0) > 50.0


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
        """Model and measurement cover the groups the cell's config declares:
        SIGMA's wire format then costs one near-constant multiple of the
        model, 6 groups or the paper's 10."""
        decl = figure("figure9_measured_overhead_matches_model")
        measured_over_model = []
        for groups in (6, 10):
            config = replace(PAPER_DEFAULTS, group_count=groups)
            cells = [replace(spec, config=config) for spec in decl.cells(duration_s=6.0)]
            table = decl.reduce(cells, ExperimentRunner().run(cells))
            measured_over_model.append(
                table["measured_sigma_percent"] / table["model_sigma_percent"]
            )
        assert min(measured_over_model) > 0.9 * max(measured_over_model)
