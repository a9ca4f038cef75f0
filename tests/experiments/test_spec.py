"""Tests of the declarative scenario spec layer and the named registry."""

import dataclasses
import inspect
import json
import re
from typing import Optional

import pytest

from repro.adversary import AttackSpec, paper_attacker
from repro.experiments import (
    CbrDecl,
    ChurnProcess,
    CohortDecl,
    PAPER_GROUP_COUNTS,
    ExperimentRunner,
    RunResult,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    list_figures,
    list_scenarios,
    plan_cell,
    scenario_entry,
    scenario_spec,
)
from repro.experiments.metrics import WARMUP_S
from repro.experiments.spec import (
    FAIR_SHARE_BPS,
    MAX_DURATION_S,
    MAX_GROUP_COUNT,
    MAX_KEY_BITS,
    PAPER_DURATION_S,
    canonical_json,
    decode,
    encode,
    unset,
)


def _rich_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="roundtrip",
        protected=True,
        topology="parking-lot",
        topology_params={"hops": 2, "bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl(
                "mc",
                receivers=2,
                attacks=paper_attacker(True, start_s=10.0, receivers=(1,)),
                receiver_start_times=(0.0, 5.0),
                receiver_access_delays=(None, 0.02),
                receiver_routers=("r1", None),
            ),
        ),
        tcp=(TcpDecl("t1", start_s=1.0, receiver_router="r2"),),
        cbr=(CbrDecl("burst", rate_bps=50_000.0, active_window=(5.0, 9.0)),),
        duration_s=20.0,
        seed=3,
    )


class TestSerialisation:
    def test_json_roundtrip_is_identity(self):
        spec = _rich_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_is_stable(self):
        spec = _rich_spec()
        assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()

    def test_with_seed_only_changes_the_seed(self):
        spec = _rich_spec()
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.to_dict() == {**spec.to_dict(), "seed": 9}
        assert reseeded.with_seed(3) == spec

    def test_duration_defaults_to_the_papers_200_s(self):
        spec = ScenarioSpec(name="d", protected=False, sessions=(SessionDecl("a"),))
        assert spec.duration_s == spec.effective_duration_s == PAPER_DURATION_S == 200.0
        assert dataclasses.replace(spec, duration_s=7.0).effective_duration_s == 7.0


class TestValidation:
    def test_per_receiver_lists_must_match_count(self):
        with pytest.raises(ValueError, match="one entry per receiver"):
            SessionDecl("bad", receivers=2, receiver_start_times=(0.0,))

    @pytest.mark.parametrize(
        "duration_s", [float("nan"), float("inf"), float("-inf"), -5.0, 0.0, 1e9, 3600.5]
    )
    def test_duration_must_be_finite_positive_and_capped(self, duration_s):
        """A NaN horizon never ends the engine loop; a non-positive one runs
        nothing and reports zeros; 1e9 s held a daemon worker for as long as
        the daemon lived.  Each is refused by name when decoded."""
        document = ScenarioSpec(name="d", protected=False, sessions=(SessionDecl("a"),)).to_dict()
        document["duration_s"] = duration_s
        with pytest.raises(ValueError, match=r"ScenarioSpec\.duration_s .*MAX_DURATION_S"):
            ScenarioSpec.from_dict(document)

    def test_a_spec_that_measures_nothing_is_refused(self):
        """With no session, TCP or CBR flow a spec ran an idle network and
        returned ``{"multicast": {}}``; the planner refuses it by name (the
        daemon's wire: ``tests/service``)."""
        empty = ScenarioSpec(name="empty", protected=False, duration_s=2.0)
        with pytest.raises(ValueError, match=r"measures nothing: ScenarioSpec\.sessions"):
            ExperimentRunner().run([empty])
        with pytest.raises(ValueError, match=r"ScenarioSpec\.sessions"):
            plan_cell(empty)

    @pytest.mark.parametrize(
        "traffic",
        [{"sessions": (SessionDecl("a"),)}, {"tcp": (TcpDecl("t"),)}, {"cbr": (CbrDecl("c"),)}],
        ids=["session", "tcp", "cbr"],
    )
    def test_one_session_or_flow_is_enough(self, traffic):
        ScenarioSpec(name="d", protected=False, **traffic).check_measures()

    def test_the_duration_cap_is_inclusive(self):
        assert MAX_DURATION_S == 3600.0
        assert ScenarioSpec(name="d", protected=False, duration_s=3600.0).duration_s == 3600.0

    @pytest.mark.parametrize(
        "path, key, owner",
        [(("sessions", 0), "misbehaving", "SessionDecl"),
         (("sessions", 0), "attack_start_s", "SessionDecl"),
         ((), "config", "ScenarioSpec")],
        ids=["session-misbehaving", "session-attack-start", "config"],
    )
    def test_deleted_keys_are_refused_by_name(self, path, key, owner):
        """The attacker shorthand and the config are gone; a document still
        carrying them names the key instead of running something else."""
        document = scenario_spec("figure1-attack", duration_s=2.0).to_dict()
        value = {"misbehaving": [0], "config": dict(PROTOCOL_4_CONFIG)}.get(key, 10.0)
        _set((*path, key), value)(document)
        with pytest.raises(TypeError, match=re.escape(f"{owner} got unknown keys ['{key}']")):
            ScenarioSpec.from_dict(document)


#: The ``config`` every spec document carried up to wire protocol 4: the
#: seed, now the spec's own, the layering, now a session's, and the §5.1
#: settings that are constants now.
PROTOCOL_4_CONFIG = {
    "base_rate_bps": 100_000.0,
    "fair_share_bps": 250_000.0,
    # Spelled in two parts so tests/docs/test_deleted_code.py finds no slot
    # field coming back.
    "flid_dl_" "slot_s": 0.5,
    "flid_ds_" "slot_s": 0.25,
    "group_count": 10,
    "key_bits": 16,
    "packet_bytes": 576,
    "rate_factor": 1.5,
    "seed": 0,
    "warmup_s": 5.0,
}

@pytest.mark.parametrize("key", sorted(PROTOCOL_4_CONFIG))
def test_each_protocol_4_config_value_has_one_home_now(key):
    """The fold lost nothing: every value a protocol-4 config carried is
    what a declared run reads from the one place it lives now."""
    dl, ds = (
        Scenario.from_spec(ScenarioSpec(name="h", protected=p, sessions=(SessionDecl("a"),)))
        for p in (False, True)
    )
    session = ds.sessions[0]
    homes = {
        "base_rate_bps": session.spec.base_rate_bps,
        "fair_share_bps": FAIR_SHARE_BPS,
        "flid_dl_" "slot_s": dl.sessions[0].spec.slot_duration_s,
        "flid_ds_" "slot_s": session.spec.slot_duration_s,
        "group_count": session.spec.group_count,
        "key_bits": session.sender.key_bits,
        "packet_bytes": session.spec.packet_bytes,
        "rate_factor": session.spec.rate_factor,
        "seed": ScenarioSpec(name="h", protected=True).seed,
        "warmup_s": WARMUP_S,
    }
    assert homes[key] == PROTOCOL_4_CONFIG[key]


#: Layering no run can finish, each under its field.  Before they were
#: checked at declaration, a run failed on them inside ``SessionSpec``, the
#: ``NonceGenerator`` or the FEC field ("symbols outside field range"), and
#: a 2-s cell with 36 groups ran for over 50 s.
LAYERING_MISTAKES = {
    "no-groups": ("group_count", 0),
    "one-group-past-the-cap": ("group_count", MAX_GROUP_COUNT + 1),
    "more-groups-than-the-paper": ("group_count", 36),
    "no-key-bits": ("key_bits", 0),
    "negative-key-bits": ("key_bits", -3),
    "one-bit-past-the-cap": ("key_bits", MAX_KEY_BITS + 1),
    "keys-past-the-fec-prime": ("key_bits", 64),
}


class TestLayeringCheckedAtDeclaration:
    @pytest.mark.parametrize("case", sorted(LAYERING_MISTAKES))
    def test_layering_mistake_is_refused_when_decoded(self, case):
        name, value = LAYERING_MISTAKES[case]
        document = scenario_spec("figure1-attack", duration_s=2.0).to_dict()
        document["sessions"][1][name] = value
        with pytest.raises(ValueError, match=re.escape(f"SessionDecl.{name} must be")):
            ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize(
        "cls, name, fields",
        [(SessionDecl, "group_count", {"session_id": "s"}),
         (SessionDecl, "key_bits", {"session_id": "s"}),
         (ScenarioSpec, "seed", {"name": "s", "protected": True})],
        ids=["group_count", "key_bits", "seed"],
    )
    def test_integer_fields_refuse_booleans(self, cls, name, fields):
        with pytest.raises((TypeError, ValueError), match=re.escape(f"{cls.__name__}.{name}")):
            cls(**fields, **{name: True})

    def test_edge_values_still_declare(self):
        widest = SessionDecl("s", group_count=MAX_GROUP_COUNT, key_bits=MAX_KEY_BITS)
        assert (widest.group_count, widest.key_bits) == (20, 60)
        narrowest = SessionDecl("s", group_count=1, key_bits=1)
        assert (narrowest.group_count, narrowest.key_bits) == (1, 1)
        assert ScenarioSpec(name="s", protected=True, seed=-1).seed == -1
        assert MAX_GROUP_COUNT == max(PAPER_GROUP_COUNTS)


class TestRegistry:
    def test_paper_figures_registered(self):
        names = {entry.name for entry in list_scenarios()}
        assert {
            "figure1-attack",
            "figure7-defence",
            "figure8-throughput",
            "figure8-responsiveness",
            "figure8-rtt-fairness",
            "figure8-convergence",
            "figure9-measured-overhead",
            "parking-lot-attack",
            "star-fanout",
            "tree-convergence",
        } <= names

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_entry("figure42")

    def test_builders_accept_parameters(self):
        spec = scenario_spec("figure8-throughput", count=6, cross_traffic=True)
        assert len(spec.sessions) == 6
        assert len(spec.tcp) == 6
        assert spec.topology_params == {"bottleneck_bandwidth_bps": 12 * 250_000.0}

    def test_no_registered_scenario_or_figure_cell_is_empty(self):
        cells = [entry.build() for entry in list_scenarios()]
        cells += [spec for decl in list_figures() for spec in decl.cells()]
        assert cells
        for spec in cells:
            spec.check_measures()

    def test_registered_specs_serialise(self):
        cells = [entry.build() for entry in list_scenarios()]
        cells += [spec for decl in list_figures() for spec in decl.cells()]
        for spec in cells:
            assert ScenarioSpec.from_json(spec.to_json()) == spec
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "declare, field",
        [
            (lambda spec: dataclasses.replace(spec, protected=1),
             "ScenarioSpec.protected: expected bool"),
            (lambda spec: dataclasses.replace(spec, duration_s="2"),
             "ScenarioSpec.duration_s: expected float"),
            (lambda spec: AttackSpec("key-replay", intensity=True),
             "AttackSpec.intensity: expected float"),
            (lambda spec: AttackSpec("key-replay", intensity="x"),
             "AttackSpec.intensity: expected float"),
            (lambda spec: AttackSpec("key-replay", start_s="x"),
             "AttackSpec.start_s: expected float"),
            (lambda spec: AttackSpec("key-replay", stop_s="x"),
             "AttackSpec.stop_s: expected float"),
        ],
        ids=["protected-int", "duration-string", "intensity-bool", "intensity-string",
             "start-string", "stop-string"],
    )
    def test_a_spec_the_codec_would_refuse_is_refused_when_declared(self, declare, field):
        """The first three used to declare, and then fail to decode inside the
        worker; a string attack number failed in ``math.isfinite``, naming no
        field."""
        with pytest.raises(TypeError, match=field):
            declare(scenario_spec("attack-key-replay"))

    @pytest.mark.parametrize(
        "scenario, param",
        [(entry.name, name) for entry in list_scenarios() for name in entry.params],
    )
    def test_a_string_for_any_builder_parameter_is_refused_naming_it(self, scenario, param):
        """A string used to fail inside a builder's arithmetic (``'<' not
        supported``, ``IndexError``), in ``math.isfinite``, or to turn
        ``cross_traffic`` on, naming no parameter."""
        with pytest.raises((TypeError, ValueError)) as refused:
            scenario_spec(scenario, **{param: "x"})
        assert param in str(refused.value)

    def test_a_parameter_a_row_does_not_declare_is_refused_naming_it(self):
        """The figure rows used to take ``protected`` through a ``**params``
        lambda and fail inside it: "got multiple values for keyword argument
        'protected'"."""
        assert list(scenario_entry("figure7-defence").params) == ["attack_start_s", "duration_s"]
        for name in ("figure1-attack", "figure7-defence"):
            refusal = f"'{name}': unexpected keyword argument 'protected'"
            with pytest.raises(TypeError, match=refusal):
                scenario_spec(name, protected=False)
        # A duel row hands what it does not declare to its strategy, which checks it.
        with pytest.raises(ValueError, match="strategy 'churn' has no parameter 'hops'"):
            scenario_spec("attack-flapping", hops=3)


class TestInterpreter:
    def test_from_spec_builds_figure1_layout(self):
        spec = scenario_spec("figure1-attack", duration_s=10.0)
        scenario = Scenario.from_spec(spec)
        assert [s.spec.session_id for s in scenario.sessions] == ["F1", "F2"]
        assert [c.sender.name for c in scenario.tcp_connections] == ["T1", "T2"]
        assert scenario.network.spec.kind == "dumbbell"
        # 4 competing sessions at the 250 Kbps fair share -> 1 Mbps bottleneck.
        network = scenario.network
        bottleneck = network.find_link(network.router("left"), network.router("right"))
        assert bottleneck.bandwidth_bps == pytest.approx(1_000_000.0)

    def test_dumbbell_topology_params_reach_the_network(self):
        spec = ScenarioSpec(
            name="dumbbell-params",
            protected=False,
            topology="dumbbell",
            topology_params={"bottleneck_delay_s": 0.005, "access_delay_s": 0.002},
            sessions=(SessionDecl("mc"),),
            duration_s=5.0,
            seed=42,
        )
        network = Scenario.from_spec(spec).network
        assert network.random.seed == 42
        right = network.router("right")
        assert network.find_link(network.router("left"), right).delay_s == 0.005
        assert network.spec.access_delay_s == 0.002
        assert right is network.edge_router

    def test_unknown_dumbbell_parameter_rejected(self):
        with pytest.raises(TypeError, match="hops"):
            ScenarioSpec(
                name="dumbbell-bad",
                protected=False,
                topology="dumbbell",
                topology_params={"hops": 3},
                sessions=(SessionDecl("mc"),),
            )

    def test_protected_multi_edge_topology_gets_one_agent_per_edge(self):
        spec = scenario_spec("star-fanout", duration_s=5.0, arms=3)
        scenario = Scenario.from_spec(spec)
        assert len(scenario.sigma_agents) == 3
        agent_routers = {agent.router.name for agent in scenario.sigma_agents}
        assert agent_routers == {"arm1", "arm2", "arm3"}
        assert scenario.sigma is scenario.sigma_agents[0]

    def test_unprotected_multi_edge_topology_gets_igmp_per_edge(self):
        spec = scenario_spec("parking-lot-attack", protected=False, duration_s=5.0)
        scenario = Scenario.from_spec(spec)
        assert len(scenario.igmp_managers) == 3
        for router in scenario.network.receiver_edge_routers:
            assert router.group_manager is not None


class TestShardsField:
    def test_shards_omitted_from_canonical_json_when_unset(self):
        """Legacy spec hashes and golden digests must stay byte-identical."""
        spec = _rich_spec()
        assert spec.shards is None
        assert '"shards"' not in spec.to_json()
        assert "shards" not in spec.to_dict()

    def test_shards_roundtrip_when_set(self):
        spec = ScenarioSpec(
            name="sharded",
            protected=True,
            topology="sharded-dumbbell",
            topology_params={"regions": 2, "edges_per_region": 2},
            shards=2,
            sessions=(
                SessionDecl(
                    "mc",
                    receivers=0,
                    population=(CohortDecl(8, model="vector", cohorts=2),),
                ),
            ),
        )
        assert spec.to_dict()["shards"] == 2
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_shards_below_two_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 2"):
            ScenarioSpec(
                name="bad",
                protected=False,
                shards=1,
                sessions=(SessionDecl("mc"),),
            )


#: Topology mistakes that used to declare, round-trip through JSON and
#: fail only inside the run: ``(spec fields, error, message fragment)``.
TOPOLOGY_MISTAKES = {
    "unknown-kind": (dict(topology="nope"), ValueError, "unknown topology 'nope'"),
    "unknown-param": (
        dict(topology="parking-lot", topology_params={"hopz": 3}),
        TypeError,
        "hopz",
    ),
    "seed-param": (dict(topology_params={"seed": 7}), TypeError, "seed"),
    "nan-bandwidth": (
        dict(topology_params={"bottleneck_bandwidth_bps": float("nan")}),
        ValueError,
        "bandwidth_bps must be a finite number > 0, got nan",
    ),
    "zero-bandwidth": (
        dict(topology_params={"bottleneck_bandwidth_bps": 0.0}),
        ValueError,
        "bandwidth_bps must be a finite number > 0",
    ),
    "negative-bandwidth": (
        dict(topology="star", topology_params={"arm_bandwidth_bps": -1.0}),
        ValueError,
        "bandwidth_bps must be a finite number > 0",
    ),
    "negative-delay": (
        dict(topology_params={"bottleneck_delay_s": -0.02}),
        ValueError,
        "delay_s must be a finite number >= 0",
    ),
    "nan-access-delay": (
        dict(topology="binary-tree", topology_params={"access_delay_s": float("nan")}),
        ValueError,
        "'binary-tree': access_delay_s must be a finite number >= 0, got nan",
    ),
    "no-edges": (
        dict(topology="multi-edge-dumbbell", topology_params={"edges": 0}),
        ValueError,
        "at least one edge router",
    ),
    "shards-mismatch": (
        dict(topology="sharded-dumbbell", shards=4, topology_params={"regions": 8}),
        ValueError,
        "spec declares shards=4 but topology 'sharded-dumbbell' annotates 8 regions",
    ),
    "shards-on-dumbbell": (dict(shards=2), ValueError, "annotates 0 regions"),
}


class TestTopologyCheckedAtDeclaration:
    @pytest.mark.parametrize("case", sorted(TOPOLOGY_MISTAKES))
    def test_topology_mistake_is_refused_when_declared(self, case):
        fields, error, fragment = TOPOLOGY_MISTAKES[case]
        with pytest.raises(error, match=re.escape(fragment)):
            ScenarioSpec(
                name="bad", protected=False, sessions=(SessionDecl("mc"),), **fields
            )

    @pytest.mark.parametrize("case", sorted(TOPOLOGY_MISTAKES))
    def test_topology_mistake_is_refused_when_decoded(self, case):
        fields, error, fragment = TOPOLOGY_MISTAKES[case]
        document = ScenarioSpec(
            name="bad", protected=False, sessions=(SessionDecl("mc"),)
        ).to_dict()
        document.update(fields)
        with pytest.raises(error, match=re.escape(fragment)):
            ScenarioSpec.from_dict(document)

    def test_the_declared_topology_is_the_realised_one(self):
        spec = scenario_spec("parking-lot-attack", duration_s=5.0)
        assert spec.network_topology.kind == "parking-lot"
        assert Scenario.from_spec(spec).network.spec == spec.network_topology


#: Receiver placements that used to declare and crash the build (a
#: ``KeyError``, a missing group manager, a NaN-to-integer conversion or a
#: schedule into the past): ``(session, message fragment)``.
RECEIVER_MISTAKES = {
    "unknown-block-router": (
        SessionDecl("mc", receivers=0, population=(CohortDecl(5, router="nope"),)),
        "CohortDecl.router 'nope' (session 'mc') is not a receiver edge router",
    ),
    "unknown-receiver-router": (
        SessionDecl("mc", receiver_routers=("nope",)),
        "SessionDecl.receiver_routers 'nope' (session 'mc') is not a receiver edge",
    ),
    "sender-side-block-router": (
        SessionDecl("mc", receivers=0, population=(CohortDecl(5, router="left"),)),
        "CohortDecl.router 'left' (session 'mc') is not a receiver edge router "
        "of topology 'dumbbell': one of ['right']",
    ),
    "sender-side-receiver-router": (
        SessionDecl("mc", receiver_routers=("left",)),
        "SessionDecl.receiver_routers 'left' (session 'mc')",
    ),
    "nan-block-start": (
        SessionDecl("mc", receivers=0, population=(CohortDecl(5, start_s=float("nan")),)),
        "CohortDecl.start_s must be a finite number of seconds >= 0 (session 'mc'), got nan",
    ),
    "negative-block-start": (
        SessionDecl("mc", receivers=0, population=(CohortDecl(5, start_s=-1.0),)),
        "CohortDecl.start_s must be a finite number of seconds >= 0 (session 'mc'), got -1.0",
    ),
    "nan-access-delay": (
        SessionDecl("mc", receiver_access_delays=(float("nan"),)),
        "SessionDecl.receiver_access_delays must be a finite number of seconds",
    ),
    "negative-access-delay": (
        SessionDecl("mc", receiver_access_delays=(-0.01,)),
        "SessionDecl.receiver_access_delays must be a finite number of seconds",
    ),
    "nan-receiver-start": (
        SessionDecl("mc", receiver_start_times=(float("nan"),)),
        "SessionDecl.receiver_start_times must be a finite number of seconds",
    ),
    "negative-receiver-start": (
        SessionDecl("mc", receiver_start_times=(-1.0,)),
        "SessionDecl.receiver_start_times must be a finite number of seconds",
    ),
    "infinite-receiver-start": (
        SessionDecl("mc", receiver_start_times=(float("inf"),)),
        "SessionDecl.receiver_start_times must be a finite number of seconds",
    ),
}


class TestReceiverPlacementCheckedAtDeclaration:
    @pytest.mark.parametrize("case", sorted(RECEIVER_MISTAKES))
    def test_placement_mistake_is_refused_when_declared(self, case):
        session, fragment = RECEIVER_MISTAKES[case]
        with pytest.raises(ValueError, match=re.escape(fragment)):
            ScenarioSpec(name="bad", protected=True, sessions=(session,))

    @pytest.mark.parametrize("case", sorted(RECEIVER_MISTAKES))
    def test_placement_mistake_is_refused_when_decoded(self, case):
        session, fragment = RECEIVER_MISTAKES[case]
        document = ScenarioSpec(
            name="bad", protected=True, sessions=(SessionDecl("mc"),)
        ).to_dict()
        document["sessions"] = [session.to_dict()]
        with pytest.raises(ValueError, match=re.escape(fragment)):
            ScenarioSpec.from_dict(document)

    def test_registered_builders_refuse_a_misplaced_audience(self):
        """The two scenarios the mistakes were first seen on."""
        for name in ("scale-dumbbell-10k", "figure1-attack"):
            spec = scenario_spec(name, duration_s=5.0)
            session = spec.sessions[0]
            if session.population:
                bad = dataclasses.replace(
                    session,
                    population=(dataclasses.replace(session.population[0], router="nope"),),
                )
            else:
                bad = dataclasses.replace(
                    session, receiver_routers=("left",) * session.receivers
                )
            with pytest.raises(ValueError, match="is not a receiver edge router"):
                dataclasses.replace(spec, sessions=(bad, *spec.sessions[1:]))

    def test_pinned_receiver_edges_still_declare(self):
        spec = ScenarioSpec(
            name="ok",
            protected=False,
            topology="multi-edge-dumbbell",
            topology_params={"edges": 2},
            sessions=(
                SessionDecl(
                    "mc",
                    receivers=2,
                    receiver_routers=("edge2", None),
                    receiver_access_delays=(0.0, None),
                    receiver_start_times=(0, 1.5),
                    population=(CohortDecl(4, router="edge1", start_s=2.0),),
                ),
            ),
        )
        assert spec.sessions[0].population[0].router == "edge1"


#: Traffic times and rates that used to declare and then hang the run (an
#: infinite CBR rate is a zero-delay send loop), run it silently wrong (a NaN
#: TCP start never starts the flow) or fail it midway (a negative TCP start, a
#: NaN attack start): ``(declaration, field, value)``.
TRAFFIC_MISTAKES = {
    "cbr-infinite-rate": (CbrDecl, "rate_bps", float("inf")),
    "cbr-nan-rate": (CbrDecl, "rate_bps", float("nan")),
    "cbr-zero-rate": (CbrDecl, "rate_bps", 0.0),
    "cbr-negative-rate": (CbrDecl, "rate_bps", -100.0),
    "cbr-nan-on": (CbrDecl, "on_s", float("nan")),
    "cbr-zero-on": (CbrDecl, "on_s", 0.0),
    "cbr-infinite-off": (CbrDecl, "off_s", float("inf")),
    "cbr-negative-off": (CbrDecl, "off_s", -1.0),
    "cbr-nan-window": (CbrDecl, "active_window", (float("nan"), 5.0)),
    "cbr-infinite-window": (CbrDecl, "active_window", (0.0, float("inf"))),
    "cbr-negative-window": (CbrDecl, "active_window", (-1.0, 5.0)),
    "cbr-negative-window-end": (CbrDecl, "active_window", (1.0, -5.0)),
    "tcp-nan-start": (TcpDecl, "start_s", float("nan")),
    "tcp-infinite-start": (TcpDecl, "start_s", float("inf")),
    "tcp-negative-start": (TcpDecl, "start_s", -1.0),
}

#: Where each declaration sits in :func:`_wire_spec`, and the name it has.
TRAFFIC_PLACES = {
    CbrDecl: (("cbr", 0), "(cbr 'cbr')"),
    TcpDecl: (("tcp", 0), "(tcp 't')"),
}


class TestTrafficCheckedAtDeclaration:
    @pytest.mark.parametrize("case", sorted(TRAFFIC_MISTAKES))
    def test_traffic_mistake_is_refused_when_declared(self, case):
        cls, name, value = TRAFFIC_MISTAKES[case]
        _, where = TRAFFIC_PLACES[cls]
        required = {TcpDecl: ("t",)}.get(cls, ())
        fragment = re.escape(f"{cls.__name__}.{name} must be")
        with pytest.raises(ValueError, match=fragment) as raised:
            cls(*required, **{name: value})
        assert where in str(raised.value)
        assert str(raised.value).endswith(f"got {value!r}")

    @pytest.mark.parametrize("case", sorted(TRAFFIC_MISTAKES))
    def test_traffic_mistake_is_refused_when_decoded(self, case):
        cls, name, value = TRAFFIC_MISTAKES[case]
        path, _ = TRAFFIC_PLACES[cls]
        document = _wire_spec()
        _set((*path, name), list(value) if isinstance(value, tuple) else value)(document)
        with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name} must be")):
            ScenarioSpec.from_dict(document)

    def test_edge_values_still_declare(self):
        assert CbrDecl(off_s=0.0, active_window=(0.0, 0.0)).off_s == 0.0
        # An empty window (the run ends before the burst would begin).
        assert CbrDecl(active_window=(10.0, 3.0)).active_window == (10.0, 3.0)
        assert TcpDecl("t", start_s=0).start_s == 0


class TestVectorChurnRejection:
    """model="vector" blocks cannot churn: the columnar rows are fixed-size.

    Regression tests for the spec-construction guard — a churned vector
    block used to slip through to the scenario interpreter and fail deep
    inside the population engine.
    """

    def test_vector_churn_rejected_at_construction(self):
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl(
                10,
                model="vector",
                churn=ChurnProcess(burst=((1.0, 5),)),
            )

    def test_multi_cohort_churn_rejected_at_construction(self):
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl(
                10,
                cohorts=2,
                churn=ChurnProcess(burst=((1.0, 5),)),
            )

    def test_vector_churn_rejected_via_from_dict(self):
        payload = {
            "count": 10,
            "model": "vector",
            "churn": encode(ChurnProcess(burst=((1.0, 5),))),
        }
        with pytest.raises(ValueError, match="single aggregated cohort"):
            CohortDecl.from_dict(payload)


# ----------------------------------------------------------------------
# the codec: field-complete round trips, the omit rule, spelled-once guards
# ----------------------------------------------------------------------
#: One instance of every class the codec walks, and for each of its fields a
#: value different from that instance's — valid next to the instance's other
#: fields, so ``replace(BASES[cls], field=value)`` always declares.  A field
#: added to a declaration must be given a sample here
#: (``test_every_declaration_field_has_a_sample`` fails until it is).
BASES = {
    # Region-annotated, and its audience a vector block, so a ``shards``
    # sample fits the base's topology and sessions.
    ScenarioSpec: ScenarioSpec(
        name="base",
        protected=False,
        sessions=(
            SessionDecl("s", receivers=0, population=(CohortDecl(10, model="vector"),)),
        ),
        topology="sharded-dumbbell",
    ),
    SessionDecl: SessionDecl("s", receivers=2),
    CohortDecl: CohortDecl(10),
    TcpDecl: TcpDecl("t"),
    CbrDecl: CbrDecl(),
    AttackSpec: AttackSpec("churn"),
    ChurnProcess: ChurnProcess(),
}
SAMPLES = {
    ScenarioSpec: dict(
        name="other",
        protected=True,
        sessions=(SessionDecl("a"), SessionDecl("b")),
        tcp=(TcpDecl("t1"),),
        cbr=(CbrDecl("burst"),),
        topology="multi-edge-dumbbell",
        topology_params={"regions": 2, "edges_per_region": 3},
        duration_s=9.0,
        record_series=True,
        shards=4,
        seed=5,
    ),
    SessionDecl: dict(
        session_id="other",
        receivers=3,
        attacks=(AttackSpec("churn", receivers=(1,)),),
        receiver_start_times=(0.0, 1.0),
        receiver_access_delays=(None, 0.02),
        receiver_routers=("edge1-1", None),
        track_overhead=True,
        suppress_unsubscribed_groups=False,
        population=(CohortDecl(5), CohortDecl(6, model="vector")),
        group_count=6,
        key_bits=4,
    ),
    CohortDecl: dict(
        count=7,
        router="edge1-1",
        start_s=2.0,
        model="vector",
        attack=AttackSpec("inflated-join", start_s=4.0),
        churn=ChurnProcess(burst=((1.0, 5),)),
        cohorts=2,
    ),
    TcpDecl: dict(name="u", start_s=1.0, sender_router="a", receiver_router="b"),
    CbrDecl: dict(
        name="burst",
        rate_bps=50_000.0,
        on_s=1.0,
        off_s=2.0,
        active_window=(1.0, 2.0),
        sender_router="a",
        receiver_router="b",
    ),
    AttackSpec: dict(
        strategy="key-replay",
        receivers=(1,),
        start_s=2.0,
        stop_s=8.0,
        intensity=2.0,
        params={"period_s": 2, "duty": 0.25},
    ),
    ChurnProcess: dict(
        arrival_rate=1.5, departure_rate=0.5, burst=((1.0, 5), (2.0, -3))
    ),
}

FIELD_CASES = [
    (cls, name) for cls, samples in SAMPLES.items() for name in sorted(samples)
]


def _embedded(declaration) -> ScenarioSpec:
    """A spec carrying ``declaration`` wherever its class nests."""
    base = BASES[ScenarioSpec]
    if isinstance(declaration, ScenarioSpec):
        return declaration
    if isinstance(declaration, TcpDecl):
        return dataclasses.replace(base, tcp=(declaration,))
    if isinstance(declaration, CbrDecl):
        return dataclasses.replace(base, cbr=(declaration,))
    if isinstance(declaration, ChurnProcess):
        declaration = CohortDecl(10, churn=declaration)
    if isinstance(declaration, CohortDecl):
        declaration = SessionDecl("s", receivers=0, population=(declaration,))
    if isinstance(declaration, AttackSpec):
        declaration = SessionDecl("s", receivers=2, attacks=(declaration,))
    return dataclasses.replace(base, sessions=(declaration,))


class TestCodecFieldCompleteness:
    def test_every_declaration_field_has_a_sample(self):
        for cls, samples in SAMPLES.items():
            declared = {field.name for field in dataclasses.fields(cls)}
            assert set(samples) == declared, cls.__name__

    @pytest.mark.parametrize(
        "cls, name", FIELD_CASES, ids=[f"{c.__name__}.{n}" for c, n in FIELD_CASES]
    )
    def test_field_round_trips_and_obeys_the_omit_rule(self, cls, name):
        base, value = BASES[cls], SAMPLES[cls][name]
        assert getattr(base, name) != value
        changed = dataclasses.replace(base, **{name: value})

        spec = _embedded(changed)
        text = spec.to_json()
        decoded = ScenarioSpec.from_json(text)
        assert decoded == spec and decoded.to_json() == text

        # A set field is always written; an unset one is left out exactly
        # when it was declared through ``unset`` (legacy JSON stays as is).
        (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
        assert name in encode(changed)
        omitted = bool(field.metadata.get("omit_when_unset"))
        assert (name not in encode(base)) == omitted

    def test_todays_omitted_fields_are_pinned(self):
        """These keys predate nothing: dropping a marker would change bytes."""
        omitted = {
            (cls.__name__, field.name)
            for cls in SAMPLES
            for field in dataclasses.fields(cls)
            if field.metadata.get("omit_when_unset")
        }
        assert omitted == {
            ("ScenarioSpec", "shards"),
            ("SessionDecl", "population"),
            ("SessionDecl", "group_count"),
            ("SessionDecl", "key_bits"),
            ("CohortDecl", "attack"),
            ("CohortDecl", "churn"),
            ("CohortDecl", "cohorts"),
        }


class TestSpelledOnce:
    def test_codec_and_interpreter_name_no_declaration_field(self):
        """Adding a field must not mean editing a decoder or ``from_spec``."""
        names = {
            field.name
            for cls in (SessionDecl, CohortDecl, TcpDecl, CbrDecl)
            for field in dataclasses.fields(cls)
        }
        for function in (
            ScenarioSpec.from_dict,
            ScenarioSpec.to_dict,
            CohortDecl.from_dict,
            Scenario.from_spec,
        ):
            words = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", inspect.getsource(function)))
            assert not names & words, (function.__qualname__, names & words)

    def test_a_subclass_field_round_trips_untouched(self):
        @dataclasses.dataclass(frozen=True)
        class Annotated(SessionDecl):
            note: Optional[str] = unset()
            weight: float = 1.0

        plain = Annotated("s", receivers=2)
        assert "note" not in plain.to_dict() and plain.to_dict()["weight"] == 1.0
        noted = Annotated("s", receivers=2, note="hello", weight=3)
        assert noted.to_dict()["note"] == "hello"
        assert Annotated.from_dict(noted.to_dict()) == noted
        assert decode(Annotated, {"session_id": "s", "attacks": []}) == Annotated("s")
        with pytest.raises(TypeError, match="Annotated.weight: expected float"):
            Annotated.from_dict({"session_id": "s", "weight": "3"})


# ----------------------------------------------------------------------
# the codec as trust boundary: wrongly-typed wire specs die at decode
# ----------------------------------------------------------------------
def _wire_spec() -> dict:
    """A valid wire document with every nesting level present."""
    spec = ScenarioSpec(
        name="wire",
        protected=True,
        sessions=(
            SessionDecl(
                "mc",
                receivers=2,
                attacks=(AttackSpec("churn", start_s=2.0),),
                population=(CohortDecl(10, churn=ChurnProcess(burst=((1.0, 5),))),),
            ),
        ),
        tcp=(TcpDecl("t"),),
        cbr=(CbrDecl(active_window=(1.0, 2.0)),),
        duration_s=6.0,
    )
    return json.loads(spec.to_json())


def _set(path, value):
    def mutate(document):
        *parents, last = path
        for key in parents:
            document = document[key]
        document[last] = value

    return mutate


HOSTILE = {
    "receivers-float": (_set(("sessions", 0, "receivers"), 1.5), TypeError),
    "receivers-bool": (_set(("sessions", 0, "receivers"), True), TypeError),
    "duration-string": (_set(("duration_s",), "5"), TypeError),
    "count-string": (_set(("sessions", 0, "population", 0, "count"), "7"), TypeError),
    "shards-float": (_set(("shards",), 2.0), TypeError),
    "protected-int": (_set(("protected",), 1), TypeError),
    "name-null": (_set(("name",), None), TypeError),
    "sessions-mapping": (_set(("sessions",), {}), TypeError),
    "sessions-string": (_set(("sessions",), "mc"), TypeError),
    "session-not-mapping": (_set(("sessions", 0), ["mc"]), TypeError),
    "topology-params-list": (_set(("topology_params",), [1]), TypeError),
    "attack-params-string": (
        _set(("sessions", 0, "attacks", 0, "params"), "x"),
        TypeError,
    ),
    "attack-receivers-float": (
        _set(("sessions", 0, "attacks", 0, "receivers"), [0.0]),
        TypeError,
    ),
    "burst-not-pairs": (
        _set(("sessions", 0, "population", 0, "churn", "burst"), [[1.0, 5, 9]]),
        ValueError,
    ),
    "window-too-short": (_set(("cbr", 0, "active_window"), [1.0]), ValueError),
    "seed-float": (_set(("seed",), 1.5), TypeError, "ScenarioSpec.seed"),
    "seed-bool": (_set(("seed",), True), TypeError, "ScenarioSpec.seed"),
    "group-count-zero": (
        _set(("sessions", 0, "group_count"), 0), ValueError, "SessionDecl.group_count"
    ),
    "group-count-21": (
        _set(("sessions", 0, "group_count"), 21), ValueError, "SessionDecl.group_count"
    ),
    "group-count-bool": (
        _set(("sessions", 0, "group_count"), True), TypeError, "SessionDecl.group_count"
    ),
    "key-bits-zero": (_set(("sessions", 0, "key_bits"), 0), ValueError, "SessionDecl.key_bits"),
    "key-bits-61": (_set(("sessions", 0, "key_bits"), 61), ValueError, "SessionDecl.key_bits"),
    "protocol-4-config": (
        _set(("config",), PROTOCOL_4_CONFIG), TypeError, "ScenarioSpec got unknown keys ['config']"
    ),
    "spec-unknown-key": (_set(("durration_s",), 5), TypeError),
    "session-unknown-key": (_set(("sessions", 0, "recievers"), 3), TypeError),
    "cohort-unknown-key": (_set(("sessions", 0, "population", 0, "colour"), "red"), TypeError),
    "attack-unknown-key": (_set(("sessions", 0, "attacks", 0, "strategi"), "churn"), TypeError),
    "churn-unknown-key": (
        _set(("sessions", 0, "population", 0, "churn", "arival_rate"), 1.0),
        TypeError,
    ),
    "tcp-unknown-key": (_set(("tcp", 0, "start"), 1.0), TypeError),
    "unknown-topology": (_set(("topology",), "nope"), ValueError),
    "unknown-topology-param": (_set(("topology_params",), {"hopz": 3}), TypeError),
    "nan-bottleneck": (
        _set(("topology_params",), {"bottleneck_bandwidth_bps": float("nan")}),
        ValueError,
    ),
    "huge-bottleneck": (
        _set(("topology_params",), {"bottleneck_bandwidth_bps": 10**400}),
        ValueError,
    ),
    "huge-access-delay": (_set(("topology_params",), {"access_delay_s": 10**400}), ValueError),
    "huge-tree": (
        lambda document: document.update(topology="binary-tree", topology_params={"depth": 40}),
        ValueError,
    ),
    "huge-parking-lot": (
        lambda document: document.update(topology="parking-lot", topology_params={"hops": 10**9}),
        ValueError,
    ),
    "shards-without-regions": (_set(("shards",), 4), ValueError),
    "out-of-range-target": (
        _set(("sessions", 0, "attacks", 0, "receivers"), [5]),
        ValueError,
    ),
}


#: The dumbbell-only keys spec documents carried before every topology was
#: sized through ``topology_params`` (spelled in two parts so
#: ``tests/docs/test_deleted_code.py`` finds no name coming back).
RETIRED_SPEC_KEYS = ("expected_" "sessions", "bottleneck_" "bps")


class TestDecodeRejectsWronglyTypedSpecs:
    def test_the_unmutated_document_decodes(self):
        document = _wire_spec()
        assert ScenarioSpec.from_dict(document).to_json() == canonical_json(document)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_wrongly_typed_value_raises_at_decode(self, case):
        mutate, error, *named = HOSTILE[case]
        document = _wire_spec()
        mutate(document)
        with pytest.raises(error, match=re.escape(named[0]) if named else None):
            ScenarioSpec.from_dict(document)

    def test_error_names_the_field(self):
        document = _wire_spec()
        document["sessions"][0]["population"][0]["count"] = "7"
        with pytest.raises(TypeError) as raised:
            ScenarioSpec.from_dict(document)
        message = str(raised.value)
        assert "ScenarioSpec.sessions" in message
        assert "CohortDecl.count: expected int, got str '7'" in message

    def test_missing_required_key_is_a_key_error(self):
        document = _wire_spec()
        del document["sessions"][0]["session_id"]
        with pytest.raises(KeyError, match="SessionDecl.session_id"):
            ScenarioSpec.from_dict(document)
        with pytest.raises(TypeError, match="must be a mapping"):
            ScenarioSpec.from_dict(["not", "a", "spec"])

    def test_json_integer_is_a_legal_float_and_is_not_coerced(self):
        document = _wire_spec()
        document["duration_s"] = 6
        document["sessions"][0]["attacks"][0]["start_s"] = 2
        document["cbr"][0]["rate_bps"] = 100000
        spec = ScenarioSpec.from_dict(document)
        assert spec == ScenarioSpec.from_dict(_wire_spec())
        assert json.loads(spec.to_json()) == document
        assert '"duration_s":6,' in spec.to_json()

    def test_unknown_keys_are_refused_on_declarations(self):
        """A misspelt key used to be dropped: ``"durration_s": 5`` ran the
        full 200 s and ``"recievers": 3`` gave one receiver."""
        document = _wire_spec()
        document["durration_s"] = 5
        with pytest.raises(TypeError, match=r"ScenarioSpec got unknown keys \['durration_s'\]"):
            ScenarioSpec.from_dict(document)
        document = _wire_spec()
        document["sessions"][0]["recievers"] = 3
        with pytest.raises(TypeError, match=r"SessionDecl got unknown keys \['recievers'\]"):
            ScenarioSpec.from_dict(document)

    def test_a_spec_document_with_retired_dumbbell_keys_is_refused(self):
        """A document written before the dumbbell became one more topology
        names the keys it carried; it is never re-sized to 250 kbps."""
        document = _wire_spec()
        document.update(dict.fromkeys(RETIRED_SPEC_KEYS, 4))
        document["config"] = dict(
            PROTOCOL_4_CONFIG,
            bottleneck_delay_s=0.02,
            access_bandwidth_bps=10_000_000.0,
            access_delay_s=0.01,
            buffer_bdp_multiple=2.0,
        )
        with pytest.raises(TypeError) as raised:
            ScenarioSpec.from_dict(document)
        assert f"unknown keys {sorted([*RETIRED_SPEC_KEYS, 'config'])}" in str(raised.value)
        for key in RETIRED_SPEC_KEYS:
            del document[key]
        with pytest.raises(TypeError, match=re.escape("ScenarioSpec got unknown keys ['config']")):
            ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize(
        "params",
        [{"period_s": "soon"}, {"nested": {"deep": [1, 2.5, None]}}, {"duty": True}],
    )
    def test_attack_params_are_checked_against_the_strategy(self, params):
        """Attack params used to be a free-form mapping: ``"soon"`` was
        admitted and crashed a worker, a misspelt key ran the default."""
        document = _wire_spec()
        document["sessions"][0]["attacks"][0]["params"] = params
        with pytest.raises(ValueError, match=r"AttackSpec\.params"):
            ScenarioSpec.from_dict(document)

    def test_free_form_mappings_are_not_inspected(self):
        metrics = {"nested": {"deep": [1, 2.5, None]}, "flag": True}
        result = RunResult(scenario="r", seed=0, protected=True, duration_s=1.0, metrics=metrics)
        assert RunResult.from_json(result.to_json()).metrics == metrics

    def test_results_decode_through_the_same_walk(self):
        result = RunResult(
            scenario="r", seed=3, protected=True, duration_s=5.0, metrics={"m": [1]}
        )
        assert RunResult.from_json(result.to_json()) == result
        for key, value in (("seed", "3"), ("metrics", [1]), ("duration_s", None)):
            with pytest.raises(TypeError, match=f"RunResult.{key}"):
                RunResult.from_dict({**result.to_dict(), key: value})
