"""Tests of the declarative scenario spec layer and the named registry."""

import dataclasses
import inspect
import json
import re
from typing import Optional

import pytest

from repro.adversary import AttackSpec
from repro.experiments import (
    PAPER_DEFAULTS,
    CbrDecl,
    ChurnProcess,
    CohortDecl,
    ExperimentConfig,
    RunResult,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    inflated_subscription_spec,
    list_scenarios,
    scenario_entry,
    scenario_spec,
    throughput_vs_sessions_spec,
)
from repro.experiments.spec import canonical_json, decode, encode, unset


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
                misbehaving=(1,),
                attack_start_s=10.0,
                receiver_start_times=(0.0, 5.0),
                receiver_access_delays=(None, 0.02),
                receiver_routers=("r1", None),
            ),
        ),
        tcp=(TcpDecl("t1", start_s=1.0, receiver_router="r2"),),
        cbr=(CbrDecl("burst", rate_bps=50_000.0, active_window=(5.0, 9.0)),),
        duration_s=20.0,
        config=PAPER_DEFAULTS.with_seed(3),
    )


class TestSerialisation:
    def test_json_roundtrip_is_identity(self):
        spec = _rich_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_canonical_json_is_stable(self):
        spec = _rich_spec()
        assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()

    def test_with_seed_only_changes_config_seed(self):
        spec = _rich_spec()
        reseeded = spec.with_seed(9)
        assert reseeded.config.seed == 9
        assert reseeded.with_seed(3) == spec

    def test_effective_duration_falls_back_to_config(self):
        spec = ScenarioSpec(name="d", protected=False, sessions=(SessionDecl("a"),))
        assert spec.effective_duration_s == PAPER_DEFAULTS.duration_s
        assert spec.with_duration(7.0).effective_duration_s == 7.0


class TestValidation:
    def test_misbehaving_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SessionDecl("bad", receivers=1, misbehaving=(2,))

    def test_per_receiver_lists_must_match_count(self):
        with pytest.raises(ValueError, match="one entry per receiver"):
            SessionDecl("bad", receivers=2, receiver_start_times=(0.0,))


class TestRegistry:
    def test_paper_figures_registered(self):
        names = {entry.name for entry in list_scenarios()}
        assert {
            "figure1-attack",
            "figure7-defence",
            "figure8-throughput",
            "figure8-responsiveness",
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
        assert spec.expected_sessions == 12

    def test_registered_specs_serialise(self):
        for entry in list_scenarios():
            spec = entry.build()
            assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestInterpreter:
    def test_from_spec_builds_figure1_layout(self):
        spec = inflated_subscription_spec(protected=False, duration_s=10.0)
        scenario = Scenario.from_spec(spec)
        assert [s.spec.session_id for s in scenario.sessions] == ["F1", "F2"]
        assert [c.sender.name for c in scenario.tcp_connections] == ["T1", "T2"]
        assert scenario.network.spec.kind == "dumbbell"
        # 4 competing sessions at the 250 Kbps fair share -> 1 Mbps bottleneck.
        assert scenario.network.bottleneck.bandwidth_bps == pytest.approx(1_000_000.0)

    def test_from_spec_matches_imperative_builder(self):
        config = PAPER_DEFAULTS.with_duration(8.0)
        spec = throughput_vs_sessions_spec(
            protected=False, count=2, config=config, duration_s=8.0
        )
        declarative = Scenario.from_spec(spec)
        declarative.run(8.0)

        imperative = Scenario(config, protected=False, expected_sessions=2)
        for i in range(2):
            imperative.add_multicast_session(f"mc{i + 1}")
        imperative.run(8.0)

        assert declarative.multicast_average_kbps(2.0, 8.0) == pytest.approx(
            imperative.multicast_average_kbps(2.0, 8.0)
        )

    def test_dumbbell_topology_params_reach_the_network(self):
        spec = ScenarioSpec(
            name="dumbbell-params",
            protected=False,
            topology="dumbbell",
            topology_params={"seed": 42, "bottleneck_delay_s": 0.005},
            sessions=(SessionDecl("mc"),),
            duration_s=5.0,
        )
        scenario = Scenario.from_spec(spec)
        assert scenario.network.random.seed == 42
        assert scenario.network.bottleneck.delay_s == pytest.approx(0.005)
        # The parameterised dumbbell still exposes the DumbbellNetwork surface.
        assert scenario.network.right is scenario.network.edge_router

    def test_unknown_dumbbell_parameter_rejected(self):
        spec = ScenarioSpec(
            name="dumbbell-bad",
            protected=False,
            topology="dumbbell",
            topology_params={"hops": 3},
            sessions=(SessionDecl("mc"),),
        )
        with pytest.raises(TypeError, match="unknown dumbbell parameter"):
            Scenario.from_spec(spec)

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
            "churn": ChurnProcess(burst=((1.0, 5),)).to_dict(),
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
    ScenarioSpec: ScenarioSpec(
        name="base", protected=False, sessions=(SessionDecl("s"),)
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
        topology="parking-lot",
        topology_params={"hops": 2, "nested": {"deep": [1, 2.5, None]}},
        expected_sessions=3,
        bottleneck_bps=1_000_000.0,
        duration_s=9.0,
        record_series=True,
        shards=4,
        config=PAPER_DEFAULTS.with_seed(5),
    ),
    SessionDecl: dict(
        session_id="other",
        receivers=3,
        misbehaving=(1,),
        attack_start_s=3.0,
        attacks=(AttackSpec("churn", receivers=(1,)),),
        receiver_start_times=(0.0, 1.0),
        receiver_access_delays=(None, 0.02),
        receiver_routers=("r1", None),
        track_overhead=True,
        suppress_unsubscribed_groups=False,
        population=(CohortDecl(5), CohortDecl(6, model="vector")),
    ),
    CohortDecl: dict(
        count=7,
        router="r1",
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
        params={"period_s": 2.0},
    ),
    ChurnProcess: dict(
        arrival_rate=1.5, departure_rate=0.5, burst=((1.0, 5), (2.0, -3))
    ),
}
# The config is all numbers: sample every knob as "default plus one".
BASES[ExperimentConfig] = PAPER_DEFAULTS
SAMPLES[ExperimentConfig] = {
    field.name: getattr(PAPER_DEFAULTS, field.name) + 1
    for field in dataclasses.fields(ExperimentConfig)
}

FIELD_CASES = [
    (cls, name) for cls, samples in SAMPLES.items() for name in sorted(samples)
]


def _embedded(declaration) -> ScenarioSpec:
    """A spec carrying ``declaration`` wherever its class nests."""
    base = BASES[ScenarioSpec]
    if isinstance(declaration, ScenarioSpec):
        return declaration
    if isinstance(declaration, ExperimentConfig):
        return dataclasses.replace(base, config=declaration)
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
        assert decode(Annotated, {"session_id": "s", "misbehaving": []}) == Annotated("s")
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
    "config-seed-float": (_set(("config", "seed"), 1.5), TypeError),
    "config-unknown-key": (_set(("config", "sede"), 3), TypeError),
    "config-not-mapping": (_set(("config",), 7), TypeError),
    "out-of-range-target": (
        _set(("sessions", 0, "attacks", 0, "receivers"), [5]),
        ValueError,
    ),
}


class TestDecodeRejectsWronglyTypedSpecs:
    def test_the_unmutated_document_decodes(self):
        document = _wire_spec()
        assert ScenarioSpec.from_dict(document).to_json() == canonical_json(document)

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_wrongly_typed_value_raises_at_decode(self, case):
        mutate, error = HOSTILE[case]
        document = _wire_spec()
        mutate(document)
        with pytest.raises(error):
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
        document["config"]["fair_share_bps"] = 250000
        spec = ScenarioSpec.from_dict(document)
        assert spec == ScenarioSpec.from_dict(_wire_spec())
        assert json.loads(spec.to_json()) == document
        assert '"duration_s":6,' in spec.to_json()

    def test_unknown_keys_are_ignored_on_declarations(self):
        document = _wire_spec()
        document["comment"] = "from a newer build"
        document["sessions"][0]["model"] = "cohort"
        document["sessions"][0]["population"][0]["colour"] = "red"
        assert ScenarioSpec.from_dict(document) == ScenarioSpec.from_dict(_wire_spec())

    def test_free_form_mappings_are_not_inspected(self):
        document = _wire_spec()
        document["topology_params"] = {"anything": [1, "two", {"three": None}]}
        document["sessions"][0]["attacks"][0]["params"] = {"period_s": "soon"}
        spec = ScenarioSpec.from_dict(document)
        assert json.loads(spec.to_json()) == document

    def test_results_decode_through_the_same_walk(self):
        result = RunResult(
            scenario="r", seed=3, protected=True, duration_s=5.0, metrics={"m": [1]}
        )
        assert RunResult.from_json(result.to_json()) == result
        for key, value in (("seed", "3"), ("metrics", [1]), ("duration_s", None)):
            with pytest.raises(TypeError, match=f"RunResult.{key}"):
                RunResult.from_dict({**result.to_dict(), key: value})
