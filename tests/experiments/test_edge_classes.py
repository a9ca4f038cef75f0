"""Interchangeable edges are one edge: the class build == the edge-by-edge build.

:meth:`Scenario.from_spec` realises every class of interchangeable receiver
edges (:func:`~repro.experiments.scenario.interchangeable_edges`) as the
class's first edge carrying the rows of the whole class, and reports the
class edge by edge.  ``Scenario.from_spec(spec, ())`` names no class and
builds every declared edge, which makes it the oracle: for every spec here
the metric document of the class build must equal the edge-by-edge one,
float for float.
"""

import dataclasses

import pytest

from repro.adversary import AttackSpec
from repro.experiments import (
    CohortDecl,
    ExperimentRunner,
    Scenario,
    SessionDecl,
    execute_spec,
    plan_prefix,
    scenario_spec,
)
from repro.experiments.attacks import duel_spec
from repro.experiments.metrics import collect_metrics
from repro.experiments.scenario import interchangeable_edges

DURATION_S = 12.0
ATTACK_START_S = 6.0


def edge_by_edge(spec):
    """``spec`` realised with no class of edges: every edge built."""
    return Scenario.from_spec(spec, ())


def assert_matches_oracle(spec):
    """Run ``spec`` both ways; the metric documents must be equal."""
    built = Scenario.from_spec(spec)
    built.run()
    oracle = edge_by_edge(spec)
    oracle.run()
    assert collect_metrics(built, spec) == collect_metrics(oracle, spec)
    return built, oracle


def duel(edges, receivers=1000, cohorts=13, attackers=10, attacker_cohorts=3, **kwargs):
    """The vector flagship, small: row counts that need not divide ``edges``."""
    return scenario_spec(
        "scale-dumbbell-1m",
        receivers=receivers,
        cohorts=cohorts,
        attackers=attackers,
        attacker_cohorts=attacker_cohorts,
        edges=edges,
        attack_start_s=ATTACK_START_S,
        duration_s=DURATION_S,
        **kwargs,
    )


def vector_attackers(strategy, edges, count=12, cohorts=None, **block):
    """A spec whose attacker population mounts ``strategy`` as a vector block."""
    params = {"pool": "p"} if strategy == "collusion" else {}
    attack = AttackSpec(strategy, start_s=ATTACK_START_S, params=params)
    return duel_spec(
        "edge-classes",
        (
            SessionDecl(
                "audience",
                receivers=0,
                population=(CohortDecl(1000, model="vector", cohorts=2 * edges),),
            ),
            SessionDecl(
                "attackers",
                receivers=0,
                population=(
                    CohortDecl(
                        count, model="vector", cohorts=cohorts or edges, attack=attack, **block
                    ),
                ),
            ),
        ),
        True,
        DURATION_S,
        topology="multi-edge-dumbbell",
        topology_params={"edges": edges, "bottleneck_bandwidth_bps": 500_000.0},
    )


@pytest.mark.parametrize("protected", [True, False], ids=["flid-ds", "flid-dl"])
@pytest.mark.parametrize("edges", range(1, 9))
def test_class_build_equals_edge_by_edge(edges, protected):
    spec = dataclasses.replace(duel(edges, protected=protected), record_series=True)
    built, oracle = assert_matches_oracle(spec)
    # 13 audience rows and 3 attacker rows over E edges: the edges past the
    # third carry audience rows only, and those past the 13th nothing.
    classes = interchangeable_edges(spec)
    assert sum(map(len, classes)) - len(classes) == len(oracle.network.spec.routers) - len(
        built.network.spec.routers
    )
    if edges >= 5:
        assert classes, "edges 4.. carry the same blocks and must form a class"
    assert all(len(members) > 1 for members in classes)


def test_uneven_duel_has_three_classes():
    spec = duel(8, cohorts=4, attacker_cohorts=2)
    assert interchangeable_edges(spec) == (
        ("edge1", "edge2"),
        ("edge3", "edge4"),
        ("edge5", "edge6", "edge7", "edge8"),
    )
    built, _ = assert_matches_oracle(spec)
    assert built.network.spec.receiver_routers == ("edge1", "edge3", "edge5")


def test_attacker_pinned_to_one_edge_keeps_it_apart():
    spec = vector_attackers("inflated-join", edges=4, router="edge2")
    classes = interchangeable_edges(spec)
    assert classes == (("edge1", "edge3", "edge4"),)
    assert_matches_oracle(spec)


@pytest.mark.parametrize("strategy", ["key-guessing", "collusion"])
def test_randomised_and_shared_stacks_keep_every_edge(strategy):
    spec = vector_attackers(strategy, edges=4)
    assert interchangeable_edges(spec) == ()
    assert_matches_oracle(spec)


@pytest.mark.parametrize("strategy", ["key-guessing", "collusion"])
def test_only_the_edges_behind_such_stacks_stay_apart(strategy):
    # Two attacker rows over six edges: edges 3-6 carry audience rows only.
    spec = vector_attackers(strategy, edges=6, cohorts=2)
    assert interchangeable_edges(spec) == (("edge3", "edge4", "edge5", "edge6"),)
    assert_matches_oracle(spec)


def test_a_key_guessing_cell_does_not_reuse_a_collapsed_prefix():
    """The placeholder prefix of both cells is the same spec; their edges are not."""
    guessing = plan_prefix(vector_attackers("key-guessing", edges=4))
    joining = plan_prefix(vector_attackers("inflated-join", edges=4))
    assert guessing.spec == joining.spec
    assert guessing.edge_classes == ()
    assert joining.edge_classes == (("edge1", "edge2", "edge3", "edge4"),)
    assert guessing.checkpoint_key() != joining.checkpoint_key()


def test_warm_equals_cold_for_a_multi_edge_cell(tmp_path):
    cells = [
        vector_attackers(strategy, edges=4).with_seed(seed)
        for strategy in ("inflated-join", "key-guessing")
        for seed in (1, 2)
    ]
    runner = ExperimentRunner(jobs=1, cache_dir=tmp_path, warm_start=True)
    warm = runner.run(cells)
    assert runner.warm_runs == len(cells)
    assert [result.to_json() for result in warm] == [
        execute_spec(cell).to_json() for cell in cells
    ]


def test_sharded_runs_keep_every_edge():

    sharded = scenario_spec("scale-dumbbell-10m", receivers=10_000, cohorts=64, attackers=100,
                                      attacker_cohorts=16, duration_s=4.0)
    assert interchangeable_edges(sharded) == ()
    unsharded = dataclasses.replace(sharded, shards=None)
    assert interchangeable_edges(unsharded)


def test_full_flagship_runs_the_events_of_its_one_edge_twin():
    spec = scenario_spec("scale-dumbbell-1m")
    flagship = Scenario.from_spec(spec)
    flagship.run()
    twin = Scenario.from_spec(scenario_spec("scale-dumbbell-1m", edges=1))
    twin.run()
    assert flagship.network.sim.events_executed == twin.network.sim.events_executed
    metrics = collect_metrics(flagship, spec)
    assert metrics["sigma"]["edge_agents"] == 32
    assert len(metrics["multicast"]["audience"]["receiver_population"]) == 32
