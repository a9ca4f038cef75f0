"""Count fields take integers only: a boolean or a float is refused by name.

Python lets ``True`` pass for ``1`` and ``range(2.0)`` fail with a message
naming no field, so a count declared as ``True`` once built a one-edge
dumbbell in silence and ``depth=2.0`` died inside the builder.  Every count
a declaration or a topology factory reads is refused when the spec is
declared, with a :class:`ValueError` naming the field, and a registered
builder's count parameter before the builder runs, with a :class:`TypeError`
naming the parameter; the CLI turns either into an ``error:`` line and exit
status 2.
"""

import pytest

from repro.experiments import CohortDecl, ScenarioSpec, SessionDecl, scenario_spec
from repro.simulator.topology import build_topology


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: CohortDecl(True), "CohortDecl.count"),
        (lambda: CohortDecl(2.0), "CohortDecl.count"),
        (lambda: CohortDecl(10, cohorts=2.5), "CohortDecl.cohorts"),
        (lambda: CohortDecl(10, cohorts=True), "CohortDecl.cohorts"),
        (lambda: SessionDecl("a", receivers=2.0), "SessionDecl.receivers"),
        (lambda: SessionDecl("a", receivers=True), "SessionDecl.receivers"),
    ],
    ids=["count-bool", "count-float", "cohorts-float", "cohorts-bool",
         "receivers-float", "receivers-bool"],
)
def test_declarations_refuse_non_integer_counts(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize(
    "scenario, param, value",
    [
        ("scale-dumbbell-1m", "edges", True),
        ("scale-dumbbell-1m", "edges", 1.5),
        ("parking-lot-attack", "hops", True),
        ("star-fanout", "arms", True),
        ("tree-convergence", "depth", 2.0),
        ("scale-dumbbell-10k", "cohorts", 2.0),
    ],
)
def test_builders_refuse_non_integer_counts(scenario, param, value):
    with pytest.raises(TypeError, match=f"scenario {scenario!r}: {param}: expected int"):
        scenario_spec(scenario, **{param: value})


@pytest.mark.parametrize(
    "kind, param, value",
    [
        ("multi-edge-dumbbell", "edges", True),
        ("multi-edge-dumbbell", "edges", 1.5),
        ("parking-lot", "hops", True),
        ("star", "arms", True),
        ("binary-tree", "depth", 2.0),
        ("sharded-dumbbell", "regions", True),
        ("sharded-dumbbell", "edges_per_region", 2.0),
        ("sharded-dumbbell", "region", True),
    ],
)
def test_topologies_refuse_non_integer_sizes(kind, param, value):
    with pytest.raises(ValueError, match=f"{param} must be an integer"):
        build_topology(kind, **{param: value})
    with pytest.raises(ValueError, match=f"{param} must be an integer"):
        ScenarioSpec.from_dict(
            {
                **ScenarioSpec(name="s", protected=False, sessions=(SessionDecl("a"),)).to_dict(),
                "topology": kind,
                "topology_params": {param: value},
            }
        )


@pytest.mark.parametrize(
    "scenario, param",
    [
        ("scale-dumbbell-1m", "edges=true"),
        ("scale-dumbbell-1m", "edges=1.5"),
        ("parking-lot-attack", "hops=true"),
        ("star-fanout", "arms=true"),
        ("tree-convergence", "depth=2.0"),
    ],
)
def test_cli_exits_2_naming_the_count(scenario, param, capsys):
    from repro.__main__ import main

    assert main(["run", scenario, "--param", param, "--duration", "1"]) == 2
    name = param.partition("=")[0]
    assert f"error: scenario {scenario!r}: {name}: expected int" in capsys.readouterr().err
