"""Determinism guard for the engine, interpreter and runner.

The contract the result cache and the parallel runner rely on: an identical
``ScenarioSpec`` (including its ``seed``) produces a
byte-identical serialised result — across repeated runs in one process, and
across the serial versus process-pool execution paths.  The multicast
forwarding plane replicates in host-address order (not set order) precisely
so this holds across processes.
"""

import pytest

from repro.adversary import AttackSpec, paper_attacker
from repro.experiments import (
    CohortDecl,
    ExperimentRunner,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    execute_spec,
)

def dumbbell_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="determinism-dumbbell",
        protected=True,
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl(
                "mc", receivers=2, attacks=paper_attacker(True, start_s=2.0, receivers=(1,))
            ),
        ),
        tcp=(TcpDecl("t1"),),
        duration_s=6.0,
        record_series=True,
    )


def cohort_spec() -> ScenarioSpec:
    """A cohort-backed audience plus an individual attacker (PR 4 surface)."""
    return ScenarioSpec(
        name="determinism-cohort",
        protected=True,
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl(
                "audience",
                receivers=0,
                population=(CohortDecl(400),),
            ),
            SessionDecl("rogue", receivers=1, attacks=paper_attacker(True, start_s=2.0)),
        ),
        duration_s=6.0,
    )


def vector_spec() -> ScenarioSpec:
    """Columnar vector blocks on a multi-edge dumbbell (PR 6 surface)."""
    from repro.experiments import scenario_spec

    spec = scenario_spec(
        "scale-dumbbell-1m",
        receivers=600,
        cohorts=12,
        attackers=40,
        attacker_cohorts=8,
        edges=4,
        duration_s=6.0,
        attack_start_s=2.0,
    )
    return spec


def parking_lot_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="determinism-parking-lot",
        protected=False,
        topology="parking-lot",
        topology_params={"hops": 2, "bottleneck_bandwidth_bps": 500_000.0},
        sessions=(SessionDecl("mc", receivers=2, receiver_routers=("r1", "r2")),),
        duration_s=6.0,
    )


@pytest.mark.parametrize(
    "make_spec", [dumbbell_spec, cohort_spec, vector_spec, parking_lot_spec]
)
def test_identical_spec_and_seed_reproduce_byte_identical_results(make_spec):
    """Two in-process executions of the same spec serialise identically."""
    first = execute_spec(make_spec()).to_json()
    second = execute_spec(make_spec()).to_json()
    assert first == second


def test_spec_canonical_json_is_reproducible():
    assert dumbbell_spec().to_json() == dumbbell_spec().to_json()
    assert parking_lot_spec().to_json() == parking_lot_spec().to_json()


def test_serial_and_parallel_runner_paths_are_byte_identical():
    """The process-pool path must reproduce the serial path exactly.

    This is the cross-process half of the guarantee: worker processes have
    their own hash seeds and object identities, so any iteration-order
    dependence in the forwarding plane would show up here.
    """
    seeds = (0, 1)
    serial = ExperimentRunner(jobs=1).run_seed_sweep(dumbbell_spec(), seeds)
    parallel = ExperimentRunner(jobs=2).run_seed_sweep(dumbbell_spec(), seeds)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_serial_and_parallel_paths_agree_for_cohort_specs():
    """Cohort-backed populations survive the worker-process round trip."""
    seeds = (0, 1)
    serial = ExperimentRunner(jobs=1).run_seed_sweep(cohort_spec(), seeds)
    parallel = ExperimentRunner(jobs=2).run_seed_sweep(cohort_spec(), seeds)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    assert serial[0].metrics["multicast"]["audience"]["population"] == 400


def test_serial_and_parallel_paths_agree_for_vector_specs():
    """Columnar vector blocks survive the worker-process round trip.

    The block allocation order, the round-robin row placement over the edge
    routers and the bulk booking order are all deterministic functions of
    the spec, so the process-pool path must be byte-identical to the serial
    one.
    """
    seeds = (0, 1)
    serial = ExperimentRunner(jobs=1).run_seed_sweep(vector_spec(), seeds)
    parallel = ExperimentRunner(jobs=2).run_seed_sweep(vector_spec(), seeds)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    assert serial[0].metrics["multicast"]["audience"]["population"] == 600


def attack_grid_specs():
    """An attacker-type × intensity grid, as the runner would sweep it."""
    specs = []
    for strategy, intensity in (("key-guessing", 1.0), ("key-guessing", 3.0), ("churn", 2.0)):
        specs.append(
            ScenarioSpec(
                name=f"determinism-{strategy}-{intensity}",
                protected=True,
                topology_params={"bottleneck_bandwidth_bps": 500_000.0},
                sessions=(
                    SessionDecl(
                        "atk",
                        receivers=1,
                        attacks=(
                            AttackSpec(strategy, start_s=2.0, intensity=intensity),
                        ),
                    ),
                    SessionDecl("hon", receivers=1),
                ),
                duration_s=6.0,
            )
        )
    return specs


def test_attack_grid_serial_and_parallel_paths_are_byte_identical():
    """Adversary scenarios satisfy the same cross-process guarantee.

    Strategy randomness flows through per-strategy named streams, so the
    process-pool path must reproduce the serial path byte for byte across an
    attacker-type × intensity grid.
    """
    specs = attack_grid_specs()
    serial = ExperimentRunner(jobs=1).run(specs)
    parallel = ExperimentRunner(jobs=2).run(specs)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def scale_attack_specs():
    """Reduced variants of the adversarial-cohort / flash-crowd scenarios."""
    from repro.experiments import scenario_spec

    return [
        scenario_spec(
            "attack-inflated-100k",
            receivers=300, attackers=3, duration_s=8.0, attack_start_s=2.0
        ),
        scenario_spec(
            "attack-keys-100k",
            receivers=300, replayers=3, guessers=3, duration_s=8.0, attack_start_s=2.0
        ),
        scenario_spec(
            "attack-collusion-100k",
            receivers=300, publishers=3, exploiters=3, duration_s=8.0, attack_start_s=2.0
        ),
        scenario_spec(
            "attack-churn-flash-crowd",
            initial=30, surge=270, surge_at_s=4.0, attack_start_s=2.0, duration_s=8.0
        ),
        scenario_spec(
            "scale-protection",
            audience=200,
            attacker_fraction=0.05,
            strategy="key-guessing",
            duration_s=8.0,
            attack_start_s=2.0,
        ),
    ]


def test_scale_attack_serial_and_parallel_paths_are_byte_identical():
    """Adversarial cohorts and churned populations keep the cross-process
    guarantee: their dynamics are deterministic functions of the spec."""
    specs = scale_attack_specs()
    serial = ExperimentRunner(jobs=1).run(specs)
    parallel = ExperimentRunner(jobs=2).run(specs)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


def test_different_seeds_actually_differ():
    """A sanity check that the seed reaches the experiment at all."""
    base = dumbbell_spec()
    results = ExperimentRunner(jobs=1).run_seed_sweep(base, (0, 1))
    assert results[0].metrics != results[1].metrics
