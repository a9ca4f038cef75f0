"""Region-sharded execution: planner validation, determinism, merge.

The contract under test (``docs/determinism.md``, ``docs/scale.md``):

* :func:`repro.experiments.plan_shards` rejects every spec whose physics
  could couple regions (cross traffic, global placement cursors,
  whole-session accumulators) with actionable errors;
* the vector-row re-split is exact — each region's sub-blocks reproduce the
  original ``split_counts`` rows on the original edge routers;
* running the regions serially or on the process pool yields byte-identical
  merged results, and those results match the *unsharded* run of the same
  spec metric for metric (the boundary summary is the one sharding-only
  block);
* merged documents cache like any other result.
"""

from dataclasses import replace

import json

import pytest

from repro.adversary import AttackSpec
from repro.experiments import (
    PAPER_DEFAULTS,
    CbrDecl,
    CohortDecl,
    ExperimentRunner,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    plan_shards,
)
from repro.experiments.shard import (
    merge_boundary_events,
    merge_region_results,
    region_payloads,
    run_region_json,
)
from repro.multicast_cc.population import split_counts

DURATION_S = 10.0
ATTACK_START_S = 6.0
AUDIENCE = 200
AUDIENCE_COHORTS = 8
ATTACKERS = 40
ATTACKER_COHORTS = 4


def sharded_spec(**overrides) -> ScenarioSpec:
    """A small 2-region sharded scenario with an adversarial cohort."""
    fields = {
        "name": "shard-test",
        "protected": True,
        "topology": "sharded-dumbbell",
        "topology_params": {"regions": 2, "edges_per_region": 2},
        "shards": 2,
        "duration_s": DURATION_S,
        "sessions": (
            SessionDecl(
                "mc",
                receivers=0,
                population=(
                    CohortDecl(AUDIENCE, model="vector", cohorts=AUDIENCE_COHORTS),
                    CohortDecl(
                        ATTACKERS,
                        model="vector",
                        cohorts=ATTACKER_COHORTS,
                        attack=AttackSpec("inflated-join", start_s=ATTACK_START_S),
                    ),
                ),
            ),
        ),
        "config": PAPER_DEFAULTS,
    }
    fields.update(overrides)
    return ScenarioSpec(**fields)


@pytest.fixture(scope="module")
def spec() -> ScenarioSpec:
    return sharded_spec()


@pytest.fixture(scope="module")
def serial_result(spec):
    return ExperimentRunner(jobs=1).run_one(spec)


# ----------------------------------------------------------------------
# planner validation
# ----------------------------------------------------------------------
class TestPlannerValidation:
    def test_rejects_spec_without_shards(self, spec):
        with pytest.raises(ValueError, match="no shards field"):
            plan_shards(replace(spec, shards=None))

    def test_rejects_default_dumbbell(self):
        plain = ScenarioSpec(
            name="x",
            protected=False,
            shards=2,
            sessions=(SessionDecl("mc"),),
        )
        with pytest.raises(ValueError, match="no topology regions"):
            plan_shards(plain)

    def test_rejects_region_count_mismatch(self, spec):
        with pytest.raises(ValueError, match="annotates 2 regions"):
            plan_shards(replace(spec, shards=3))

    def test_rejects_reserved_region_param(self, spec):
        params = {**spec.topology_params, "region": 1}
        with pytest.raises(ValueError, match="reserved for region workers"):
            plan_shards(replace(spec, topology_params=params))

    def test_rejects_cross_traffic(self, spec):
        with pytest.raises(ValueError, match="cross traffic couples regions"):
            plan_shards(replace(spec, cbr=(CbrDecl(rate_bps=1e5),)))

    def test_rejects_record_series(self, spec):
        with pytest.raises(ValueError, match="record_series"):
            plan_shards(replace(spec, record_series=True))

    def test_rejects_individual_receivers(self, spec):
        sessions = (SessionDecl("mc", receivers=2),)
        with pytest.raises(ValueError, match="individual receivers"):
            plan_shards(replace(spec, sessions=sessions))

    def test_rejects_overhead_tracking(self, spec):
        decl = spec.sessions[0]
        sessions = (replace(decl, track_overhead=True),)
        with pytest.raises(ValueError, match="whole-session accumulator"):
            plan_shards(replace(spec, sessions=sessions))

    def test_rejects_unpinned_non_vector_blocks(self, spec):
        sessions = (
            SessionDecl("mc", receivers=0, population=(CohortDecl(10),)),
        )
        with pytest.raises(ValueError, match="topology-global cursor"):
            plan_shards(replace(spec, sessions=sessions))

    def test_accepts_pinned_cohort_blocks(self, spec):
        sessions = (
            SessionDecl(
                "mc",
                receivers=0,
                population=(
                    CohortDecl(10, model="vector", cohorts=2),
                    CohortDecl(5, router="edge2-1"),
                ),
            ),
        )
        plan = plan_shards(replace(spec, sessions=sessions))
        pinned_home = plan.regions[1]
        assert any(
            block.router == "edge2-1"
            for decl in pinned_home.spec.sessions
            for block in decl.population
        )


# ----------------------------------------------------------------------
# the exact row re-split
# ----------------------------------------------------------------------
class TestPlanGeometry:
    def test_row_split_is_exact(self, spec):
        """Region sub-blocks re-split to the original rows on the same edges."""
        plan = plan_shards(spec)
        edges = plan.topology.receiver_routers
        for b_index, block in enumerate(spec.sessions[0].population):
            rows = split_counts(block.count, block.cohorts or 1)
            expected = {}
            for row, members in enumerate(rows):
                region = plan.topology.region_of(edges[row % len(edges)])
                expected.setdefault(region, []).append(members)
            for region_plan in plan.regions:
                (session,) = region_plan.sessions
                local = session.block_indices.index(b_index)
                sub = region_plan.spec.sessions[0].population[local]
                share = expected[region_plan.region - 1]
                assert sub.count == sum(share)
                assert split_counts(sub.count, sub.cohorts or 1) == share

    def test_populations_partition_exactly(self, spec):
        plan = plan_shards(spec)
        totals = [
            sum(
                block.count
                for decl in region.spec.sessions
                for block in decl.population
            )
            for region in plan.regions
        ]
        assert sum(totals) == AUDIENCE + ATTACKERS

    def test_region_specs_are_standalone(self, spec):
        plan = plan_shards(spec)
        for region_plan in plan.regions:
            assert region_plan.spec.shards is None
            assert region_plan.spec.topology_params["region"] == region_plan.region

    def test_onsets_come_from_the_original_spec(self, spec):
        plan = plan_shards(spec)
        assert plan.onsets == {
            "global": ATTACK_START_S,
            "sessions": {"mc": ATTACK_START_S},
        }


# ----------------------------------------------------------------------
# determinism: serial == pool == unsharded
# ----------------------------------------------------------------------
class TestShardedDeterminism:
    def test_serial_equals_pool_byte_identical(self, spec, serial_result):
        pooled = ExperimentRunner(jobs=2).run_one(spec)
        assert pooled.to_json() == serial_result.to_json()

    def test_sharded_matches_unsharded_run(self, spec, serial_result):
        """Metric for metric, the merge reproduces the unsharded scenario.

        The boundary summary is the one sharding-only block; everything
        else — per-receiver goodput, levels, sigma counters, the full
        protection document — must match the single-process run exactly.
        """
        full = execute_spec(replace(spec, shards=None))
        sharded_metrics = dict(serial_result.metrics)
        boundary = sharded_metrics.pop("boundary")
        assert boundary["events"] > 0
        assert json.dumps(sharded_metrics, sort_keys=True) == json.dumps(
            full.metrics, sort_keys=True
        )
        assert serial_result.scenario == full.scenario
        assert serial_result.seed == full.seed
        assert serial_result.duration_s == full.duration_s

    def test_merged_population_and_protection(self, serial_result):
        session = serial_result.metrics["multicast"]["mc"]
        assert session["population"] == AUDIENCE + ATTACKERS
        protection = serial_result.metrics["protection"]
        attackers = protection["sessions"]["mc"]["attackers"]
        assert len(attackers) == ATTACKER_COHORTS
        assert protection["honest_baseline_kbps"] > 0.0

    def test_boundary_summary_shape(self, spec, serial_result):
        boundary = serial_result.metrics["boundary"]
        assert boundary["regions"] == 2
        assert boundary["slot_s"] == spec.config.flid_ds_slot_s
        assert boundary["events"] == boundary["joins"] + boundary["leaves"]
        assert set(boundary["per_region"]) == {"1", "2"}
        assert sum(boundary["per_region"].values()) == boundary["events"]
        assert len(boundary["digest"]) == 64

    def test_sharded_results_cache(self, spec, tmp_path):
        first = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        second = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        a = first.run_one(spec)
        b = second.run_one(spec)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert a.to_json() == b.to_json()


def _two_sessions(second_attack):
    """``mc`` as in :func:`sharded_spec` plus a second session ``mc2``."""
    return sharded_spec().sessions + (
        SessionDecl(
            "mc2",
            receivers=0,
            population=(
                CohortDecl(60, model="vector", cohorts=4),
                CohortDecl(12, model="vector", cohorts=2, attack=second_attack),
            ),
        ),
    )


#: Spec shapes the module fixture (protected, one attacked session) does not
#: reach — every branch of the shared assembler must stay exercised by the
#: sharded == unsharded byte contract.
UNCOVERED_SHAPES = {
    # shape: (spec overrides, sessions the protection block must report)
    "unprotected": (dict(protected=False), {"mc"}),
    "attacker-free": (
        dict(
            sessions=(
                SessionDecl(
                    "mc",
                    receivers=0,
                    population=(
                        CohortDecl(AUDIENCE, model="vector", cohorts=AUDIENCE_COHORTS),
                    ),
                ),
            )
        ),
        None,
    ),
    "two-sessions": (
        dict(
            sessions=_two_sessions(
                AttackSpec("inflated-join", start_s=ATTACK_START_S + 1)
            )
        ),
        {"mc", "mc2"},
    ),
    "one-of-two-sessions-attacked": (dict(sessions=_two_sessions(None)), {"mc"}),
    "onset-after-duration": (
        dict(
            sessions=_two_sessions(AttackSpec("inflated-join", start_s=DURATION_S + 5))
        ),
        {"mc"},
    ),
    "every-onset-after-duration": (dict(duration_s=ATTACK_START_S - 1), None),
}


@pytest.mark.parametrize("shape", sorted(UNCOVERED_SHAPES))
def test_sharded_matches_unsharded_on_uncovered_shapes(shape):
    """Sharded == unsharded bytes beyond the protected, one-session case."""
    overrides, attacked = UNCOVERED_SHAPES[shape]
    spec = sharded_spec(**overrides)
    sharded = ExperimentRunner(jobs=1).run_one(spec)
    full = execute_spec(replace(spec, shards=None))
    metrics = dict(sharded.metrics)
    assert metrics.pop("boundary")["events"] > 0
    assert json.dumps(metrics, sort_keys=True) == json.dumps(
        full.metrics, sort_keys=True
    )
    assert replace(sharded, metrics=full.metrics) == full
    if attacked is None:
        assert "protection" not in metrics
    else:
        assert set(metrics["protection"]["sessions"]) == attacked


# ----------------------------------------------------------------------
# merge error paths
# ----------------------------------------------------------------------
class TestMergeValidation:
    @pytest.fixture(scope="class")
    def documents(self, spec):
        plan = plan_shards(spec)
        return plan, [
            json.loads(run_region_json(payload))
            for payload in region_payloads(plan)
        ]

    def test_rejects_wrong_document_count(self, documents):
        plan, docs = documents
        with pytest.raises(ValueError, match="expected 2 region documents"):
            merge_region_results(plan, docs[:1])

    def test_rejects_out_of_order_documents(self, documents):
        plan, docs = documents
        with pytest.raises(ValueError, match="out of order"):
            merge_region_results(plan, list(reversed(docs)))

    def test_merge_drops_wall_time(self, documents):
        """wall_s is the one nondeterministic field; it must not leak."""
        plan, docs = documents
        assert all("wall_s" in doc for doc in docs)
        merged = merge_region_results(plan, docs)
        assert "wall_s" not in json.dumps(merged.metrics)

    def test_boundary_digest_is_order_stable(self, documents):
        plan, docs = documents
        first = merge_boundary_events(plan, docs)
        second = merge_boundary_events(plan, [dict(doc) for doc in docs])
        assert first == second
