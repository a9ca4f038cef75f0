"""Exactness of aggregation: every placement of N members == N receivers.

A receiver stands for any number of homogeneous members (``docs/scale.md``),
so the same population block realised with ``model="cohort"`` (one host for
the block) or ``model="vector"`` (one host per edge router, carrying one row
per member — the hardest shape to keep exact) must reproduce, with ``==`` on
the same seed, what ``model="individual"`` (N one-member hosts) produces
member for member:

* identical subscription-level trajectories (the full ``(time, level)``
  transition list, not just the per-slot vector),
* identical per-member goodput,
* identical SIGMA counters (valid/invalid submissions, session joins,
  revocations, ignored bare joins) on the protected variant and identical
  population-weighted IGMP counters on the unprotected one,
* identical attack counters (the aggregated receiver books per member; the
  individual realisation's counters are summed across members).

Every case is one placement × (an honest block, or an attacker block
mounting one registered strategy beside an honest session) × protocol, over
the whole adversary registry; collusion pools accept member-weighted
contributions.  Key guessing is the exception: a block draws one guess
budget per slot for all its members, so it equals them only while no guess
succeeds.  Its 16-bit cases pass because three members almost never guess
right; the 4-bit case is a strict xfail until ROADMAP item 16 is fixed.
The declaration-time rules of population blocks close the module.
"""

import functools
import itertools
from dataclasses import replace
from typing import NamedTuple, Optional

import pytest

from repro.adversary import AttackSpec, paper_attacker
from repro.analysis import subscription_vector
from repro.experiments import (
    ChurnProcess,
    CohortDecl,
    Scenario,
    ScenarioSpec,
    SessionDecl,
    scenario_spec,
)

#: Small population (feasible as individuals) on a tight bottleneck, so the
#: runs exercise congestion decreases, deaf periods and upgrades.
POPULATION = 3
DURATION_S = 20.0
ATTACK_DURATION_S = 16.0
ATTACK_START_S = 6.0

#: Every registered strategy; all but key guessing batch exactly
#: (docs/threat-model.md).
STRATEGIES = (
    "inflated-join",
    "ignore-congestion",
    "churn",
    "key-replay",
    "key-guessing",
    "join-storm",
    "collusion",
)


def population_spec(
    protected: bool, model: str, strategy: Optional[str] = None, cohorts=None
) -> ScenarioSpec:
    """One population block of ``POPULATION`` members placed by ``model``.

    Honest (``strategy=None``): the block is a session's whole audience.
    Adversarial: the block mounts ``strategy`` beside one honest session.
    A vector block is split into one row per member unless ``cohorts`` says
    otherwise.
    """
    if cohorts is None and model == "vector":
        cohorts = POPULATION
    if strategy is None:
        return ScenarioSpec(
            name="population-equivalence",
            protected=protected,
            sessions=(
                SessionDecl(
                    "s",
                    receivers=0,
                    population=(CohortDecl(POPULATION, model=model, cohorts=cohorts),),
                ),
            ),
            duration_s=DURATION_S,
        )
    return ScenarioSpec(
        name="adversarial-population-equivalence",
        protected=protected,
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl(
                "atk",
                receivers=0,
                population=(
                    CohortDecl(
                        POPULATION,
                        model=model,
                        cohorts=cohorts,
                        attack=AttackSpec(strategy, start_s=ATTACK_START_S),
                    ),
                ),
            ),
            SessionDecl("hon", receivers=1),
        ),
        duration_s=ATTACK_DURATION_S,
    )


def run(spec: ScenarioSpec) -> Scenario:
    """Realise and run a spec; each distinct spec is simulated once per
    process (runs are deterministic and the tests only read the result)."""
    return _run(spec.to_json())


@functools.lru_cache(maxsize=None)
def _run(spec_json: str) -> Scenario:
    spec = ScenarioSpec.from_json(spec_json)
    scenario = Scenario.from_spec(spec)
    scenario.run(spec.duration_s)
    return scenario


class Case(NamedTuple):
    placement: str
    strategy: Optional[str]
    protected: bool
    aggregated: Scenario
    individual: Scenario

    @property
    def duration_s(self) -> float:
        return DURATION_S if self.strategy is None else ATTACK_DURATION_S


PLACEMENTS = ("cohort", "vector")
PROTOCOLS = (False, True)


def case_id(params) -> str:
    placement, strategy, protected = params
    return f"{placement}-{strategy or 'honest'}-{'flid_ds' if protected else 'flid_dl'}"


def build_case(placement: str, strategy: Optional[str], protected: bool) -> Case:
    return Case(
        placement,
        strategy,
        protected,
        run(population_spec(protected, placement, strategy)),
        run(population_spec(protected, "individual", strategy)),
    )


@pytest.fixture(
    scope="module",
    params=list(itertools.product(PLACEMENTS, (None, *STRATEGIES), PROTOCOLS)),
    ids=case_id,
)
def case(request):
    """The aggregated placement and the individual reference of one case."""
    return build_case(*request.param)


@pytest.fixture(
    scope="module",
    params=list(itertools.product(PLACEMENTS, (None,), PROTOCOLS)),
    ids=case_id,
)
def honest_case(request):
    """The cases whose block is honest."""
    return build_case(*request.param)


def test_population_accounting(case):
    """Both realisations stand for the same end systems; the aggregated one
    with a single receiver object (one edge on the dumbbell)."""
    aggregated, individual = case.aggregated.sessions[0], case.individual.sessions[0]
    assert aggregated.total_population == POPULATION
    assert individual.total_population == POPULATION
    assert len(aggregated.receivers) == 1
    assert len(individual.receivers) == POPULATION
    assert aggregated.receivers[0].population == POPULATION
    # declared maps each declaration group to its realised objects.
    assert [len(group) for group in aggregated.declared] == [0, 1]
    assert [len(group) for group in individual.declared] == [0, POPULATION]


def test_rows_carry_the_receivers_level(case):
    """A cohort is one row, a vector block one row per member; every row
    is at the receiver's one level."""
    receiver = case.aggregated.sessions[0].receivers[0]
    counts = (1,) * POPULATION if case.placement == "vector" else (POPULATION,)
    assert receiver.counts == counts
    assert receiver.state_rows() == [(count, receiver.level) for count in counts]


def test_identical_subscription_trajectories(case):
    """The aggregated trajectory equals every individual member's, exactly."""
    history = case.aggregated.sessions[0].receivers[0].level_history
    slot = case.aggregated.sessions[0].spec.slot_duration_s
    assert len(history) > (2 if case.strategy is None else 0), (
        "run too quiet to be a meaningful check"
    )
    for receiver in case.individual.sessions[0].receivers:
        assert receiver.level_history == history
        assert subscription_vector(
            receiver.level_history, slot, case.duration_s
        ) == subscription_vector(history, slot, case.duration_s)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 16: a block of key guessers draws one guess budget for all "
    "its members, so it equals them only while no guess succeeds",
)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_key_guessing_block_guesses_like_its_members(placement):
    """At 4-bit keys guesses succeed, and every member's trajectory should
    still equal the block's.  It does not yet: the block draws ``guesses``
    keys per slot for all its members, individuals draw them each."""
    aggregated, individual = (
        run(replace(spec, sessions=tuple(replace(s, key_bits=4) for s in spec.sessions)))
        for model in (placement, "individual")
        for spec in [population_spec(True, model, "key-guessing")]
    )
    history = aggregated.sessions[0].receivers[0].level_history
    for receiver in individual.sessions[0].receivers:
        assert receiver.level_history == history


def test_trajectory_exercises_congestion(honest_case):
    """The equivalence must cover decreases, not only the upgrade ladder."""
    receiver = honest_case.aggregated.sessions[0].receivers[0]
    assert receiver.decreases > 0
    assert receiver.increases > 0


def test_identical_per_member_goodput(case):
    """Per-member goodput matches, member for member."""
    member_kbps = case.aggregated.sessions[0].receivers[0].average_rate_kbps(
        0.0, case.duration_s
    )
    assert member_kbps > 0
    for receiver in case.individual.sessions[0].receivers:
        assert receiver.average_rate_kbps(0.0, case.duration_s) == member_kbps


def test_identical_attack_counters(case):
    """Aggregated attack counters equal the member-wise sum of individuals'
    (both empty for an honest block)."""
    stats = case.aggregated.sessions[0].receivers[0].adversary_stats()
    summed = {
        key: sum(r.adversary_stats()[key] for r in case.individual.sessions[0].receivers)
        for key in stats
    }
    assert stats == summed
    assert bool(stats) == (case.strategy is not None)
    if case.strategy in ("inflated-join", "churn", "join-storm"):
        assert stats["igmp_attempts"] > 0  # the attack actually ran
    if case.protected and case.strategy == "key-guessing":
        assert stats["guess_attempts"] > 0
    if case.protected and case.strategy == "key-replay":
        assert stats["replay_attempts"] > 0


def test_identical_protection_counters(case):
    """Every SIGMA counter (protected) or population-weighted IGMP counter
    (unprotected) matches exactly."""
    honest = case.strategy is None
    if not case.protected:
        a, b = case.aggregated.igmp_managers[0], case.individual.igmp_managers[0]
        assert a.joins_handled == b.joins_handled
        assert a.leaves_handled == b.leaves_handled
        if honest:
            assert a.joins_handled > 0
        return
    a, b = case.aggregated.sigma, case.individual.sigma
    assert a.valid_submissions == b.valid_submissions
    assert a.invalid_submissions == b.invalid_submissions
    assert a.session_joins == b.session_joins
    assert a.revocations == b.revocations
    assert a.igmp_joins_ignored == b.igmp_joins_ignored
    if not honest:
        return
    assert a.valid_submissions > 0
    # The block reached those counts with one message per slot, not N.
    receiver = case.aggregated.sessions[0].receivers[0]
    individual_msgs = sum(
        r.sigma.subscription_messages_sent for r in case.individual.sessions[0].receivers
    )
    assert receiver.sigma.subscription_messages_sent * POPULATION == individual_msgs
    # Every submitted key speaks for the whole population; the router
    # accepts the valid subset and rejects the rest (lossy-slot keys).
    assert receiver.member_keys_submitted == a.valid_submissions + a.invalid_submissions


def test_member_population_counting(honest_case):
    """The multicast service counts end systems, not interfaces."""
    minimal = honest_case.aggregated.sessions[0].spec.minimal_group()
    aggregated = honest_case.aggregated.network.multicast
    individual = honest_case.individual.network.multicast
    assert aggregated.member_population(minimal) == POPULATION
    assert individual.member_population(minimal) == POPULATION
    # Fan-out cost is what differs: one interface versus N.
    assert len(aggregated.members(minimal)) == 1
    assert len(individual.members(minimal)) == POPULATION


@pytest.mark.parametrize(
    "model, cohorts, rows",
    [
        ("individual", None, [(1,)] * POPULATION),
        ("cohort", None, [(POPULATION,)]),
        ("cohort", POPULATION, [(1,) * POPULATION]),
        ("vector", None, [(1,) * POPULATION]),
        ("vector", 2, [(2, 1)]),
    ],
)
def test_placement_hands_each_receiver_a_tuple_of_rows(model, cohorts, rows):
    """Every placement passes its receivers plain tuples of row counts (the
    dumbbell has one edge, so a vector block and a split honest cohort block
    land on a single receiver); no population table is built beside them."""
    scenario = Scenario.from_spec(population_spec(True, model, cohorts=cohorts))
    receivers = scenario.sessions[0].receivers
    assert [receiver.counts for receiver in receivers] == rows
    assert all(type(receiver.counts) is tuple for receiver in receivers)
    assert scenario.sessions[0].total_population == POPULATION
    assert scenario.population_table is None


# ----------------------------------------------------------------------
# declaration-time rules of population blocks
# ----------------------------------------------------------------------
def test_every_registered_strategy_declares_on_cohorts():
    """The whole registry batches: every strategy is declarable on a cohort."""
    for strategy in STRATEGIES:
        decl = CohortDecl(3, attack=AttackSpec(strategy))
        assert decl.attack.strategy == strategy


def test_unknown_strategy_rejected_at_declaration():
    """An unregistered strategy name fails AttackSpec, listing the known ones.

    It used to declare, round-trip through JSON and fail only when the
    scenario was built — after a CLI traceback or a daemon admission.
    """
    from repro.adversary import adversary_names

    with pytest.raises(ValueError, match=r"AttackSpec\.strategy 'no-such-strategy'") as excinfo:
        scenario_spec("scale-protection", strategy="no-such-strategy")
    assert str(adversary_names()) in str(excinfo.value)
    with pytest.raises(ValueError, match="no-such-strategy"):
        CohortDecl(3, attack=AttackSpec("no-such-strategy"))


def test_adversarial_cohorts_refuse_churn_at_the_class_level():
    """The churn+attack exclusion holds even bypassing the spec layer
    (``attach_churn`` is the one check behind every placement)."""
    scenario = Scenario.from_spec(population_spec(True, "cohort", "inflated-join"))
    receiver = scenario.sessions[0].receivers[0]
    with pytest.raises(ValueError, match="cannot churn"):
        receiver.attach_churn(ChurnProcess(arrival_rate=1.0))


def test_protection_metrics_weight_attacker_cohorts():
    """The protection block reports the cohort's population-weighted excess."""
    from repro.experiments import ExperimentRunner

    spec = population_spec(True, "cohort", "inflated-join")
    result = ExperimentRunner().run_one(spec)
    entry = result.metrics["protection"]["sessions"]["atk"]["attackers"]["0"]
    assert entry["population"] == POPULATION
    assert entry["weighted_excess_kbps"] == pytest.approx(
        POPULATION * entry["excess_kbps"]
    )
    assert entry["counters"]["igmp_attempts"] > 0


def test_cohorts_field_validation():
    """The cohorts split must be realisable and cohort/vector-only."""
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=0)
    with pytest.raises(ValueError):
        CohortDecl(10, cohorts=11)  # more rows than members
    with pytest.raises(ValueError):
        CohortDecl(10, model="individual", cohorts=2)
    assert CohortDecl(10, model="vector", cohorts=10).cohorts == 10


def test_vector_blocks_cannot_churn():
    """Population churn needs a single aggregated cohort, never a vector."""
    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, model="vector", churn=ChurnProcess(arrival_rate=1.0))
    with pytest.raises(ValueError, match="single aggregated cohort"):
        CohortDecl(10, cohorts=2, churn=ChurnProcess(arrival_rate=1.0))
    scenario = Scenario.from_spec(population_spec(True, "vector"))
    with pytest.raises(ValueError, match="cannot churn"):
        scenario.sessions[0].receivers[0].attach_churn(
            ChurnProcess(arrival_rate=1.0)
        )


def test_cohorts_split_of_cohort_model_matches_single_cohort():
    """model="cohort" with cohorts=N realises one receiver carrying the N
    rows, running exactly the single aggregated cohort's events."""
    split = run(population_spec(True, "cohort", cohorts=POPULATION))
    single = run(population_spec(True, "cohort"))
    [receiver] = split.sessions[0].receivers
    assert receiver.counts == (1,) * POPULATION
    assert split.sessions[0].total_population == POPULATION
    assert receiver.level_history == single.sessions[0].receivers[0].level_history
    assert split.network.sim.events_executed == single.network.sim.events_executed
    assert split.sigma.valid_submissions == single.sigma.valid_submissions


# ----------------------------------------------------------------------
# a split honest cohort block is one receiver, reported row by row
# ----------------------------------------------------------------------
def audience_duel_spec(
    protected: bool, audience, record_series: bool = False
) -> ScenarioSpec:
    """An honest ``audience`` population beside the paper's attacker, so the
    metric document carries a ``protection`` block (and ``sigma`` when
    ``protected``)."""
    return ScenarioSpec(
        name="split-audience",
        protected=protected,
        topology_params={"bottleneck_bandwidth_bps": 500_000.0},
        sessions=(
            SessionDecl("aud", receivers=0, population=tuple(audience)),
            SessionDecl(
                "atk", receivers=1, attacks=paper_attacker(protected, start_s=ATTACK_START_S)
            ),
        ),
        duration_s=ATTACK_DURATION_S,
        record_series=record_series,
    )


@pytest.mark.parametrize("record_series", [False, True], ids=["plain", "series"])
@pytest.mark.parametrize("protected", PROTOCOLS, ids=["flid_dl", "flid_ds"])
@pytest.mark.parametrize(
    "split, twin",
    [
        (CohortDecl(7, cohorts=3), (CohortDecl(3), CohortDecl(2), CohortDecl(2))),
        (CohortDecl(3, cohorts=3), (CohortDecl(3, model="individual"),)),
    ],
    ids=["as-blocks", "as-individuals"],
)
def test_split_honest_block_reports_like_its_multi_host_twin(
    split, twin, protected, record_series
):
    """The one receiver of a split honest block reports every row, byte for
    byte what the rows' separate hosts report."""
    from repro.experiments import ExperimentRunner
    from repro.experiments.spec import canonical_json
    from repro.multicast_cc.population import split_counts

    runner = ExperimentRunner()
    documents = [
        runner.run_one(audience_duel_spec(protected, audience, record_series)).metrics
        for audience in ((split,), twin)
    ]
    assert "protection" in documents[0]
    assert ("sigma" in documents[0]) == protected
    assert ("series" in documents[0]["multicast"]["aud"]) == record_series
    assert documents[0]["multicast"]["aud"]["receiver_population"] == split_counts(
        split.count, split.cohorts
    )
    assert canonical_json(documents[0]) == canonical_json(documents[1])


def test_splitting_an_honest_block_adds_no_event():
    """100 rows of a 100k audience run exactly the single cohort's events."""
    from repro.experiments import scenario_spec

    runs = [
        run(scenario_spec("scale-dumbbell-10k", receivers=100_000, model="cohort", cohorts=cohorts))
        for cohorts in (100, None)
    ]
    assert [sum(len(s.receivers) for s in r.sessions) for r in runs] == [2, 2]
    assert runs[0].sessions[0].receivers[0].counts == (1000,) * 100
    assert runs[0].network.sim.events_executed == runs[1].network.sim.events_executed


def test_attack_block_keeps_one_host_per_row():
    """Each attacking row draws from its own host-named stream, so a split
    attack block stays one receiver per row."""
    scenario = Scenario.from_spec(
        population_spec(True, "cohort", "inflated-join", cohorts=2)
    )
    receivers = scenario.sessions[0].receivers
    assert [receiver.counts for receiver in receivers] == [(2,), (1,)]
    assert [receiver.host.name for receiver in receivers] == [
        "atk-cohort1-1",
        "atk-cohort1-2",
    ]


@pytest.mark.parametrize(
    "router, hosts", [(None, ["s-cohort1-1", "s-cohort1-2"]), ("edge2", ["s-cohort1"])]
)
def test_unpinned_rows_on_several_edges_keep_their_hosts(router, hosts):
    """Unpinned rows spread round-robin over the receiver edges, so only a
    pinned split shares one receiver on a multi-edge topology."""
    spec = ScenarioSpec(
        name="split-over-edges",
        protected=True,
        topology="multi-edge-dumbbell",
        topology_params={"edges": 2},
        sessions=(
            SessionDecl(
                "s", receivers=0, population=(CohortDecl(4, router=router, cohorts=2),)
            ),
        ),
        duration_s=DURATION_S,
    )
    receivers = Scenario.from_spec(spec).sessions[0].receivers
    assert [receiver.host.name for receiver in receivers] == hosts
