"""Cohort population churn: the deterministic process and its booking.

Unit properties of :class:`~repro.multicast_cc.churn.ChurnProcess` plus
integration checks that a churned cohort keeps the population-weighted
IGMP/SIGMA counters exact: the ledger of weighted joins/leaves tracks the
instantaneous membership, and the member counts stamped on SIGMA messages
follow the process.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import (
    ChurnProcess,
    CohortDecl,
    ExperimentRunner,
    Scenario,
    ScenarioSpec,
    SessionDecl,
)
from repro.experiments.spec import decode, encode
from repro.multicast_cc import SessionSpec

# ----------------------------------------------------------------------
# the pure process
# ----------------------------------------------------------------------
def test_population_closed_form():
    process = ChurnProcess(arrival_rate=10.0, departure_rate=2.0, burst=((5.0, 100),))
    assert process.population_at(50, 0.0) == 50
    assert process.population_at(50, 1.0) == 50 + 10 - 2
    assert process.population_at(50, 5.0) == 50 + 50 - 10 + 100
    assert process.population_at(50, -1.0) == 50  # before the cohort joined


def test_population_never_drops_below_one():
    process = ChurnProcess(departure_rate=100.0, burst=((1.0, -1000),))
    assert process.population_at(10, 50.0) == 1


def test_validation():
    with pytest.raises(ValueError):
        ChurnProcess(arrival_rate=-1.0)
    with pytest.raises(ValueError):
        ChurnProcess(burst=((-1.0, 5),))
    with pytest.raises(ValueError):
        # churn needs the aggregated model: individuals cannot arrive/depart.
        CohortDecl(10, model="individual", churn=ChurnProcess(arrival_rate=1.0))
    with pytest.raises(ValueError):
        # churn and attack cannot share a block: the attack context's member
        # weight is fixed at admission, so a churned attacker cohort would
        # book stale counters — churn composes with attacks from outside.
        from repro.adversary import AttackSpec

        CohortDecl(
            10,
            attack=AttackSpec("inflated-join"),
            churn=ChurnProcess(arrival_rate=1.0),
        )


@pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf")])
def test_non_finite_rates_and_burst_times_are_refused(value):
    """``json.loads`` reads ``Infinity`` and ``NaN``: a wire spec carrying
    either used to be admitted and fail mid-run (``OverflowError``,
    ``ValueError``)."""
    for name in ("arrival_rate", "departure_rate"):
        with pytest.raises(ValueError, match=f"ChurnProcess.{name} must be a finite"):
            ChurnProcess(**{name: value})
    with pytest.raises(ValueError, match="ChurnProcess.burst times must be finite"):
        ChurnProcess(burst=((value, 5),))


def test_round_trip():
    process = ChurnProcess(arrival_rate=3.5, departure_rate=0.5, burst=((12.0, 900),))
    assert decode(ChurnProcess, encode(process)) == process


@given(
    initial=st.integers(min_value=1, max_value=10_000),
    arrival=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    departure=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    bursts=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.integers(min_value=-10_000, max_value=10_000),
        ),
        max_size=4,
    ),
    times=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=8),
)
def test_population_is_a_pure_function_of_elapsed_time(
    initial, arrival, departure, bursts, times
):
    """Sampling order cannot matter: population_at is closed-form."""
    process = ChurnProcess(arrival_rate=arrival, departure_rate=departure, burst=tuple(bursts))
    forward = [process.population_at(initial, t) for t in sorted(times)]
    backward = [process.population_at(initial, t) for t in sorted(times, reverse=True)]
    assert forward == backward[::-1]
    assert all(population >= 1 for population in forward)


# ----------------------------------------------------------------------
# churned cohorts in live scenarios
# ----------------------------------------------------------------------
def _churned_spec(
    protected: bool,
    process: ChurnProcess,
    initial: int = 100,
    generous: bool = False,
) -> ScenarioSpec:
    max_rate_bps = SessionSpec("crowd").max_rate_bps()
    return ScenarioSpec(
        name="churned-cohort",
        protected=protected,
        # A generous bottleneck keeps the run congestion-free, so counter
        # identities are not obscured by rejoin/revocation traffic.
        topology_params={"bottleneck_bandwidth_bps": 2.0 * max_rate_bps} if generous else {},
        sessions=(
            SessionDecl(
                "crowd",
                receivers=0,
                population=(CohortDecl(initial, churn=process),),
            ),
        ),
        duration_s=20.0,
    )


def _run(spec: ScenarioSpec) -> Scenario:
    scenario = Scenario.from_spec(spec)
    scenario.run(spec.duration_s)
    return scenario


def test_flash_crowd_population_applies_mid_session():
    """A burst at 10 s lifts host population and the weighted metrics."""
    process = ChurnProcess(burst=((10.0, 900),))
    scenario = _run(_churned_spec(True, process))
    receiver = scenario.sessions[0].receivers[0]
    assert receiver.population == 1000
    assert receiver.host.population == 1000
    assert scenario.sessions[0].total_population == 1000
    # The multicast plane serves the grown population through one interface.
    minimal = scenario.sessions[0].spec.minimal_group()
    assert scenario.network.multicast.member_population(minimal) == 1000
    assert len(scenario.network.multicast.members(minimal)) == 1


def test_igmp_churn_ledger_tracks_membership():
    """Unprotected: weighted joins − leaves == members × level in force.

    Arrivals book one weighted join per subscribed group, departures one
    weighted leave, and ordinary subscription changes weigh the population
    in force when the report lands — so the ledger closes exactly.
    """
    process = ChurnProcess(burst=((6.0, 400), (14.0, -300)))
    scenario = _run(_churned_spec(False, process))
    receiver = scenario.sessions[0].receivers[0]
    manager = scenario.igmp_managers[0]
    assert receiver.population == 200
    # Ledger identity: every member currently holds `level` group
    # memberships, each booked by exactly one weighted join.
    expected = sum(
        count * level for count, level in receiver.state_rows()
    )
    assert manager.joins_handled - manager.leaves_handled == expected


def test_sigma_member_counts_follow_the_process():
    """Protected: arrivals session-join per member; stamps track population."""
    process = ChurnProcess(burst=((8.0, 900),))
    scenario = _run(_churned_spec(True, process, generous=True))
    receiver = scenario.sessions[0].receivers[0]
    agent = scenario.sigma
    # Initial admission: 100 members; burst: 900 more, one weighted join
    # (congestion-free run, so no weighted rejoins muddy the ledger).
    assert agent.session_joins == 1000
    # Subsequent subscription messages speak for the grown cohort.
    assert receiver.sigma.member_count == 1000
    assert agent.valid_submissions > 0


def test_sigma_departures_are_silent_and_shrink_the_next_stamp():
    """Protected: a departure wave sends no SIGMA message; the cohort's next
    subscription already speaks for the shrunken population."""
    process = ChurnProcess(burst=((8.0, -60),))
    scenario = Scenario.from_spec(_churned_spec(True, process, generous=True))
    receiver = scenario.sessions[0].receivers[0]
    agent = scenario.sigma
    messages = []

    def recording(handler):
        def record(host, message):
            messages.append((type(message).__name__, message.member_count))
            handler(host, message)

        return record

    agent.handle_session_join = recording(agent.handle_session_join)
    agent.handle_subscription = recording(agent.handle_subscription)
    scenario.run(20.0)

    assert receiver.population == 40
    assert receiver.sigma.unsubscriptions_sent == 0
    assert [m for m in messages if m[0] != "SubscriptionMessage"] == [
        ("SessionJoinMessage", 100)
    ]
    stamps = [count for kind, count in messages if kind == "SubscriptionMessage"]
    shrink = stamps.index(40)
    assert shrink > 0 and set(stamps[:shrink]) == {100} and set(stamps[shrink:]) == {40}
    assert agent.session_joins == 100 and agent.unsubscriptions == 0


def test_churned_specs_are_byte_deterministic_across_pool():
    """Serial and process-pool paths agree for churned cohort specs."""
    process = ChurnProcess(arrival_rate=25.0, burst=((8.0, 500),))
    spec = _churned_spec(True, process)
    serial = ExperimentRunner(jobs=1).run_seed_sweep(spec, (0, 1))
    parallel = ExperimentRunner(jobs=2).run_seed_sweep(spec, (0, 1))
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
