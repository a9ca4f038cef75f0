"""Decision-function tests: the rules' behaviour at large bounds.

The rule-vs-independent-oracle proofs live in the exhaustive small-model
harness (``tests/properties/exhaustive.py`` — every (level, phase,
key-state, rng-draw) tuple below the bounds, for every rule in
:data:`repro.adversary.spec.BATCHED_DECISION_RULES`).  What remains here are
the rules' behavioural properties at *large* bounds (wide float grids,
10-group sessions).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.multicast_cc.decision import (
    attack_rate,
    attack_target_level,
    churn_phase,
    collusion_volley,
    decide_churn,
    decide_join_storm,
    guess_volley,
    mask_congestion,
    replay_volley,
)

GROUP_COUNT = 10


# ----------------------------------------------------------------------
# attack decisions: behaviour at large bounds (oracle proofs live in
# tests/properties/exhaustive.py)
# ----------------------------------------------------------------------
@given(
    intensity=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    group_count=st.integers(min_value=1, max_value=32),
)
def test_attack_target_level_stays_in_range(intensity, group_count):
    """The inflated target is always a valid subscription level."""
    target = attack_target_level(intensity, group_count)
    assert 1 <= target <= group_count


@given(
    per_slot=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
    intensity=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
)
def test_attack_rate_floors_at_one(per_slot, intensity):
    """An active attacker always acts at least once per slot."""
    assert attack_rate(per_slot, intensity) == max(1, round(per_slot * intensity))


@given(
    entitled=st.integers(min_value=0, max_value=GROUP_COUNT),
    per_group=st.integers(min_value=1, max_value=8),
    candidates=st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=8),
)
def test_replay_volley_targets_only_forbidden_groups(entitled, per_group, candidates):
    """Replays land group-major on forbidden groups, freshest keys first."""
    volley = replay_volley(candidates, entitled, GROUP_COUNT, per_group)
    replayed = candidates[:per_group]
    assert len(volley) == (GROUP_COUNT - entitled) * len(replayed)
    for group, key in volley:
        assert entitled < group <= GROUP_COUNT
        assert key in replayed


@given(
    entitled=st.integers(min_value=0, max_value=GROUP_COUNT),
    guesses=st.integers(min_value=1, max_value=4),
)
def test_guess_volley_consumes_draws_group_major(entitled, guesses):
    """Draw i pairs forbidden group i // guesses; undersized budgets raise."""
    needed = (GROUP_COUNT - entitled) * guesses
    draws = list(range(1000, 1000 + needed))
    volley = guess_volley(entitled, GROUP_COUNT, guesses, draws)
    assert [key for _, key in volley] == draws
    forbidden = list(range(entitled + 1, GROUP_COUNT + 1))
    assert [group for group, _ in volley] == [
        forbidden[i // guesses] for i in range(needed)
    ]
    if needed:
        with pytest.raises(ValueError, match="draws"):
            guess_volley(entitled, GROUP_COUNT, guesses, draws[:-1])


def test_join_storm_sweeps_groups_in_order():
    """The storm is bursts x a full ascending group sweep."""
    assert decide_join_storm(2, 3) == (1, 2, 3, 1, 2, 3)
    assert decide_join_storm(1, 1) == (1,)


@given(entitled=st.integers(min_value=0, max_value=GROUP_COUNT))
def test_collusion_volley_submits_only_pooled_forbidden_keys(entitled):
    """Pooled keys for forbidden groups are submitted in ascending order."""
    pooled = {g: g * 100 for g in range(1, GROUP_COUNT + 1, 2)}
    volley = collusion_volley(pooled, entitled, GROUP_COUNT)
    assert volley == tuple(
        (g, pooled[g])
        for g in range(entitled + 1, GROUP_COUNT + 1)
        if g in pooled
    )


@given(congested=st.booleans())
def test_mask_congestion_masks_or_passes(congested):
    """mask rewrites every verdict to calm; hold passes it through."""
    assert mask_congestion(congested, "mask") is False
    assert mask_congestion(congested, "hold") == congested


@given(
    elapsed=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    period=st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    duty=st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
)
def test_churn_phase_duty_cycle(elapsed, period, duty):
    """The high phase occupies exactly the clamped duty share of each cycle."""
    high = churn_phase(elapsed, period, duty)
    clamped = min(1.0, max(0.0, duty))
    assert high == ((elapsed % period) < clamped * period)
    if clamped == 0.0:
        assert not high


@given(
    phase_high=st.booleans(),
    was_high=st.booleans(),
    entitled=st.integers(min_value=0, max_value=GROUP_COUNT),
    joined=st.frozensets(st.integers(min_value=1, max_value=GROUP_COUNT), max_size=8),
)
def test_churn_edges(phase_high, was_high, entitled, joined):
    """Rising edges join everything + rejoin; falling edges shed the excess."""
    action = decide_churn(phase_high, was_high, entitled, GROUP_COUNT, sorted(joined))
    if phase_high and not was_high:
        assert action.join_groups == tuple(range(1, GROUP_COUNT + 1))
        assert action.session_rejoin
        assert not action.leave_groups
    elif not phase_high and was_high:
        assert action.leave_groups == tuple(
            group for group in sorted(joined) if group > entitled
        )
        assert not action.join_groups and not action.session_rejoin
    else:
        assert action == type(action)()
