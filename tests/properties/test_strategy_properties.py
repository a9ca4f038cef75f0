"""The attack strategies' per-slot behaviour at large bounds.

The exhaustive small-model harness (``exhaustive.py``) proves every strategy
equal to an independent reference below small bounds.  These properties
drive the same live classes through the same :class:`RecordingContext` at
*large* bounds: 10–32-group sessions and wide float ranges for intensity,
period and duty.
"""

from hypothesis import given
from hypothesis import strategies as st

from exhaustive import GOVERNED, SLOT, ScriptedDraws, recording_context, strategy
from repro.adversary.strategy import AttackStrategy
from repro.multicast_cc import SlotRecord

group_counts = st.integers(min_value=10, max_value=32)
intensities = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def _slot(attacker, ctx, congested=False):
    return attacker.after_slot(ctx, SLOT, SlotRecord(SLOT), congested)


@given(intensity=intensities, group_count=group_counts)
def test_inflated_join_target_stays_in_range(intensity, group_count):
    """The inflated target is always a valid subscription level, joined from
    the minimal group up and frozen there."""
    ctx = recording_context(group_count).reset()
    strategy("inflated-join", intensity).on_start(ctx)
    *joins, (kind, target) = ctx.messages
    assert kind == "level" and 1 <= target <= group_count
    assert joins == [("join", group) for group in range(1, target + 1)]


@given(
    per_slot=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
    intensity=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
)
def test_rate_knob_floors_at_one(per_slot, intensity):
    """An active attacker always acts at least once per slot."""
    knob = AttackStrategy(intensity=intensity, params={"knob": per_slot})
    assert knob.rate("knob") == max(1, round(per_slot * intensity))


@given(
    group_count=group_counts,
    data=st.data(),
    per_group=st.integers(min_value=1, max_value=8),
    candidates=st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=8),
)
def test_key_replay_targets_only_forbidden_groups(group_count, data, per_group, candidates):
    """Replays land group-major on forbidden groups, freshest keys first."""
    entitled = data.draw(st.integers(min_value=0, max_value=group_count))
    ctx = recording_context(group_count).reset(entitled)
    attacker = strategy("key-replay", replays_per_group=per_group)
    # One governed slot whose keys are stashed in the order listed.
    attacker.on_keys(ctx, SLOT, dict(enumerate(candidates, start=1)))
    _slot(attacker, ctx)
    replayed = candidates[:per_group]
    volley = ctx.messages[0][2] if ctx.messages else ()
    assert len(volley) == (group_count - entitled) * len(replayed)
    assert [key for _, key in volley] == replayed * (group_count - entitled)
    for group, _ in volley:
        assert entitled < group <= group_count
    assert ctx.replay_attempts == len(volley)


@given(group_count=group_counts, data=st.data(), guesses=st.integers(min_value=1, max_value=4))
def test_key_guessing_consumes_draws_group_major(group_count, data, guesses):
    """Draw i is submitted for forbidden group i // guesses, and the budget
    is exactly guesses per forbidden group."""
    entitled = data.draw(st.integers(min_value=0, max_value=group_count))
    needed = (group_count - entitled) * guesses
    draws = list(range(1000, 1000 + needed))
    ctx = recording_context(group_count).reset(entitled)
    attacker = strategy("key-guessing", guesses_per_slot=guesses)
    attacker.rng = ScriptedDraws(draws)
    _slot(attacker, ctx)
    volley = ctx.messages[0][2] if ctx.messages else ()
    assert [key for _, key in volley] == draws
    forbidden = list(range(entitled + 1, group_count + 1))
    assert [group for group, _ in volley] == [forbidden[i // guesses] for i in range(needed)]
    assert attacker.rng.draws == []


def test_join_storm_sweeps_groups_in_order():
    """The storm is bursts x a full ascending group sweep."""
    ctx = recording_context(3).reset()
    _slot(strategy("join-storm", bursts_per_slot=2), ctx)
    assert ctx.messages == [("join", group) for group in (1, 2, 3, 1, 2, 3)]
    ctx = recording_context(1).reset()
    _slot(strategy("join-storm"), ctx)
    assert ctx.messages == [("join", 1)]


@given(group_count=group_counts, data=st.data())
def test_collusion_submits_only_pooled_forbidden_keys(group_count, data):
    """Pooled keys for forbidden groups are submitted in ascending order."""
    entitled = data.draw(st.integers(min_value=0, max_value=group_count))
    ctx = recording_context(group_count).reset(entitled)
    pooled = {g: g * 100 for g in range(1, group_count + 1, 2)}
    ctx.collusion_pool("default").publish(GOVERNED, pooled)
    _slot(strategy("collusion"), ctx)
    expected = tuple(
        (g, pooled[g]) for g in range(entitled + 1, group_count + 1) if g in pooled
    )
    assert ctx.messages == ([("subscribe", GOVERNED, expected)] if expected else [])


@given(congested=st.booleans())
def test_ignore_congestion_masks_or_holds(congested):
    """mask rewrites every verdict to calm; hold passes it through and
    suppresses the honest decision instead."""
    ctx = recording_context().reset()
    record = SlotRecord(SLOT)
    masker = strategy("ignore-congestion", mode="mask")
    assert masker.filter_congestion(ctx, SLOT, record, congested) is False
    assert masker.on_slot(ctx, SLOT, record, congested) is False
    holder = strategy("ignore-congestion", mode="hold")
    assert holder.filter_congestion(ctx, SLOT, record, congested) == congested
    assert holder.on_slot(ctx, SLOT, record, congested) == congested


@given(
    elapsed=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    period=st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
    duty=st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
    intensity=intensities,
    group_count=group_counts,
)
def test_churn_phase_duty_cycle(elapsed, period, duty, intensity, group_count):
    """The high phase occupies exactly the clamped duty share of each cycle,
    whose period is scaled down by intensity and floored at a millisecond;
    entering it from the low phase joins every group."""
    ctx = recording_context(group_count).reset(now=elapsed)
    attacker = strategy("churn", intensity, period_s=period, duty=duty)
    attacker.on_slot(ctx, SLOT, SlotRecord(SLOT), False)
    cycle = max(1e-3, period / intensity)
    clamped = min(1.0, max(0.0, duty))
    high = (elapsed % cycle) < clamped * cycle
    assert attacker._phase_high == high
    if clamped == 0.0:
        assert not high
    assert bool(ctx.messages) == high


@given(
    phase_high=st.booleans(),
    was_high=st.booleans(),
    group_count=group_counts,
    data=st.data(),
)
def test_churn_edges(phase_high, was_high, group_count, data):
    """Rising edges join everything + rejoin; falling edges shed the excess."""
    entitled = data.draw(st.integers(min_value=0, max_value=group_count))
    joined = data.draw(
        st.frozensets(st.integers(min_value=1, max_value=group_count), max_size=8)
    )
    # Half a 1 s cycle of duty 0.5 is high at 0.25 s and low at 0.75 s.
    ctx = recording_context(group_count).reset(entitled, now=0.25 if phase_high else 0.75)
    attacker = strategy("churn", period_s=1.0, duty=0.5)
    attacker._phase_high = was_high
    attacker._joined = set(joined)
    attacker.on_slot(ctx, SLOT, SlotRecord(SLOT), False)
    if phase_high and not was_high:
        assert ctx.messages == [("join", g) for g in range(1, group_count + 1)] + [
            ("rejoin", 1)
        ]
    elif was_high and not phase_high:
        assert ctx.messages == [("leave", g) for g in sorted(joined) if g > entitled]
        assert attacker._joined == set()
    else:
        assert ctx.messages == []
        assert attacker._joined == set(joined)
