"""Exhaustive small-model harness for every per-slot decision the code makes.

Commuter-style verification: instead of *sampling* parameters (the
Hypothesis approach this harness replaced), each model enumerates the
**entire** cross product of its inputs below explicit small bounds — every
(level, phase, key-state, rng-draw) tuple — drives the live code that
decides (every registered attack strategy, through a
:class:`RecordingContext`, and ``FlidDlReceiver._apply_decision``) and
asserts that the messages it sends — IGMP joins and leaves, SIGMA ``(group,
key)`` submissions, key-less rejoins — and its counter deltas equal those of
an independent reference re-implementation (the "small model").

Why small member counts suffice: one receiver drives one IGMP/SIGMA
interface, so every member it stands for shares one subscription level — a
population is a weight on the messages of one state machine.  The checks run
at :data:`MEMBERS` 1 and 3 wherever a counter books that weight.

The registry gate: ``tests/properties/test_exhaustive.py`` asserts that every
registered strategy has a model in :data:`RULE_MODELS` (looked up through
:data:`~repro.adversary.registry.ADVERSARIES`, so the harness drives the
registered class) and that no model names an unregistered one.  Adding a
strategy without extending this harness fails the gate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, List, Tuple

from repro.adversary.context import COUNTER_KEYS, AttackContext
from repro.adversary.registry import ADVERSARIES
from repro.adversary.strategy import AttackStrategy
from repro.multicast_cc import FlidDlReceiver, SessionSpec, SlotRecord
from repro.simulator import NetworkGraph, dumbbell_topology
from repro.simulator.address import GroupAddressAllocator

# ----------------------------------------------------------------------
# small-model bounds: the full cross product below these is enumerated
# ----------------------------------------------------------------------
#: Session size of the small model (groups 1..3).
GROUP_COUNT = 3
#: Subscription/entitlement levels (0 = not yet admitted).
LEVELS = tuple(range(GROUP_COUNT + 1))
#: The two-valued rng-draw alphabet of the key-guessing model.
DRAW_ALPHABET = (0, 1)
#: Distinct sentinel key values for stash / pool states.
KEYS = (5, 9)
#: Exact-in-binary rate grid for intensity-scaled knobs (eighths, 0.125..4).
RATE_GRID = tuple(k / 8.0 for k in range(1, 33))
#: Member counts a receiver stands for: counters must book per member.
MEMBERS = (1, 3)
#: The evaluated slot; key submissions target the governed slot two ahead.
SLOT = 7
GOVERNED = SLOT + 2


# ----------------------------------------------------------------------
# the recording stand-ins the live classes act through
# ----------------------------------------------------------------------
def session(group_count: int) -> SessionSpec:
    allocator = GroupAddressAllocator()
    return SessionSpec("model", group_count=group_count).with_addresses(
        [allocator.allocate() for _ in range(group_count)]
    )


class MessageLog:
    """A receiver's IGMP interface and SIGMA agent in one: records every
    message it is asked to send, groups as 1-based indices."""

    def __init__(self, spec: SessionSpec) -> None:
        self.spec = spec
        self.messages: List[tuple] = []

    def join(self, address, members: int = 1) -> None:
        self.messages.append(("join", self.spec.group_index_of(address)))

    def leave(self, address, members: int = 1) -> None:
        self.messages.append(("leave", self.spec.group_index_of(address)))

    def subscribe(self, governed_slot: int, pairs) -> None:
        groups = tuple((self.spec.group_index_of(a), key) for a, key in pairs)
        self.messages.append(("subscribe", governed_slot, groups))

    def session_join(self, address) -> None:
        self.messages.append(("rejoin", self.spec.group_index_of(address)))


class RecordingContext(AttackContext):
    """The live :class:`AttackContext` over a stand-in receiver.

    Everything a strategy calls — entitlement, forbidden groups, the IGMP
    sweep, per-member counters, collusion pools — is the context's own
    code; only the receiver behind it is a stand-in, whose IGMP interface
    and SIGMA agent are one :class:`MessageLog` and whose ``_set_level``
    records a ``("level", n)`` message.  ``protected`` gives it a SIGMA
    agent (a FLID-DS receiver) or not (FLID-DL).
    """

    def __init__(self, group_count: int = GROUP_COUNT, protected: bool = True) -> None:
        spec = session(group_count)
        self.log = MessageLog(spec)
        super().__init__(
            SimpleNamespace(
                network=SimpleNamespace(),
                spec=spec,
                sim=SimpleNamespace(now=0.0),
                population=1,
                level=0,
                igmp=self.log,
                sigma=self.log if protected else None,
                _set_level=lambda level: self.log.messages.append(("level", level)),
            )
        )

    def reset(self, entitled: int = 0, members: int = 1, now: float = 0.0) -> "RecordingContext":
        """Start one case: an empty log and pools, zeroed counters, and a
        receiver entitled to ``entitled`` groups standing for ``members``."""
        self.receiver.level = entitled
        self.sim.now = now
        self.member_count = members
        self.network.__dict__.pop("_adversary_pools", None)
        self.log.messages.clear()
        for key in COUNTER_KEYS:
            setattr(self, key, 0)
        return self

    @property
    def messages(self) -> List[tuple]:
        return self.log.messages


@lru_cache(maxsize=None)
def recording_context(group_count: int = GROUP_COUNT, protected: bool = True) -> RecordingContext:
    """One shared context per shape; every case starts with :meth:`reset`."""
    return RecordingContext(group_count, protected)


class ScriptedDraws:
    """A strategy ``rng`` that hands out a fixed draw sequence (and fails
    when asked for more), recording the key width of every draw."""

    def __init__(self, draws) -> None:
        self.draws = list(draws)
        self.widths: List[int] = []

    def getrandbits(self, bits: int) -> int:
        self.widths.append(bits)
        return self.draws.pop(0)


def counters(members: int = 1, **booked: int) -> dict:
    """The context's counters after one case: ``booked`` per member."""
    return {key: members * booked.get(key, 0) for key in COUNTER_KEYS}


def strategy(name: str, intensity: float = 1.0, start_s: float = 0.0, **params) -> AttackStrategy:
    """The registered class under ``name``, as the registry would build it."""
    return ADVERSARIES[name](start_s=start_s, intensity=intensity, params=params)


# ----------------------------------------------------------------------
# independent reference re-implementations (the "small models")
# ----------------------------------------------------------------------
def model_forbidden(entitled: int, group_count: int) -> Tuple[int, ...]:
    return tuple(g for g in range(1, group_count + 1) if g > entitled)


def model_dl(level, congested, upgrades, group_count):
    """-> (IGMP messages, next level, slots of deafness past the evaluated one)."""
    if congested:
        if level > 1:
            return [("leave", level)], level - 1, 1
        return [], level, 0
    target = level + 1
    if target <= group_count and target in upgrades:
        return [("join", target)], target, 0
    return [], level, 0


def model_rate(per_slot, intensity) -> int:
    return max(1, round(per_slot * intensity))


def model_inflated(intensity, group_count, suppress):
    target = min(group_count, max(1, round(intensity * group_count)))
    joins = [("join", g) for g in range(1, target + 1)]
    return joins + ([("level", target)] if suppress else [])


def model_churn_phase(elapsed, period, duty) -> bool:
    clamped = min(1.0, max(0.0, duty))
    return (elapsed % period) < clamped * period


def model_churn(phase, was, entitled, group_count, joined, protected):
    """-> (messages, the joined set afterwards)."""
    if phase and not was:
        joins = [("join", g) for g in range(1, group_count + 1)]
        rejoin = [("rejoin", 1)] if protected else []
        return joins + rejoin, set(range(1, group_count + 1))
    if was and not phase:
        return [("leave", g) for g in sorted(joined) if g > entitled], set()
    return [], set(joined)


def model_replay(candidates, entitled, group_count, per_group):
    out = []
    for group in model_forbidden(entitled, group_count):
        for key in list(candidates)[:per_group]:
            out.append((group, key))
    return tuple(out)


def model_guess(entitled, group_count, guesses, draws):
    out, cursor = [], 0
    for group in model_forbidden(entitled, group_count):
        for _ in range(guesses):
            out.append((group, draws[cursor]))
            cursor += 1
    return tuple(out)


def model_storm(bursts, group_count):
    out = []
    for _ in range(bursts):
        out.extend(range(1, group_count + 1))
    return tuple(out)


def model_collusion(pooled, entitled, group_count):
    return tuple(
        (group, pooled[group])
        for group in model_forbidden(entitled, group_count)
        if group in pooled
    )


def submissions(pairs) -> List[tuple]:
    """The one SIGMA message a non-empty volley sends, or none."""
    return [("subscribe", GOVERNED, tuple(pairs))] if pairs else []


# ----------------------------------------------------------------------
# per-model exhaustive checks (each returns the number of cases enumerated)
# ----------------------------------------------------------------------
def _upgrade_subsets():
    pool = tuple(range(1, GROUP_COUNT + 2))
    for size in range(len(pool) + 1):
        yield from map(frozenset, itertools.combinations(pool, size))


def check_dl() -> int:
    """FLID-DL: every (level, congested, upgrade-set) tuple through a live
    receiver's ``_apply_decision``, its IGMP interface recorded."""
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=1_000_000.0))
    spec = session(GROUP_COUNT)
    receiver = FlidDlReceiver(net, net.add_receiver(), spec)
    receiver.igmp = MessageLog(spec)
    cases = 0
    for congested, upgrades in itertools.product((False, True), _upgrade_subsets()):
        for level in LEVELS:
            receiver.level = level
            receiver._deaf_until_slot = -1
            receiver.igmp.messages.clear()
            record = SlotRecord(SLOT, upgrade_groups=set(upgrades))
            receiver._apply_decision(SLOT, record, congested)
            messages, next_level, deaf = model_dl(level, congested, upgrades, GROUP_COUNT)
            assert receiver.igmp.messages == messages
            assert receiver.level == next_level
            assert receiver._deaf_until_slot == (SLOT + deaf if deaf else -1)
            cases += 1
    return cases


def check_forbidden() -> int:
    """The context's forbidden groups (over-entitled receivers included) and
    its full IGMP sweep, booked per member."""
    cases = 0
    for group_count in range(1, GROUP_COUNT + 1):
        for entitled, members in itertools.product(range(group_count + 2), MEMBERS):
            ctx = recording_context(group_count).reset(entitled, members)
            assert tuple(ctx.forbidden_groups(SLOT)) == model_forbidden(entitled, group_count)
            ctx.igmp_join_all()
            assert ctx.messages == [("join", g) for g in model_storm(1, group_count)]
            assert ctx.stats() == counters(members, igmp_attempts=group_count)
            cases += 1
    return cases


def check_attack_rate() -> int:
    """The rate knob over the full exact-in-binary rate x intensity grid."""
    cases = 0
    for per_slot, intensity in itertools.product(RATE_GRID, RATE_GRID):
        knob = AttackStrategy(intensity=intensity, params={"knob": per_slot})
        assert knob.rate("knob") == model_rate(per_slot, intensity)
        cases += 1
    return cases


def check_inflated_join() -> int:
    """Inflated join: onset joins up to the clamped intensity share, and the
    frozen level (with the honest decision suppressed) unless told not to."""
    cases = 0
    for intensity, group_count, suppress, members in itertools.product(
        RATE_GRID, range(1, GROUP_COUNT + 2), (None, True, False), MEMBERS
    ):
        ctx = recording_context(group_count).reset(members=members)
        params = {} if suppress is None else {"suppress_honest": suppress}
        attacker = strategy("inflated-join", intensity, **params)
        attacker.on_start(ctx)
        freezes = suppress is not False
        expected = model_inflated(intensity, group_count, freezes)
        assert ctx.messages == expected
        assert attacker.on_slot(ctx, SLOT, SlotRecord(SLOT), False) is freezes
        joins = sum(1 for message in expected if message[0] == "join")
        assert ctx.stats() == counters(members, igmp_attempts=joins)
        cases += 1
    return cases


def check_ignore_congestion() -> int:
    """The full (verdict, mode) table: ``mask`` lies to the honest pipeline,
    ``hold`` suppresses its decision on congested slots; no message sent."""
    cases = 0
    for congested, mode in itertools.product(
        (False, True), (None, "mask", "hold", "anything-else")
    ):
        ctx = recording_context().reset()
        attacker = strategy("ignore-congestion", **({} if mode is None else {"mode": mode}))
        record = SlotRecord(SLOT)
        masked = mode in (None, "mask")
        assert attacker.filter_congestion(ctx, SLOT, record, congested) is (
            False if masked else congested
        )
        assert attacker.on_slot(ctx, SLOT, record, congested) is (
            mode == "hold" and congested
        )
        assert ctx.messages == [] and ctx.stats() == counters()
        cases += 1
    return cases


def check_churn() -> int:
    """Churn: the phase grid x every (previous phase, entitlement, joined
    set, protection) tuple, from the strategy's own state."""
    elapsed_grid = tuple(k / 4.0 for k in range(0, 9))
    periods = (0.5, 1.0, 2.0)
    duties = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)
    joined_sets = [
        frozenset(s)
        for size in range(GROUP_COUNT + 1)
        for s in itertools.combinations(range(1, GROUP_COUNT + 1), size)
    ]
    cases = 0
    for elapsed, period, duty, was, entitled, joined, protected in itertools.product(
        elapsed_grid, periods, duties, (False, True), LEVELS, joined_sets, (True, False)
    ):
        ctx = recording_context(GROUP_COUNT, protected).reset(entitled, now=elapsed)
        attacker = strategy("churn", period_s=period, duty=duty)
        attacker._phase_high = was
        attacker._joined = set(joined)
        assert attacker.on_slot(ctx, SLOT, SlotRecord(SLOT), False) is False
        phase = model_churn_phase(elapsed, period, duty)
        messages, joined_after = model_churn(
            phase, was, entitled, GROUP_COUNT, joined, protected
        )
        assert ctx.messages == messages
        assert (attacker._phase_high, attacker._joined) == (phase, joined_after)
        joins = sum(1 for message in messages if message[0] == "join")
        assert ctx.stats() == counters(igmp_attempts=joins)
        cases += 1
    return cases


def _stashes():
    for depth in range(0, len(KEYS) + 1):
        yield from itertools.product(KEYS, repeat=depth)


def check_replay() -> int:
    """Key replay: every (stash, entitlement, rate, members, protection)
    tuple.  The stash is fed slot by slot through ``on_keys``, oldest first,
    and ``candidates`` lists it freshest first."""
    cases = 0
    for candidates, per_group, entitled, members, protected in itertools.product(
        _stashes(), (1, 2, 3), LEVELS, MEMBERS, (True, False)
    ):
        ctx = recording_context(GROUP_COUNT, protected).reset(entitled, members)
        attacker = strategy("key-replay", replays_per_group=per_group)
        for offset, key in enumerate(reversed(candidates)):
            attacker.on_keys(ctx, SLOT + offset, {1: key})
        attacker.after_slot(ctx, SLOT, SlotRecord(SLOT), False)
        pairs = model_replay(candidates, entitled, GROUP_COUNT, per_group) if protected else ()
        assert ctx.messages == submissions(pairs)
        assert ctx.stats() == counters(members, replay_attempts=len(pairs))
        cases += 1
    return cases


def check_guess() -> int:
    """Key guessing: every (entitlement, rate, draw sequence, members) tuple.

    The slot's draw budget comes from the strategy's stream exactly once per
    receiver, consumed positionally: :class:`ScriptedDraws` fails on one draw
    too many and the check fails on one too few.  An unprotected receiver
    draws nothing.
    """
    cases = 0
    for guesses, entitled in itertools.product((1, 2), LEVELS):
        needed = len(model_forbidden(entitled, GROUP_COUNT)) * guesses
        for draws, members in itertools.product(
            itertools.product(DRAW_ALPHABET, repeat=needed), MEMBERS
        ):
            ctx = recording_context().reset(entitled, members)
            attacker = strategy("key-guessing", guesses_per_slot=guesses)
            attacker.rng = ScriptedDraws(draws)
            attacker.after_slot(ctx, SLOT, SlotRecord(SLOT), False)
            pairs = model_guess(entitled, GROUP_COUNT, guesses, draws)
            assert ctx.messages == submissions(pairs)
            assert attacker.rng.draws == [] and attacker.rng.widths == [16] * needed
            assert ctx.stats() == counters(members, guess_attempts=len(pairs))
            cases += 1
        ctx = recording_context(GROUP_COUNT, protected=False).reset(entitled)
        attacker = strategy("key-guessing", guesses_per_slot=guesses)
        attacker.rng = ScriptedDraws(())
        attacker.after_slot(ctx, SLOT, SlotRecord(SLOT), False)
        assert ctx.messages == [] and attacker.rng.widths == []
        cases += 1
    return cases


def check_storm() -> int:
    """Join storm: every (burst count, group count, members) tuple."""
    cases = 0
    for bursts, group_count, members in itertools.product(
        (1, 2, 3), range(1, GROUP_COUNT + 1), MEMBERS
    ):
        ctx = recording_context(group_count).reset(members=members)
        strategy("join-storm", bursts_per_slot=bursts).after_slot(
            ctx, SLOT, SlotRecord(SLOT), False
        )
        joins = model_storm(bursts, group_count)
        assert ctx.messages == [("join", g) for g in joins]
        assert ctx.stats() == counters(members, igmp_attempts=len(joins))
        cases += 1
    return cases


def _pools():
    """Every pool state: each group absent or holding either sentinel key."""
    for choices in itertools.product((None,) + KEYS, repeat=GROUP_COUNT):
        yield {
            group: key
            for group, key in zip(range(1, GROUP_COUNT + 1), choices)
            if key is not None
        }


def check_collusion() -> int:
    """Collusion: every (pool state, entitlement, members) tuple."""
    cases = 0
    for pooled, entitled, members in itertools.product(_pools(), LEVELS, MEMBERS):
        ctx = recording_context().reset(entitled, members)
        ctx.collusion_pool("default").publish(GOVERNED, pooled)
        strategy("collusion").after_slot(ctx, SLOT, SlotRecord(SLOT), False)
        pairs = model_collusion(pooled, entitled, GROUP_COUNT)
        assert ctx.messages == submissions(pairs)
        assert ctx.stats() == counters(members, shared_key_submissions=len(pairs))
        cases += 1
    return cases


# ----------------------------------------------------------------------
# the model registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleModel:
    """One exhaustive model: what it drives, the check that runs it, and the
    case floor that guards against an accidentally empty generator.

    A model named after a registered strategy drives that strategy's class;
    ``core:`` models drive the honest FLID-DL receiver and the shared
    context and strategy machinery.
    """

    name: str
    check: Callable[[], int]
    min_cases: int


#: Every exhaustive model, honest core rules and the full attack registry.
RULE_MODELS: Tuple[RuleModel, ...] = (
    RuleModel("core:flid-dl", check_dl, 100),
    RuleModel("core:forbidden", check_forbidden, 10),
    RuleModel("core:attack-rate", check_attack_rate, 1_000),
    RuleModel("inflated-join", check_inflated_join, 100),
    RuleModel("ignore-congestion", check_ignore_congestion, 6),
    RuleModel("churn", check_churn, 250),
    RuleModel("key-replay", check_replay, 80),
    RuleModel("key-guessing", check_guess, 150),
    RuleModel("join-storm", check_storm, 9),
    RuleModel("collusion", check_collusion, 100),
)


def strategy_models() -> Tuple[str, ...]:
    """The names of the models that drive an attack strategy."""
    return tuple(model.name for model in RULE_MODELS if not model.name.startswith("core:"))
