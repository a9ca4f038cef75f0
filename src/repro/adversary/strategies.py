"""Concrete adversary strategies.

Each strategy models one self-beneficial misbehaviour from the paper's threat
analysis (§2, §4) or the adaptive-misbehaviour literature; the README's
threat-model section maps every class to its taxonomy entry.  Strategies are
deliberately small — composition (stacking several on one receiver) is how
richer attackers are built, e.g. the Figure 7 attacker is inflated-join +
key-replay + key-guessing.

Every strategy here is a thin shim over a pure decision rule in
:mod:`repro.multicast_cc.decision` (the
:data:`~repro.adversary.spec.BATCHED_DECISION_RULES` mapping names the
pairing): the shim gathers the slot's inputs — entitlement, stash, pooled
keys, and for key guessing the slot's *per-cohort* draw budget from the
strategy's seeded stream — and books the rule's output through the
capability context at ``member_count`` weight.  That split is what makes
cohort batching exact for the whole registry; the exhaustive small-model
harness (``tests/properties/exhaustive.py``) gates every rule.
"""

from __future__ import annotations

from typing import Dict, List, Set, TYPE_CHECKING

from ..multicast_cc.decision import (
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
from .context import AttackContext
from .registry import register_adversary
from .strategy import AttackStrategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycle guard)
    from ..multicast_cc.receiver_base import SlotRecord

__all__ = [
    "InflatedJoinStrategy",
    "IgnoreCongestionStrategy",
    "ChurnStrategy",
    "KeyReplayStrategy",
    "KeyGuessingStrategy",
    "JoinStormStrategy",
    "CollusionStrategy",
]

#: Governed slots of reconstructed keys a replay attacker keeps around.
REPLAY_RETAINED_SLOTS = 6


@register_adversary
class InflatedJoinStrategy(AttackStrategy):
    """Join more groups than the congestion state allows (§2.1, Figure 1).

    At onset the attacker IGMP-joins every group up to ``intensity × group
    count`` and — when ``suppress_honest`` (the default) — freezes its
    subscription there, ignoring every congestion signal.  Against an IGMP
    edge the attack succeeds outright; a SIGMA router ignores the bare joins.
    With ``suppress_honest=False`` the joins ride on top of the honest
    pipeline (the Figure 7 attacker keeps its fair share this way).
    """

    name = "inflated-join"

    def _target_level(self, ctx: AttackContext) -> int:
        return attack_target_level(self.intensity, ctx.group_count)

    def on_start(self, ctx: AttackContext) -> None:
        target = self._target_level(ctx)
        for group in range(1, target + 1):
            ctx.igmp_join(group)
        if self.param("suppress_honest", True):
            ctx.set_level(target)

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        return bool(self.param("suppress_honest", True))


@register_adversary
class IgnoreCongestionStrategy(AttackStrategy):
    """Never decrease the subscription on loss (§2.1's milder misbehaviour).

    ``mode="mask"`` (default) feeds ``congested=False`` into the honest
    pipeline — under DELTA the attacker then computes top keys from an
    incomplete component set, submits garbage, and loses access by itself.
    ``mode="hold"`` suppresses the decision on congested slots instead
    (never decrease, only increase when authorised).
    """

    name = "ignore-congestion"

    def filter_congestion(
        self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool
    ) -> bool:
        return mask_congestion(congested, str(self.param("mode", "mask")))

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        return self.param("mode", "mask") == "hold" and congested


@register_adversary
class ChurnStrategy(AttackStrategy):
    """Join/leave flapping, probing the grace windows (§3.2.2).

    The attacker alternates between a *high* phase — IGMP-join everything and
    re-run the key-less session-join, milking the admission grace slots — and
    a *low* phase that abandons the groups above its entitlement again.
    ``intensity`` scales the flapping frequency; ``period_s`` and ``duty``
    shape the cycle.  IGMP edges see membership churn (graft/prune load);
    SIGMA edges bound the gain to the grace windows.
    """

    name = "churn"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._phase_high = False
        self._joined: Set[int] = set()

    def _period_s(self) -> float:
        return max(1e-3, float(self.param("period_s", 4.0)) / self.intensity)

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        phase_high = churn_phase(
            ctx.now - self.start_s, self._period_s(), float(self.param("duty", 0.5))
        )
        action = decide_churn(
            phase_high,
            self._phase_high,
            ctx.entitled_level(slot),
            ctx.group_count,
            self._joined,
        )
        for group in action.join_groups:
            ctx.igmp_join(group)
            self._joined.add(group)
        if action.session_rejoin:
            ctx.sigma_rejoin()
        for group in action.leave_groups:
            ctx.igmp_leave(group)
        if not phase_high and self._phase_high:
            self._joined.clear()
        self._phase_high = phase_high
        return False

    def on_stop(self, ctx: AttackContext) -> None:
        for group in sorted(self._joined):
            if group > ctx.level:
                ctx.igmp_leave(group)
        self._joined.clear()
        self._phase_high = False


@register_adversary
class KeyReplayStrategy(AttackStrategy):
    """Replay legitimately reconstructed keys out of scope (§4.1).

    Keys the honest pipeline reconstructs are retained and re-submitted for
    *forbidden* groups and for later slots, hoping the router confuses key
    scopes.  It does not: keys are stored per (governed slot, group address),
    so every replay lands in ``invalid_submissions``.
    """

    name = "key-replay"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stash: Dict[int, Dict[int, int]] = {}

    def on_keys(self, ctx: AttackContext, governed_slot: int, keys: Dict[int, int]) -> None:
        if not keys:
            return
        self._stash[governed_slot] = dict(keys)
        for old in [s for s in self._stash if s < governed_slot - REPLAY_RETAINED_SLOTS]:
            del self._stash[old]

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        if not ctx.protected:
            return
        governed = slot + 2
        per_group = attack_rate(float(self.param("replays_per_group", 1)), self.intensity)
        candidates: List[int] = []
        for stash_slot in sorted(self._stash, reverse=True):
            candidates.extend(self._stash[stash_slot].values())
        if not candidates:
            return
        volley = replay_volley(
            candidates, ctx.entitled_level(governed), ctx.group_count, per_group
        )
        ctx.replay_attempts += ctx.member_count * len(volley)
        ctx.sigma_subscribe(
            governed, [(ctx.address_of(group), key) for group, key in volley]
        )


@register_adversary
class KeyGuessingStrategy(AttackStrategy):
    """Submit uniformly random keys for forbidden groups (§4.2).

    With ``b``-bit keys, ``y`` guesses per slot succeed with probability
    ``y / 2^b`` — negligible at the paper's 16 bits, and the router's
    guessing alarm counts the attempts.  ``intensity`` scales the guess rate.
    """

    name = "key-guessing"

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        if not ctx.protected:
            return
        governed = slot + 2
        guesses = attack_rate(float(self.param("guesses_per_slot", 4)), self.intensity)
        key_bits = int(self.param("key_bits", getattr(ctx.receiver, "key_bits", 16)))
        entitled = ctx.entitled_level(governed)
        # One draw budget per slot covers the whole cohort (per-cohort
        # randomness); the flat draw order matches the group-major loop the
        # per-object strategy historically ran, byte for byte.
        needed = max(0, ctx.group_count - entitled) * guesses
        draws = [self.rng.getrandbits(key_bits) for _ in range(needed)]
        volley = guess_volley(entitled, ctx.group_count, guesses, draws)
        ctx.guess_attempts += ctx.member_count * len(volley)
        ctx.sigma_subscribe(
            governed, [(ctx.address_of(group), key) for group, key in volley]
        )


@register_adversary
class JoinStormStrategy(AttackStrategy):
    """Repeat bare IGMP joins for every group at every slot boundary.

    Against an IGMP edge the storm re-grants every group each slot, undoing
    any leave the honest pipeline issued — a persistent inflation that needs
    no state.  A SIGMA edge ignores all of it (``igmp_joins_ignored``), so
    the storm degenerates into control-plane load, which is the point of the
    scenario: protection must hold under message pressure.  ``intensity``
    multiplies the storm width (joins per slot).
    """

    name = "join-storm"

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        bursts = attack_rate(float(self.param("bursts_per_slot", 1)), self.intensity)
        for group in decide_join_storm(bursts, ctx.group_count):
            ctx.igmp_join(group)


@register_adversary
class CollusionStrategy(AttackStrategy):
    """Colluding receivers share reconstructed keys out of band (§4.3).

    Every colluder publishes the keys its honest pipeline reconstructs into a
    named pool and submits pooled keys for groups above its own entitlement.
    The keys are *valid*, so SIGMA accepts them — but they only ever unlock
    what some honest receiver was entitled to, and the colluder's own
    bottleneck still drops the excess, which is exactly the containment the
    paper claims for key-sharing attacks.
    """

    name = "collusion"

    def _pool(self, ctx: AttackContext):
        return ctx.collusion_pool(str(self.param("pool", "default")))

    def on_keys(self, ctx: AttackContext, governed_slot: int, keys: Dict[int, int]) -> None:
        if self.param("publish", True):
            self._pool(ctx).publish(governed_slot, keys, members=ctx.member_count)

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        if not ctx.protected or not self.param("exploit", True):
            return
        governed = slot + 2
        pooled = self._pool(ctx).keys_for(governed)
        volley = collusion_volley(pooled, ctx.entitled_level(governed), ctx.group_count)
        ctx.shared_key_submissions += ctx.member_count * len(volley)
        ctx.sigma_subscribe(
            governed, [(ctx.address_of(group), key) for group, key in volley]
        )
