"""Concrete adversary strategies.

Each strategy models one self-beneficial misbehaviour from the paper's threat
analysis (§2, §4) or the adaptive-misbehaviour literature;
``docs/threat-model.md`` maps every class to its taxonomy entry.  Strategies are
deliberately small — composition (stacking several on one receiver) is how
richer attackers are built, e.g. the Figure 7 attacker is inflated-join +
key-replay + key-guessing.

Each strategy decides its per-slot action inline from what the capability
context exposes — entitlement, stash, pooled keys, and for key guessing the
slot's draw budget from the strategy's seeded stream, drawn once per
receiver — and books it through the context at ``member_count`` weight, so
one receiver standing for N attackers acts exactly as N one-member receivers
would.  Key guessing is the exception: one draw budget per receiver is one
member's guesses, not N members' (ROADMAP item 16; the strict xfail
``test_key_guessing_block_guesses_like_its_members`` pins it).  The
exhaustive small-model harness (``tests/properties/exhaustive.py``) drives
every class here against an independent reference model.
"""

from __future__ import annotations

from typing import Dict, Set, TYPE_CHECKING

from .context import AttackContext
from .registry import register_adversary
from .strategy import AttackStrategy, Param

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
    parameters = {"suppress_honest": Param(bool, True)}

    @classmethod
    def effective_intensity(cls, intensity: float) -> float:
        # The target is the whole session for every intensity >= 1.
        return min(intensity, 1.0)

    def on_start(self, ctx: AttackContext) -> None:
        # ``intensity`` of the session's groups, clamped to a valid level.
        target = max(1, min(ctx.group_count, round(self.intensity * ctx.group_count)))
        for group in range(1, target + 1):
            ctx.igmp_join(group)
        if self.param("suppress_honest"):
            ctx.set_level(target)

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        return self.param("suppress_honest")


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
    parameters = {"mode": Param(str, "mask", ("mask", "hold"))}

    @classmethod
    def effective_intensity(cls, intensity: float) -> float:
        # No hook reads intensity.
        return 1.0

    def filter_congestion(
        self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool
    ) -> bool:
        return congested and self.param("mode") != "mask"

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        return self.param("mode") == "hold" and congested


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
    parameters = {"period_s": Param(float, 4.0), "duty": Param(float, 0.5)}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._phase_high = False
        self._joined: Set[int] = set()

    def on_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> bool:
        # The cycle spends ``duty`` (clamped to [0, 1]) of every period —
        # floored to a millisecond — in the high phase.
        period_s = max(1e-3, self.param("period_s") / self.intensity)
        duty = min(1.0, max(0.0, self.param("duty")))
        phase_high = (ctx.now - self.start_s) % period_s < duty * period_s
        if phase_high and not self._phase_high:
            # Rising edge: join everything and re-run the key-less session-join.
            ctx.igmp_join_all()
            self._joined.update(range(1, ctx.group_count + 1))
            ctx.sigma_rejoin()
        elif self._phase_high and not phase_high:
            # Falling edge: abandon the joined groups above the entitlement.
            entitled = ctx.entitled_level(slot)
            for group in sorted(self._joined):
                if group > entitled:
                    ctx.igmp_leave(group)
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
    parameters = {"replays_per_group": Param(int, 1)}

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
        # The freshest stashed keys, replayed for every forbidden group,
        # group-major.
        candidates = [
            key
            for stash_slot in sorted(self._stash, reverse=True)
            for key in self._stash[stash_slot].values()
        ]
        if not candidates:
            return
        replayed = candidates[: self.rate("replays_per_group")]
        pairs = [
            (ctx.address_of(group), key)
            for group in ctx.forbidden_groups(governed)
            for key in replayed
        ]
        ctx.replay_attempts += ctx.member_count * len(pairs)
        ctx.sigma_subscribe(governed, pairs)


@register_adversary
class KeyGuessingStrategy(AttackStrategy):
    """Submit uniformly random keys for forbidden groups (§4.2).

    With ``b``-bit keys, ``y`` guesses per slot succeed with probability
    ``y / 2^b`` — negligible at the paper's 16 bits, and the router's
    guessing alarm counts the attempts.  ``intensity`` scales the guess rate.
    """

    name = "key-guessing"
    #: ``key_bits`` of ``None`` guesses keys as wide as the receiver's; a
    #: session's keys are 1 to 60 bits wide (``SessionDecl.key_bits``, at
    #: most ``experiments.spec.MAX_KEY_BITS``).
    parameters = {
        "guesses_per_slot": Param(int, 4),
        "key_bits": Param(int, None, range(1, 61)),
    }
    #: Each host draws its guesses from its own host-named stream.
    interchangeable = False

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        if not ctx.protected:
            return
        governed = slot + 2
        guesses = self.rate("guesses_per_slot")
        key_bits = self.param("key_bits") or getattr(ctx.receiver, "key_bits", 16)
        # One draw budget per slot covers every member the receiver stands
        # for, drawn group-major: ``guesses`` keys per forbidden group.
        pairs = [
            (ctx.address_of(group), self.rng.getrandbits(key_bits))
            for group in ctx.forbidden_groups(governed)
            for _ in range(guesses)
        ]
        ctx.guess_attempts += ctx.member_count * len(pairs)
        ctx.sigma_subscribe(governed, pairs)


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
    parameters = {"bursts_per_slot": Param(int, 1)}

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        for _ in range(self.rate("bursts_per_slot")):
            ctx.igmp_join_all()


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
    parameters = {
        "pool": Param(str, "default"),
        "publish": Param(bool, True),
        "exploit": Param(bool, True),
    }
    #: Colluders behind every edge feed and read one shared pool.
    interchangeable = False

    @classmethod
    def effective_intensity(cls, intensity: float) -> float:
        # No hook reads intensity.
        return 1.0

    def _pool(self, ctx: AttackContext):
        return ctx.collusion_pool(self.param("pool"))

    def on_keys(self, ctx: AttackContext, governed_slot: int, keys: Dict[int, int]) -> None:
        if self.param("publish"):
            self._pool(ctx).publish(governed_slot, keys, members=ctx.member_count)

    def after_slot(self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool) -> None:
        if not ctx.protected or not self.param("exploit"):
            return
        governed = slot + 2
        pooled = self._pool(ctx).keys_for(governed)
        pairs = [
            (ctx.address_of(group), pooled[group])
            for group in ctx.forbidden_groups(governed)
            if group in pooled
        ]
        ctx.shared_key_submissions += ctx.member_count * len(pairs)
        ctx.sigma_subscribe(governed, pairs)
