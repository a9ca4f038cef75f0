"""The capability surface strategies act through.

An :class:`AttackContext` is created per adversarial receiver and shared by
every strategy stacked on it.  It exposes exactly the attack surface of the
paper's threat model (§2.1): the receiver's edge router is the single point
of access, reachable through IGMP membership reports and SIGMA messages, plus
the receiver's own subscription state.  Strategies never touch router or
forwarding internals directly — whatever an attack achieves, it achieves
through the same messages an honest receiver could send.

The context also carries the per-receiver attack counters (join attempts,
guesses, replays, shared-key submissions) that the protection metrics
report, and hands out named collusion pools: plain
per-network dictionaries through which colluding receivers exchange
reconstructed keys out of band (§4.3's key-sharing attack).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..simulator.address import GroupAddress
from ..simulator.igmp import IgmpHostInterface

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..multicast_cc.receiver_base import LayeredReceiverBase

__all__ = ["AttackContext", "CollusionPool", "COUNTER_KEYS"]

#: Governed slots a collusion pool retains before pruning (memory bound).
POOL_RETAINED_SLOTS = 8

#: The attack counters every context carries, in export order.
COUNTER_KEYS = (
    "igmp_attempts",
    "guess_attempts",
    "replay_attempts",
    "shared_key_submissions",
    "suppressed_slots",
)


class CollusionPool:
    """Out-of-band key exchange between colluding receivers.

    Maps governed slot -> {group index -> key}.  Publishing merges; readers
    get whatever any colluder managed to reconstruct.  The pool lives on the
    network object, so colluders across routers (and sessions) can share it
    while separate experiments never do.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._keys: Dict[int, Dict[int, int]] = {}
        self.published = 0

    def publish(self, governed_slot: int, keys: Dict[int, int], members: int = 1) -> None:
        """Merge ``keys`` for ``governed_slot`` on behalf of ``members`` colluders.

        A cohort of N colluders reconstructs identical keys and publishes
        them once with ``members=N``; the ``published`` tally then books
        exactly the N per-member contributions that N individual colluders
        would have booked, while the merged key map is identical either way
        (the member-weighted aggregation design of ``docs/threat-model.md``).
        """
        if not keys:
            return
        slot_keys = self._keys.setdefault(governed_slot, {})
        slot_keys.update(keys)
        self.published += len(keys) * members
        for old in [s for s in self._keys if s < governed_slot - POOL_RETAINED_SLOTS]:
            del self._keys[old]

    def keys_for(self, governed_slot: int) -> Dict[int, int]:
        return dict(self._keys.get(governed_slot, {}))


class AttackContext:
    """Capabilities and shared counters of one adversarial receiver."""

    def __init__(self, receiver: "LayeredReceiverBase") -> None:
        self.receiver = receiver
        self.network = receiver.network
        self.spec = receiver.spec
        self.sim = receiver.sim
        self._bare_igmp: Optional[IgmpHostInterface] = None
        #: Attackers this context speaks for: the receiver's population at
        #: admission.  Every attack counter is booked per member through this
        #: weight, so one receiver standing for N attackers reports exactly
        #: what N one-member receivers would — except under key guessing,
        #: whose one draw budget per receiver is one member's guesses
        #: (ROADMAP item 16; the strict xfail
        #: ``test_key_guessing_block_guesses_like_its_members`` pins it).
        self.member_count = receiver.population
        # Attack counters, shared by all strategies on this receiver.
        for key in COUNTER_KEYS:
            setattr(self, key, 0)

    # ------------------------------------------------------------------
    # receiver state
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def level(self) -> int:
        return self.receiver.level

    @property
    def group_count(self) -> int:
        return self.spec.group_count

    @property
    def protected(self) -> bool:
        """True when the receiver speaks FLID-DS (SIGMA-guarded edge)."""
        return getattr(self.receiver, "sigma", None) is not None

    def address_of(self, group: int) -> GroupAddress:
        return self.spec.address_of(group)

    def entitled_level(self, slot: int) -> int:
        """The level the receiver legitimately holds for ``slot``."""
        entitled = getattr(self.receiver, "entitled_level", None)
        if entitled is not None:
            return entitled(slot)
        return self.receiver.level

    def forbidden_groups(self, slot: int) -> List[int]:
        """Groups above the receiver's legitimate entitlement for ``slot``."""
        return list(range(self.entitled_level(slot) + 1, self.group_count + 1))

    def set_level(self, level: int) -> None:
        """Overwrite the receiver's subscription level (and its history)."""
        self.receiver._set_level(level)

    # ------------------------------------------------------------------
    # IGMP surface
    # ------------------------------------------------------------------
    def _igmp(self) -> IgmpHostInterface:
        """The receiver's IGMP interface, or a bare one for SIGMA hosts.

        A FLID-DS receiver has no IGMP interface of its own; the bare one
        sends the same membership reports over the same control channel,
        which a SIGMA edge router ignores — exactly the paper's Figure 7
        attack vector.
        """
        own = getattr(self.receiver, "igmp", None)
        if own is not None:
            return own
        if self._bare_igmp is None:
            self._bare_igmp = IgmpHostInterface(self.receiver.host)
        return self._bare_igmp

    def igmp_join(self, group: int) -> None:
        """Send an IGMP membership report for ``group`` (booked per member)."""
        self.igmp_attempts += self.member_count
        self._igmp().join(self.address_of(group))

    def igmp_leave(self, group: int) -> None:
        self._igmp().leave(self.address_of(group))

    def igmp_join_all(self) -> None:
        """One membership report per group, in ascending group order."""
        for group in range(1, self.group_count + 1):
            self.igmp_join(group)

    # ------------------------------------------------------------------
    # SIGMA surface
    # ------------------------------------------------------------------
    def sigma_subscribe(self, governed_slot: int, pairs: List[Tuple[GroupAddress, int]]) -> None:
        """Submit (group address, key) pairs to the edge router, if SIGMA."""
        sigma = getattr(self.receiver, "sigma", None)
        if sigma is not None and pairs:
            sigma.subscribe(governed_slot, pairs)

    def sigma_rejoin(self) -> None:
        """Re-run the key-less session-join (grace-window churn vector)."""
        sigma = getattr(self.receiver, "sigma", None)
        if sigma is not None:
            sigma.session_join(self.spec.minimal_group())

    # ------------------------------------------------------------------
    # collusion
    # ------------------------------------------------------------------
    def collusion_pool(self, name: str) -> CollusionPool:
        """The named key-sharing pool, shared across this network's receivers."""
        pools = getattr(self.network, "_adversary_pools", None)
        if pools is None:
            pools = {}
            self.network._adversary_pools = pools
        pool = pools.get(name)
        if pool is None:
            pool = CollusionPool(name)
            pools[name] = pool
        return pool

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Attack counters, in the shape the protection metrics export."""
        return {key: getattr(self, key) for key in COUNTER_KEYS}
