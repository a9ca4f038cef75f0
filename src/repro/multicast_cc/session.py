"""Multi-group session descriptions.

A multi-group multicast session is defined by the number of groups, the rate
of the minimal group, and how the cumulative rate grows with the subscription
level.  The paper's evaluation uses 10 groups, a 100 Kbps minimal group and a
multiplicative factor of 1.5 per group (§5.1), i.e. the cumulative rate of
level ``g`` is ``100 Kbps × 1.5^(g-1)`` and the full session tops out around
3.8 Mbps.

``SessionSpec`` captures those parameters plus the packet size and slot
duration, and provides the per-group (incremental) rates the senders need and
the per-group packets-per-slot counts both DELTA and the overhead model need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..simulator.address import GroupAddress

__all__ = ["SessionSpec", "fair_level_for_rate", "INCREASE_DECAY", "BASE_UPGRADE_INTERVAL_S"]

#: Decay of the upgrade-authorisation rate per group above group 2 (see
#: :meth:`SessionSpec.upgrade_probability`).
INCREASE_DECAY = 0.5
#: Mean interval between upgrade authorisations for group 2; higher groups
#: are authorised geometrically less often.  Expressing the signal rate in
#: seconds (rather than per slot) keeps FLID-DL (500 ms slots) and FLID-DS
#: (250 ms slots) probing at the same real-time rate, as §5.1 intends.
BASE_UPGRADE_INTERVAL_S = 0.5


@dataclass(frozen=True)
class SessionSpec:
    """Static description of one layered multicast session."""

    session_id: str
    group_count: int = 10
    base_rate_bps: float = 100_000.0
    rate_factor: float = 1.5
    packet_bytes: int = 576
    slot_duration_s: float = 0.5
    #: Group addresses, minimal group first.  Assigned by the experiment
    #: harness from the network's allocator.
    group_addresses: tuple[GroupAddress, ...] = ()

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ValueError("group_count must be at least 1")
        if self.base_rate_bps <= 0:
            raise ValueError("base_rate_bps must be positive")
        if self.rate_factor < 1.0:
            raise ValueError("rate_factor must be >= 1")
        if self.packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if self.slot_duration_s <= 0:
            raise ValueError("slot_duration_s must be positive")
        if self.group_addresses and len(self.group_addresses) != self.group_count:
            raise ValueError(
                f"need {self.group_count} group addresses, got {len(self.group_addresses)}"
            )

    # ------------------------------------------------------------------
    # rates
    # ------------------------------------------------------------------
    def cumulative_rate_bps(self, level: int) -> float:
        """Aggregate rate of subscription level ``level`` (groups 1..level)."""
        if level <= 0:
            return 0.0
        level = min(level, self.group_count)
        return self.base_rate_bps * (self.rate_factor ** (level - 1))

    def group_rate_bps(self, group: int) -> float:
        """Rate of the individual group ``group`` (its layer's increment)."""
        if not (1 <= group <= self.group_count):
            raise ValueError(f"group {group} outside 1..{self.group_count}")
        if group == 1:
            return self.base_rate_bps
        return self.cumulative_rate_bps(group) - self.cumulative_rate_bps(group - 1)

    def max_rate_bps(self) -> float:
        """Cumulative rate of the maximal subscription level."""
        return self.cumulative_rate_bps(self.group_count)

    # ------------------------------------------------------------------
    # packet arithmetic
    # ------------------------------------------------------------------
    def packet_interval_s(self, group: int) -> float:
        """Inter-packet spacing for ``group`` at its layer rate."""
        return self.packet_bytes * 8.0 / self.group_rate_bps(group)

    def packets_per_slot(self, group: int) -> int:
        """Average number of packets ``group`` carries per time slot."""
        return max(1, round(self.group_rate_bps(group) * self.slot_duration_s / (self.packet_bytes * 8.0)))

    # ------------------------------------------------------------------
    # subscription guidance
    # ------------------------------------------------------------------
    def upgrade_probability(self, group: int) -> float:
        """Per-slot probability that an upgrade to ``group`` is authorised.

        FLID-DL issues increase signals whose frequency decays for higher
        layers so that probing of expensive layers is rare; we model this as
        a geometric decay controlled by :data:`INCREASE_DECAY`.  Group ``g`` is
        authorised on average every ``BASE_UPGRADE_INTERVAL_S /
        INCREASE_DECAY^(g-2)`` seconds, independently of the slot duration,
        so the unprotected and protected protocols probe at the same
        real-time rate despite their different slot lengths.
        """
        if group < 2 or group > self.group_count:
            return 0.0
        mean_interval_s = BASE_UPGRADE_INTERVAL_S / (INCREASE_DECAY ** (group - 2))
        return min(1.0, self.slot_duration_s / mean_interval_s)

    def fair_level(self, available_bps: float) -> int:
        """Highest level whose cumulative rate fits within ``available_bps``."""
        return fair_level_for_rate(
            available_bps, self.base_rate_bps, self.rate_factor, self.group_count
        )

    def minimal_group(self) -> GroupAddress:
        if not self.group_addresses:
            raise ValueError("session has no group addresses assigned")
        return self.group_addresses[0]

    def address_of(self, group: int) -> GroupAddress:
        if not self.group_addresses:
            raise ValueError("session has no group addresses assigned")
        return self.group_addresses[group - 1]

    def group_index_of(self, address: GroupAddress) -> Optional[int]:
        """1-based group index of ``address`` or None when not in this session."""
        for index, candidate in enumerate(self.group_addresses, start=1):
            if int(candidate) == int(address):
                return index
        return None

    def with_addresses(self, addresses: Sequence[GroupAddress]) -> "SessionSpec":
        """Return a copy of the spec bound to concrete group addresses."""
        import dataclasses

        return dataclasses.replace(self, group_addresses=tuple(addresses))


def fair_level_for_rate(
    available_bps: float, base_rate_bps: float, rate_factor: float, group_count: int
) -> int:
    """Highest subscription level whose cumulative rate fits ``available_bps``.

    Returns 0 when even the minimal group does not fit.
    """
    if available_bps < base_rate_bps:
        return 0
    if rate_factor == 1.0:
        return min(group_count, 1)
    level = 1 + math.floor(math.log(available_bps / base_rate_bps, rate_factor))
    return int(max(0, min(group_count, level)))
