"""Addressing for the simulated network.

Two address families exist in the simulator, mirroring IPv4 semantics at the
level of detail the paper's evaluation needs:

* **Unicast addresses** identify a single host or router interface and are
  simple integers assigned by the :class:`~repro.simulator.topology.Network`.
* **Multicast group addresses** identify a multicast group.  They live in a
  separate namespace (the analogue of the 224.0.0.0/4 class-D space) so the
  forwarding code can distinguish group-addressed packets without a flag.

The paper's threat model explicitly assumes that group addresses are *not*
secret (a misbehaving receiver can discover them with tools like MSTAT), so
nothing in the design relies on address secrecy; misbehaving receivers in
this code base are handed the full group list of their session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "MULTICAST_BASE",
    "NodeAddress",
    "GroupAddress",
    "is_multicast",
    "GroupAddressAllocator",
]

#: Start of the multicast address space.  Any integer address at or above
#: this value is treated as a group address by the forwarding plane.
MULTICAST_BASE = 0x0E00_0000  # mirrors 224.0.0.0


@dataclass(frozen=True, order=True)
class NodeAddress:
    """Unicast address of a node (host or router)."""

    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value < MULTICAST_BASE):
            raise ValueError(
                f"unicast address {self.value:#x} outside unicast range "
                f"[0, {MULTICAST_BASE:#x})"
            )

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"node:{self.value}"


@dataclass(frozen=True, order=True)
class GroupAddress:
    """Multicast group address.

    Group addresses compare and hash by value so they can key routing and
    SIGMA key tables directly.
    """

    value: int

    def __post_init__(self) -> None:
        if self.value < MULTICAST_BASE:
            raise ValueError(
                f"group address {self.value:#x} below multicast base {MULTICAST_BASE:#x}"
            )

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"group:{self.value - MULTICAST_BASE}"


def is_multicast(address: "NodeAddress | GroupAddress | int") -> bool:
    """Return True when ``address`` falls in the multicast range."""
    if isinstance(address, GroupAddress):
        return True
    if isinstance(address, NodeAddress):
        return False
    return int(address) >= MULTICAST_BASE


class GroupAddressAllocator:
    """Hands out fresh multicast group addresses.

    Multi-group sessions (FLID-DL, FLID-DS) ask the allocator for one
    address per group.  Addresses are never reused within a simulation,
    which mirrors how session announcements assign distinct class-D
    addresses per layer.  The first address handed out is ``MULTICAST_BASE + 1``.
    """

    def __init__(self) -> None:
        self._next = MULTICAST_BASE + 1

    def allocate(self) -> GroupAddress:
        """Return the next unused group address."""
        address = GroupAddress(self._next)
        self._next += 1
        return address

    def allocate_block(self, count: int) -> list[GroupAddress]:
        """Allocate ``count`` consecutive group addresses (one session)."""
        if count <= 0:
            raise ValueError(f"count must be positive (got {count})")
        return [self.allocate() for _ in range(count)]

    def allocated(self) -> Iterator[GroupAddress]:
        """Iterate over every address handed out so far."""
        for value in range(MULTICAST_BASE + 1, self._next):
            yield GroupAddress(value)
