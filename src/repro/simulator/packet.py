"""Packet model.

A :class:`Packet` is a plain record: headers are attributes, the payload is
never materialised (only its size in bytes matters for link serialization and
queueing).  Protocol-specific headers — TCP sequence numbers, FLID-DL slot
numbers, DELTA component fields, SIGMA control messages — ride in the
``headers`` dictionary so the forwarding plane stays protocol-agnostic, which
is exactly the property Requirement 3 of the paper demands from the network.

Packet sizes follow the paper's evaluation: data packets are 576 bytes in the
protection/fairness experiments (§5.1) and 500 bytes in the overhead analysis
(§5.4).  DELTA adds small per-packet fields whose size is tracked separately
(``overhead_bits``) so measured overhead can be compared with the analytic
model without perturbing the packet-level dynamics, mirroring how the paper
reports overhead as a ratio of DELTA/SIGMA bits to data bits.

Hot-path design
---------------
The forwarding plane replicates multicast packets at every branching router,
so packet construction and duplication dominate the simulator's allocation
profile.  Three choices keep them cheap:

* ``__slots__`` storage with the multicast flag and the integer routing key
  (``dest_key``) precomputed once at construction instead of per hop;
* :meth:`Packet.replicate` — the router fan-out primitive — shares the
  ``headers`` dictionary between replicas instead of copying it; nothing
  writes a packet's headers once it is sent;
* a :class:`PacketPool` recycles the dominant multicast DATA/key packet
  objects.  Only the forwarding plane releases packets, and only at points
  where the packet provably has no remaining consumer (at a router with no
  branch to send it down, delivered to the final host, or dropped by a
  queue).
  Receiver agents must therefore not retain delivered packets beyond
  ``handle_packet`` — they extract header values instead, which the
  aliasing property tests enforce.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from .address import GroupAddress, NodeAddress

__all__ = [
    "Packet",
    "PacketPool",
]

_packet_ids = itertools.count(1)

_EMPTY_HEADERS: dict = {}


class Packet:
    """A simulated packet.

    Attributes
    ----------
    source:
        Unicast address of the originating node.
    destination:
        Either a :class:`NodeAddress` (unicast) or :class:`GroupAddress`
        (multicast).
    size_bytes:
        Total wire size used for serialization and queueing decisions.
    protocol:
        Short string tag identifying the owning protocol (``"tcp"``,
        ``"flid"``, ``"cbr"``, ``"sigma"`` ...).  Purely informational for
        monitors; routers never branch on it.
    headers:
        Free-form protocol headers.  DELTA fields (component, decrease) and
        SIGMA control payloads are carried here.  Treated as immutable once
        the packet is sent; replicas share the dictionary by reference.
    overhead_bits:
        Number of bits in the packet that are DELTA/SIGMA overhead rather
        than application data; used by the measured-overhead accounting.
    created_at:
        Simulated time at which the packet was created by its sender.
    dest_key:
        ``int(destination)`` precomputed for forwarding-table lookups.
    hop_count:
        Number of links traversed so far (per replica).
    """

    __slots__ = (
        "source",
        "destination",
        "size_bytes",
        "protocol",
        "headers",
        "overhead_bits",
        "created_at",
        "uid",
        "hop_count",
        "dest_key",
        "multicast",
        "_pool",
    )

    def __init__(
        self,
        source: NodeAddress,
        destination: "NodeAddress | GroupAddress",
        size_bytes: int,
        protocol: str = "data",
        headers: Optional[dict] = None,
        overhead_bits: int = 0,
        created_at: float = 0.0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive (got {size_bytes})")
        self.source = source
        self.destination = destination
        self.size_bytes = size_bytes
        self.protocol = protocol
        self.headers = {} if headers is None else headers
        self.overhead_bits = overhead_bits
        self.created_at = created_at
        self.uid = next(_packet_ids)
        self.hop_count = 0
        self.dest_key = destination.value
        self.multicast = type(destination) is GroupAddress
        self._pool: Optional["PacketPool"] = None

    @property
    def size_bits(self) -> int:
        """Wire size in bits."""
        return self.size_bytes * 8

    def replicate(self, pool: Optional["PacketPool"] = None) -> "Packet":
        """Zero-copy duplicate for multicast fan-out.

        The replica shares this packet's ``headers`` dictionary (no copy) and
        carries its own ``hop_count``.  When ``pool`` is given, the replica is
        drawn from it and will be recycled once the forwarding plane proves it
        dead.
        """
        if pool is not None:
            clone = pool.acquire_blank()
        else:
            clone = Packet.__new__(Packet)
            clone.uid = next(_packet_ids)
            clone._pool = None
        clone.source = self.source
        clone.destination = self.destination
        clone.size_bytes = self.size_bytes
        clone.protocol = self.protocol
        clone.headers = self.headers
        clone.overhead_bits = self.overhead_bits
        clone.created_at = self.created_at
        clone.hop_count = self.hop_count
        clone.dest_key = self.dest_key
        clone.multicast = self.multicast
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Packet(#{self.uid} {self.protocol} {self.source}->{self.destination} "
            f"{self.size_bytes}B)"
        )


class PacketPool:
    """Bounded free-list of :class:`Packet` objects for the multicast plane.

    The pool only ever hands out packets it previously received back through
    :meth:`release`, and :meth:`release` is called exclusively by the
    forwarding plane at the three points where a packet is provably dead:

    * a router had no eligible branch to send it down (otherwise the last
      branch carries the packet itself on),
    * the destination host dispatched it to its agents,
    * a drop-tail queue rejected it (after the drop hook ran).

    Packets acquired from a pool are tagged with it; foreign packets (TCP
    segments the sender may retransmit, test fixtures) pass through
    :meth:`release` untouched, so pooling is opt-in per packet, never
    ambient.
    """

    __slots__ = ("_free", "max_size", "recycled", "allocated")

    def __init__(self, max_size: int = 4096) -> None:
        self._free: List[Packet] = []
        self.max_size = max_size
        #: Number of acquisitions served from the free list (introspection).
        self.recycled = 0
        #: Number of fresh allocations made on pool miss (introspection).
        self.allocated = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire_blank(self) -> Packet:
        """A pool-tagged packet with *unset* fields (callers must fill them)."""
        free = self._free
        if free:
            self.recycled += 1
            packet = free.pop()
        else:
            self.allocated += 1
            packet = Packet.__new__(Packet)
        packet._pool = self
        packet.uid = next(_packet_ids)
        return packet

    def acquire(
        self,
        source: NodeAddress,
        destination: "NodeAddress | GroupAddress",
        size_bytes: int,
        protocol: str = "data",
        headers: Optional[dict] = None,
        overhead_bits: int = 0,
        created_at: float = 0.0,
    ) -> Packet:
        """A fully initialised pool-tagged packet (the sender-side entry)."""
        packet = self.acquire_blank()
        packet.source = source
        packet.destination = destination
        packet.size_bytes = size_bytes
        packet.protocol = protocol
        packet.headers = {} if headers is None else headers
        packet.overhead_bits = overhead_bits
        packet.created_at = created_at
        packet.hop_count = 0
        packet.dest_key = destination.value
        packet.multicast = type(destination) is GroupAddress
        return packet

    def release(self, packet: Packet) -> None:
        """Return a dead pool packet to the free list (no-op for foreign ones).

        The packet's ``headers`` reference is dropped but the dictionary is
        never mutated: replicas sharing it stay valid.  Reuse assigns a new
        ``uid``, so stale references are detectable in debugging.  The pool
        tag doubles as the membership guard: releasing clears it, so a
        double release (or releasing a foreign packet) is a no-op.
        """
        if packet._pool is not self:
            return
        packet._pool = None
        free = self._free
        if len(free) >= self.max_size:
            return
        packet.headers = _EMPTY_HEADERS
        packet.source = None  # type: ignore[assignment]
        packet.destination = None  # type: ignore[assignment]
        free.append(packet)
