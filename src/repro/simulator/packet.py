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
  writes a packet once it is sent;
* a router hands the incoming packet itself to its last eligible branch and
  replicates only for the branches before it, so with individual receivers
  a hop usually allocates nothing.

A delivered packet belongs to no one: agents may keep it.
"""

from __future__ import annotations

from typing import Optional

from .address import GroupAddress, NodeAddress

__all__ = ["Packet"]


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
    dest_key:
        ``int(destination)`` precomputed for forwarding-table lookups.
    """

    __slots__ = (
        "source",
        "destination",
        "size_bytes",
        "protocol",
        "headers",
        "overhead_bits",
        "dest_key",
        "multicast",
    )

    def __init__(
        self,
        source: NodeAddress,
        destination: "NodeAddress | GroupAddress",
        size_bytes: int,
        protocol: str = "data",
        headers: Optional[dict] = None,
        overhead_bits: int = 0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive (got {size_bytes})")
        self.source = source
        self.destination = destination
        self.size_bytes = size_bytes
        self.protocol = protocol
        self.headers = {} if headers is None else headers
        self.overhead_bits = overhead_bits
        self.dest_key = destination.value
        self.multicast = type(destination) is GroupAddress

    @property
    def size_bits(self) -> int:
        """Wire size in bits."""
        return self.size_bytes * 8

    def replicate(self) -> "Packet":
        """Zero-copy duplicate for multicast fan-out: the replica shares this
        packet's ``headers`` dictionary and copies every other slot."""
        clone = Packet.__new__(Packet)
        clone.source = self.source
        clone.destination = self.destination
        clone.size_bytes = self.size_bytes
        clone.protocol = self.protocol
        clone.headers = self.headers
        clone.overhead_bits = self.overhead_bits
        clone.dest_key = self.dest_key
        clone.multicast = self.multicast
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Packet({self.protocol} {self.source}->{self.destination} "
            f"{self.size_bytes}B)"
        )
