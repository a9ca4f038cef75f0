"""Sender-side distribution of keys to edge routers.

SIGMA assumes the network infrastructure is trustworthy, so the sender simply
multicasts *special packets* carrying the per-slot key tuples; edge routers
intercept them (a header bit prevents forwarding to local interfaces) and
store the keys (§3.2.1).  Delivery is made robust with forward error
correction rather than acknowledgements.

``SigmaKeyDistributor`` turns a :class:`~repro.core.delta.base.SlotKeyMaterial`
into a :class:`~repro.core.sigma.messages.KeyAnnouncement`, FEC-encodes it and
transmits the coded symbols in one or more special packets addressed to the
session's minimal group — the group every edge router with session receivers
is already part of.  There is no un-coded form: sender and edge router each
build the default :class:`~repro.fec.erasure.ErasureCode`, so they always
agree on the code.  The byte cost of the special packets is recorded in an
:class:`~repro.simulator.monitors.OverheadAccumulator` so measured SIGMA
overhead (Figure 9) can be compared with the analytic model of §5.4.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ...fec.erasure import ErasureCode
from ...simulator.address import GroupAddress
from ...simulator.monitors import OverheadAccumulator
from ...simulator.node import Host
from ...simulator.packet import Packet
from ..delta.base import SlotKeyMaterial
from .messages import ANNOUNCEMENT_HEADER, KeyAnnouncement

__all__ = ["SigmaKeyDistributor"]

#: Header bytes of a special packet (network + SIGMA framing), matching the
#: ``h`` term of the §5.4 overhead expression at a typical IP+UDP cost.
SPECIAL_PACKET_HEADER_BYTES = 28

#: Coded symbols carried by one special packet; a longer announcement is
#: split over several packets.
SYMBOLS_PER_PACKET = 16


class SigmaKeyDistributor:
    """Builds and multicasts the per-slot key announcements of one session."""

    def __init__(
        self,
        host: Host,
        session_id: str,
        group_addresses: Sequence[GroupAddress],
        key_bits: int = 16,
        overhead: Optional[OverheadAccumulator] = None,
    ) -> None:
        if not group_addresses:
            raise ValueError("a session needs at least one group address")
        self.host = host
        self.session_id = session_id
        self.group_addresses = list(group_addresses)
        self.key_bits = key_bits
        self.overhead = overhead
        self._erasure = ErasureCode()
        self.announcements_sent = 0
        self.special_packets_sent = 0
        self.special_bits_sent = 0

    # ------------------------------------------------------------------
    def announce(self, material: SlotKeyMaterial) -> List[Packet]:
        """Distribute the keys of ``material`` to edge routers.

        Returns the special packets that were sent (useful in tests).
        """
        announcement = KeyAnnouncement.from_material(
            self.session_id, material, self.group_addresses
        )
        packets = self._fec_packets(announcement)
        for packet in packets:
            self.host.send(packet)
            self.special_packets_sent += 1
            self.special_bits_sent += packet.size_bits
            if self.overhead is not None:
                self.overhead.record_sigma_packet(packet.size_bits)
        self.announcements_sent += 1
        return packets

    # ------------------------------------------------------------------
    def _minimal_group(self) -> GroupAddress:
        return self.group_addresses[0]

    def _packet_size_bytes(self, symbol_count: int) -> int:
        """Wire size of a special packet carrying ``symbol_count`` coded symbols.

        Every coded symbol costs a 16-bit index plus a key-sized value; the
        framing adds the fixed header bytes.
        """
        symbol_bits = symbol_count * (16 + max(self.key_bits, 32))
        return SPECIAL_PACKET_HEADER_BYTES + math.ceil(symbol_bits / 8)

    def _base_packet(self, size_bytes: int) -> Packet:
        return Packet(
            source=self.host.address,
            destination=self._minimal_group(),
            size_bytes=size_bytes,
            protocol="sigma",
            headers={"sigma_intercept": True},
            overhead_bits=size_bytes * 8,
        )

    def _fec_packets(self, announcement: KeyAnnouncement) -> List[Packet]:
        source_symbols = announcement.to_ints()
        coded = self._erasure.encode(source_symbols)
        packets: List[Packet] = []
        for start in range(0, len(coded), SYMBOLS_PER_PACKET):
            chunk = coded[start : start + SYMBOLS_PER_PACKET]
            packet = self._base_packet(self._packet_size_bytes(len(chunk)))
            packet.headers[ANNOUNCEMENT_HEADER] = {
                "session_id": self.session_id,
                "governed_slot": announcement.governed_slot,
                "source_count": len(source_symbols),
                "symbols": chunk,
            }
            packets.append(packet)
        return packets
