"""FLID-DS — FLID-DL hardened with DELTA and SIGMA (§5 of the paper).

FLID-DS keeps the congestion control dynamics of FLID-DL (layered groups,
per-slot increase signals, drop-on-loss) but replaces unrestricted IGMP group
management with key-guarded access:

* the **sender** precomputes DELTA keys at the start of every slot ``s`` for
  the governed slot ``s + 2``, embeds the component and decrease fields in
  its data packets, and announces the per-group keys to edge routers through
  FEC-protected SIGMA special packets;
* the **receiver** reconstructs, at the end of every slot, exactly the keys
  its congestion status entitles it to and submits them to its edge router in
  a SIGMA subscription message for slot ``s + 2``;
* the **edge router** (a :class:`~repro.core.sigma.SigmaRouterAgent`)
  validates the keys and stops forwarding any group for which no valid key
  covers the new slot.

Because both the protection pipeline and the congestion response operate at
two-slot granularity, the paper halves the slot duration (250 ms instead of
FLID-DL's 500 ms) so FLID-DS offers the same control granularity (§5.1).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Sequence

from ..core.delta import (
    LayeredDeltaReceiver,
    LayeredDeltaSender,
    ReceiverSlotObservation,
)
from ..core.sigma import SigmaHostInterface, SigmaKeyDistributor
from ..crypto.nonce import NonceGenerator
from ..simulator.monitors import OverheadAccumulator
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.topology import Network
from . import headers
from .churn import ChurnProcess
from .receiver_base import LayeredReceiverBase, SlotRecord
from .sender_base import LayeredSenderBase
from .session import SessionSpec

__all__ = ["FlidDsSender", "FlidDsReceiver"]


class FlidDsSender(LayeredSenderBase):
    """FLID-DL sender augmented with DELTA key generation and SIGMA announcements."""

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        key_bits: int = 16,
        rng: Optional[random.Random] = None,
        suppress_unsubscribed_groups: bool = True,
        overhead: Optional[OverheadAccumulator] = None,
    ) -> None:
        super().__init__(
            network,
            host,
            spec,
            rng=rng,
            suppress_unsubscribed_groups=suppress_unsubscribed_groups,
            overhead=overhead,
        )
        self.key_bits = key_bits
        nonce_rng = network.random.stream(f"delta-nonces-{spec.session_id}")
        self.delta = LayeredDeltaSender(
            spec.group_count, NonceGenerator(bits=key_bits, rng=nonce_rng)
        )
        self.distributor = SigmaKeyDistributor(
            host=host,
            session_id=spec.session_id,
            group_addresses=list(spec.group_addresses),
            key_bits=key_bits,
            overhead=overhead,
        )

    # ------------------------------------------------------------------
    def _on_slot_start(self, slot: int) -> None:
        """Precompute and announce the keys governing slot ``slot + 2``.

        The upgrade authorisations drawn here apply to the governed slot, and
        the same set is advertised in the data packets of the current slot so
        receivers know which increase keys they may reconstruct.
        """
        self._current_upgrades = self._draw_upgrades()
        material = self.delta.begin_slot(slot, self._current_upgrades)
        self.distributor.announce(material)

    def _decorate_packet(self, packet: Packet, group: int, is_last_in_slot: bool) -> None:
        """Attach the DELTA component and decrease fields to a data packet."""
        fields = self.delta.fields_for_packet(group, is_last_in_slot)
        packet.headers[headers.COMPONENT] = fields.component
        if fields.decrease is not None:
            packet.headers[headers.DECREASE] = fields.decrease
        packet.headers[headers.CLOSING] = fields.closing
        field_bits = fields.field_bits(self.key_bits)
        packet.overhead_bits += field_bits
        if self.overhead is not None:
            self.overhead.record_data_packet(packet.size_bits, delta_bits=field_bits)


class FlidDsReceiver(LayeredReceiverBase):
    """FLID-DS receiver: FLID-DL dynamics driven by DELTA keys and SIGMA messages.

    Stands for ``sum(counts)`` members behind one host: DELTA reconstruction
    runs once per slot and the resulting (group, key) pairs go to the edge
    router in one subscription message stamped ``member_count = population``
    — the router verifies each key once and counts a delivery per member, so
    SIGMA's key-table work is O(edge interfaces) rather than O(receivers).
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        counts: Sequence[int] = (1,),
        strategies: Optional[Any] = None,
        churn: Optional[ChurnProcess] = None,
        key_bits: int = 16,
        name: str = "",
    ) -> None:
        super().__init__(
            host,
            spec,
            counts=counts,
            strategies=strategies,
            churn=churn,
            name=name,
        )
        self.network = network
        self.key_bits = key_bits
        self.delta = LayeredDeltaReceiver(spec.group_count)
        self.sigma: Optional[SigmaHostInterface] = None
        #: Subscription level the receiver is entitled to, keyed by the first
        #: slot at which that level takes effect.
        self._level_schedule: Dict[int, int] = {}
        self.subscriptions_sent = 0
        #: Population-weighted count of keys *submitted* on behalf of members
        #: (each submitted pair speaks for every member; the edge router's
        #: ``valid_submissions`` counts the accepted subset).
        self.member_keys_submitted = 0
        self.rejoin_count = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _join_session(self) -> None:
        """SIGMA admission: key-less session-join for the minimal group."""
        self.sigma = SigmaHostInterface(
            self.host,
            self.spec.session_id,
            key_bits=self.key_bits,
            member_count=self.population,
        )
        self.sigma.session_join(self.spec.minimal_group())
        current_slot = int(self.sim.now / self.spec.slot_duration_s)
        self._level_schedule[current_slot] = 1

    # ------------------------------------------------------------------
    # churn accounting (member-weighted SIGMA messages)
    # ------------------------------------------------------------------
    def _set_population(self, population: int) -> None:
        super()._set_population(population)
        # Every subsequent SIGMA message speaks for the new population.
        self.sigma.member_count = population

    def _book_arrivals(self, members: int) -> None:
        """Each arrival wave is one key-less session-join for its members."""
        self.sigma.session_join(self.spec.minimal_group(), members=members)

    def _book_departures(self, members: int) -> None:
        """Departures are silent under SIGMA — exactly like an individual
        receiver that stops submitting keys: they vanish from the member
        counts of subsequent messages instead of sending a farewell."""

    # ------------------------------------------------------------------
    # level bookkeeping
    # ------------------------------------------------------------------
    def entitled_level(self, slot: int) -> int:
        """Subscription level in force during ``slot`` (0 = no access)."""
        applicable = [s for s in self._level_schedule if s <= slot]
        if not applicable:
            return self.level
        return self._level_schedule[max(applicable)]

    def _schedule_level(self, slot: int, level: int) -> None:
        self._level_schedule[slot] = level
        # Keep the schedule bounded: only the recent past matters.
        horizon = slot - 8
        for old in [s for s in self._level_schedule if s < horizon]:
            last = self._level_schedule.pop(old)
            # Preserve continuity for entitled_level queries on older slots.
            self._level_schedule.setdefault(horizon, last)

    # ------------------------------------------------------------------
    # congestion definition (uses the per-slot entitled level)
    # ------------------------------------------------------------------
    def _entitled_groups(self, record: SlotRecord) -> set[int]:
        """FLID-DS entitlement follows the per-slot schedule, not ``self.level``."""
        return set(range(1, self.entitled_level(record.slot) + 1))

    # ------------------------------------------------------------------
    # per-slot decision: reconstruct keys, subscribe, adjust level
    # ------------------------------------------------------------------
    def _apply_decision(self, evaluated_slot: int, record: SlotRecord, congested: bool) -> None:
        if self.sigma is None:
            return
        entitled = self.entitled_level(evaluated_slot)
        governed_slot = evaluated_slot + 2

        if entitled == 0:
            # The receiver holds no keys at all; re-admission through the
            # key-less session-join path is the only way back in (§3.2.2).
            self._rejoin(governed_slot)
            return

        observation = self._build_observation(record, entitled, congested)
        result = self.delta.reconstruct(observation)
        if self._stack is not None:
            # Strategies (key replay, collusion) see every key reconstructed.
            self._stack.on_keys(governed_slot, result.keys)

        if result.keys:
            pairs = [
                (self.spec.address_of(group), key)
                for group, key in result.submitted_pairs()
            ]
            self.sigma.subscribe(governed_slot, pairs)
            self.subscriptions_sent += 1
            self.member_keys_submitted += self.population * len(pairs)

        if congested and result.next_level < entitled:
            # The reduced subscription only takes effect at the governed slot
            # (two slots ahead); congestion observed until then is the same
            # episode, so stay deaf for it plus one settling slot.
            self._enter_deaf_period(governed_slot + 1)

        self._schedule_level(governed_slot, result.next_level)
        self._set_level(result.next_level)

        if result.next_level == 0:
            self._rejoin(governed_slot)

    def _build_observation(
        self, record: SlotRecord, entitled: int, congested: bool
    ) -> ReceiverSlotObservation:
        return ReceiverSlotObservation(
            subscription_level=entitled,
            components=record.components(),
            decrease_fields=record.decrease_fields(),
            lost_groups=frozenset(self._lost_groups(record, congested)),
            upgrade_authorized=frozenset(record.upgrade_groups),
        )

    def _rejoin(self, effective_slot: int) -> None:
        """Fall back to key-less admission after losing every key."""
        self.rejoin_count += 1
        self.sigma.session_join(self.spec.minimal_group())
        self._schedule_level(effective_slot, 1)
        self._set_level(1)
