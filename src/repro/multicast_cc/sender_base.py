"""Common machinery of the FLID-DL and FLID-DS senders.

A layered-multicast sender transmits every group (layer) of its session at
the layer's rate, stamping each packet with the session id, group index,
slot index, per-group sequence number and the slot's upgrade-authorisation
signal.  FLID-DS additionally decorates packets with DELTA fields and
announces keys to edge routers, which it does by overriding the two hooks
:meth:`_on_slot_start` and :meth:`_decorate_packet`.

To keep large experiments tractable the sender *suppresses* transmission of
groups that currently have no subscribed receivers (the packets would be
pruned at the first-hop router anyway); this is purely a simulation-cost
optimisation and is on by default.  Sequence numbers only advance for packets
actually transmitted so suppression never manufactures phantom losses.

A suppressed group costs no engine events either: the tick that finds its
group without members **parks** — its next firing time goes into a
sender-local heap of ``(time, group)``, at most ``group_count`` entries,
instead of the engine's — and the multicast service calls
:meth:`LayeredSenderBase._on_first_member` when the group gains a member,
which puts the tick back into the engine at the time it would have fired.
The groups of one sender share one RNG stream (tick jitter and upgrade
draws), so the skipped ticks are *replayed* rather than dropped.  The
catch-up invariant: **no draw from** ``self.rng`` **and no membership read
without** :meth:`LayeredSenderBase._catch_up` **first**.  It replays, in time
order, every parked tick that lies before ``sim.now`` — one jitter draw and
one ``packets_suppressed`` count each, exactly what the tick would have done
as an engine event — and runs at the top of every live tick, ahead of every
slot-start hook, in the first-member hook, in :meth:`LayeredSenderBase.stop`
and on every read of ``packets_suppressed``.  RNG stream, tick times, packets
and counters are therefore those of a sender that fires every tick; the
per-tick loop survives as the oracle in
``tests/multicast_cc/test_sender_parking.py``.
"""

from __future__ import annotations

import random
from heapq import heapify, heappush, heapreplace
from typing import Dict, List, Optional, Tuple

from ..core.timeslot import SlotClock
from ..simulator.address import GroupAddress
from ..simulator.monitors import OverheadAccumulator
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.topology import Network
from . import headers
from .session import SessionSpec

__all__ = ["LayeredSenderBase"]

# Tick spacing is the nominal interval times ``rng.uniform(0.9, 1.1)``,
# spelled out as the ``a + (b - a) * random()`` that ``uniform`` computes so
# the catch-up loop pays one C call per replayed tick.
_JITTER_LOW = 0.9
_JITTER_SPAN = 1.1 - 0.9


class LayeredSenderBase:
    """Sends the layered groups of one session and draws upgrade signals."""

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        rng: Optional[random.Random] = None,
        suppress_unsubscribed_groups: bool = True,
        overhead: Optional[OverheadAccumulator] = None,
    ) -> None:
        if not spec.group_addresses:
            raise ValueError("session spec must have group addresses assigned")
        self.network = network
        self.host = host
        self.spec = spec
        self.sim = host.sim
        self.rng = rng or network.random.stream(f"flid-sender-{spec.session_id}")
        self.suppress_unsubscribed_groups = suppress_unsubscribed_groups
        self.overhead = overhead

        self.slot_clock = SlotClock(self.sim, spec.slot_duration_s)
        self.slot_clock.on_slot_start(self._slot_boundary)

        # Per-group constants, precomputed once: the transmit loop runs per
        # packet and must not re-derive rates or re-validate addresses.
        groups = range(1, spec.group_count + 1)
        self._group_address = [None] + [spec.address_of(g) for g in groups]
        self._interval_s = [0.0] + [spec.packet_interval_s(g) for g in groups]
        self._pool = network.multicast.packet_pool

        self._group_seq: Dict[int, int] = {g: 0 for g in range(1, spec.group_count + 1)}
        self._current_upgrades: Tuple[int, ...] = ()
        self._started = False
        #: Bumped by :meth:`stop`; bootstrap and tick events carry the epoch
        #: they were scheduled in and return once it is stale, so a restart
        #: never runs beside the previous start's tick chains.
        self._epoch = 0
        #: Heap of ``(next firing time, group)`` for the ticks of groups
        #: without members (see the module docstring).
        self._parked: List[Tuple[float, int]] = []
        self.packets_sent = 0
        self.bytes_sent = 0
        self._packets_suppressed = 0
        if suppress_unsubscribed_groups:
            for address in spec.group_addresses:
                network.multicast.on_first_member(address, self._on_first_member)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Begin transmitting all groups ``delay_s`` seconds from now."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(delay_s, self._bootstrap, self._epoch)

    def _bootstrap(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._current_upgrades = self._draw_upgrades()
        self._on_slot_start(self.slot_clock.current_slot)
        self.slot_clock.start()
        for group in range(1, self.spec.group_count + 1):
            # Stagger group start times slightly so slot boundaries do not see
            # synchronised bursts across layers.
            offset = self.rng.uniform(0.0, self.spec.packet_interval_s(group))
            self.sim.call_after(offset, self._transmit_group, group, epoch)

    def stop(self) -> None:
        """Stop transmitting; ticks still in the engine return when they fire."""
        self._catch_up()
        self._parked.clear()
        self._epoch += 1
        self._started = False
        self.slot_clock.stop()

    # ------------------------------------------------------------------
    # per-slot behaviour (overridden by FLID-DS)
    # ------------------------------------------------------------------
    def _draw_upgrades(self) -> Tuple[int, ...]:
        """Groups whose upgrade the protocol authorises for the coming period."""
        authorized: List[int] = []
        for group in range(2, self.spec.group_count + 1):
            if self.rng.random() < self.spec.upgrade_probability(group):
                authorized.append(group)
        return tuple(authorized)

    def _slot_boundary(self, slot: int) -> None:
        """The slot clock's callback: catch up, then run the slot-start hook."""
        self._catch_up()
        self._on_slot_start(slot)

    def _on_slot_start(self, slot: int) -> None:
        """Hook invoked at every slot boundary; the base draws upgrade signals."""
        self._current_upgrades = self._draw_upgrades()

    def _decorate_packet(self, packet: Packet, group: int, is_last_in_slot: bool) -> None:
        """Hook for subclasses to add protocol-specific fields (DELTA)."""
        if self.overhead is not None:
            self.overhead.record_data_packet(packet.size_bits, delta_bits=0)

    # ------------------------------------------------------------------
    # transmission loop
    # ------------------------------------------------------------------
    def _transmit_group(self, group: int, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._catch_up()
        interval = self._interval_s[group]
        if self.suppress_unsubscribed_groups and not self._has_subscribers(group):
            self._packets_suppressed += 1
            heappush(self._parked, (self.sim.now + self._jittered(interval), group))
            return
        self._send_group_packet(group, interval)
        self.sim.call_after(self._jittered(interval), self._transmit_group, group, epoch)

    def _jittered(self, interval: float) -> float:
        """Spacing to the next tick: ±10 % around the nominal interval.

        The mean rate is unchanged, but the de-phasing prevents the strictly
        periodic layer schedules from locking competing TCP flows out of the
        drop-tail bottleneck queue.
        """
        return interval * (_JITTER_LOW + _JITTER_SPAN * self.rng.random())

    def _has_subscribers(self, group: int) -> bool:
        return self.network.multicast.has_members(self._group_address[group])

    def _send_group_packet(self, group: int, interval: float) -> None:
        slot = self.slot_clock.current_slot
        slot_end = self.slot_clock.end_of(slot)
        is_last_in_slot = (self.sim.now + interval) >= (slot_end - 1e-9)
        seq = self._group_seq[group]
        self._group_seq[group] = seq + 1
        # DATA packets dominate the allocation profile; draw them from the
        # network's pool (the forwarding plane recycles them when dead).
        packet = self._pool.acquire(
            source=self.host.address,
            destination=self._group_address[group],
            size_bytes=self.spec.packet_bytes,
            protocol="flid",
            headers={
                headers.SESSION: self.spec.session_id,
                headers.GROUP: group,
                headers.SLOT: slot,
                headers.GROUP_SEQ: seq,
                headers.UPGRADE_GROUPS: self._current_upgrades,
                headers.CLOSING: is_last_in_slot,
            },
            created_at=self.sim.now,
        )
        self._decorate_packet(packet, group, is_last_in_slot)
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.host.send(packet)

    # ------------------------------------------------------------------
    # parked ticks
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        """Replay, in time order, every parked tick that lies before ``sim.now``."""
        parked = self._parked
        now = self.sim.now
        if not parked or parked[0][0] >= now:
            return
        interval_s = self._interval_s
        random = self.rng.random
        replayed = 0
        while parked[0][0] < now:
            time, group = parked[0]
            # :meth:`_jittered`, inlined: this loop runs once per idle tick.
            time += interval_s[group] * (_JITTER_LOW + _JITTER_SPAN * random())
            heapreplace(parked, (time, group))
            replayed += 1
        self._packets_suppressed += replayed

    def _on_first_member(self, address: GroupAddress) -> None:
        """Multicast-service hook: the group at ``address`` gained a member."""
        self._catch_up()
        group = self.spec.group_index_of(address)
        parked = self._parked
        for entry in parked:
            if entry[1] == group:
                parked.remove(entry)
                heapify(parked)
                self.sim.call_at(entry[0], self._transmit_group, group, self._epoch)
                return

    @property
    def packets_suppressed(self) -> int:
        """Ticks that found their group without members, as of ``sim.now``."""
        self._catch_up()
        return self._packets_suppressed

    # ------------------------------------------------------------------
    @property
    def current_upgrades(self) -> Tuple[int, ...]:
        """Upgrade authorisations in force for the current slot."""
        return self._current_upgrades
