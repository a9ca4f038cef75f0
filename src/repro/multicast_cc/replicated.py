"""Replicated multicast congestion control protected by the Figure 5 DELTA.

In replicated multicast (Destination Set Grouping / Cheung-Ammar style) every
group of the session carries the *same content at a different rate*; a
receiver subscribes to exactly one group and switches groups to adapt.  The
paper uses this protocol family to show that DELTA generalises beyond layered
multicast (§3.1.2, "Session structure"):

* only an uncongested receiver obtains the updated key for its current group;
* a congested receiver obtains the key for the next slower group;
* an upgrade-authorised, uncongested receiver obtains the key for the next
  faster group.

The implementation here is intentionally compact — enough to exercise the
:class:`~repro.core.delta.ReplicatedDeltaSender` /
:class:`~repro.core.delta.ReplicatedDeltaReceiver` pair end to end in unit
and integration tests, and to serve as the second domain-specific example —
it is not part of the paper's quantitative evaluation (which uses FLID).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.delta import ReplicatedDeltaReceiver as DeltaReceiverAlgo
from ..core.delta import ReplicatedDeltaSender as DeltaSenderAlgo
from ..core.delta.base import ReceiverSlotObservation
from ..core.sigma import SigmaHostInterface, SigmaKeyDistributor
from ..core.timeslot import SlotClock
from ..crypto.nonce import NonceGenerator
from ..simulator.monitors import ThroughputMonitor
from ..simulator.node import Host, PacketAgent
from ..simulator.packet import Packet
from ..simulator.topology import Network
from . import headers
from .session import SessionSpec

__all__ = ["ReplicatedSender", "ReplicatedReceiver"]


class ReplicatedSender:
    """Sends the same content on every group of the session, each at its own rate.

    Group ``g`` transmits at the session's *cumulative* level-``g`` rate
    (the whole content encoded at that quality), unlike the layered sender
    whose groups carry rate increments.
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        key_bits: int = 16,
        protected: bool = True,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not spec.group_addresses:
            raise ValueError("session spec must have group addresses assigned")
        self.network = network
        self.host = host
        self.spec = spec
        self.sim = host.sim
        self.protected = protected
        self.key_bits = key_bits
        self.rng = rng or network.random.stream(f"repl-sender-{spec.session_id}")
        self.slot_clock = SlotClock(self.sim, spec.slot_duration_s)
        self.slot_clock.on_slot_start(self._on_slot_start)
        self.delta = DeltaSenderAlgo(
            spec.group_count,
            NonceGenerator(bits=key_bits, rng=network.random.stream(f"repl-nonce-{spec.session_id}")),
        )
        self.distributor = SigmaKeyDistributor(
            host=host,
            session_id=spec.session_id,
            group_addresses=list(spec.group_addresses),
            key_bits=key_bits,
        )
        # Per-group constants, precomputed once for the per-packet loop.
        groups = range(1, spec.group_count + 1)
        self._group_address = [None] + [spec.address_of(g) for g in groups]
        self._interval_s = [0.0] + [
            spec.packet_bytes * 8.0 / spec.cumulative_rate_bps(g) for g in groups
        ]
        self._group_seq: Dict[int, int] = {g: 0 for g in groups}
        self._current_upgrades: Tuple[int, ...] = ()
        self._started = False
        #: Bumped by :meth:`stop`; bootstrap and tick events carry the epoch
        #: they were scheduled in and return once it is stale, so a restart
        #: never runs beside the previous start's tick chains.
        self._epoch = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Begin transmitting all groups ``delay_s`` seconds from now."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(delay_s, self._bootstrap, self._epoch)

    def stop(self) -> None:
        """Stop transmitting; ticks still in the engine return when they fire."""
        self._epoch += 1
        self._started = False
        self.slot_clock.stop()

    def _bootstrap(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._on_slot_start(self.slot_clock.current_slot)
        self.slot_clock.start()
        for group in range(1, self.spec.group_count + 1):
            self.sim.call_after(
                self.rng.uniform(0.0, self._interval_s[group]),
                self._transmit_group,
                group,
                epoch,
            )

    # ------------------------------------------------------------------
    def _draw_upgrades(self) -> Tuple[int, ...]:
        return tuple(
            g
            for g in range(2, self.spec.group_count + 1)
            if self.rng.random() < self.spec.upgrade_probability(g)
        )

    def _on_slot_start(self, slot: int) -> None:
        self._current_upgrades = self._draw_upgrades()
        material = self.delta.begin_slot(slot, self._current_upgrades)
        if self.protected:
            self.distributor.announce(material)

    def _transmit_group(self, group: int, epoch: int) -> None:
        if epoch != self._epoch:
            return
        interval = self._interval_s[group]
        if self.network.multicast.has_members(self._group_address[group]):
            self._send_packet(group, interval)
        self.sim.call_after(
            interval * self.rng.uniform(0.9, 1.1), self._transmit_group, group, epoch
        )

    def _send_packet(self, group: int, interval: float) -> None:
        slot = self.slot_clock.current_slot
        is_last = (self.sim.now + interval) >= (self.slot_clock.end_of(slot) - 1e-9)
        seq = self._group_seq[group]
        self._group_seq[group] = seq + 1
        fields = self.delta.fields_for_packet(group, is_last)
        packet = Packet(
            source=self.host.address,
            destination=self._group_address[group],
            size_bytes=self.spec.packet_bytes,
            protocol="replicated",
            headers={
                headers.SESSION: self.spec.session_id,
                headers.GROUP: group,
                headers.SLOT: slot,
                headers.GROUP_SEQ: seq,
                headers.UPGRADE_GROUPS: self._current_upgrades,
                headers.CLOSING: is_last,
                headers.COMPONENT: fields.component,
                headers.DECREASE: fields.decrease,
            },
            created_at=self.sim.now,
        )
        self.packets_sent += 1
        self.host.send(packet)


class ReplicatedReceiver(PacketAgent):
    """Single-group receiver: switches groups based on loss and upgrade signals."""

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        key_bits: int = 16,
        bin_width_s: float = 1.0,
    ) -> None:
        self.network = network
        self.host = host
        self.spec = spec
        self.sim = host.sim
        self.key_bits = key_bits
        self.delta = DeltaReceiverAlgo(spec.group_count)
        self.sigma: Optional[SigmaHostInterface] = None
        self.monitor = ThroughputMonitor(self.sim, bin_width_s=bin_width_s)
        self.group = 0
        self._group_for_slot: Dict[int, int] = {}
        self._records: Dict[int, Dict[str, object]] = {}
        self.switch_downs = 0
        self.switch_ups = 0
        self._timer_started = False

    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Join the session ``delay_s`` seconds from now."""
        self.sim.schedule(delay_s, self._bootstrap)

    def _bootstrap(self) -> None:
        self.sigma = SigmaHostInterface(self.host, self.spec.session_id, key_bits=self.key_bits)
        for g in range(1, self.spec.group_count + 1):
            self.host.register_group_agent(self.spec.address_of(g), self)
        self.sigma.session_join(self.spec.minimal_group())
        self.group = 1
        current = int(self.sim.now / self.spec.slot_duration_s)
        self._group_for_slot[current] = 1
        from ..simulator.engine import PeriodicTimer

        delay = (current + 1) * self.spec.slot_duration_s + 0.12 - self.sim.now
        self._timer = PeriodicTimer(
            self.sim, self.spec.slot_duration_s, self._on_timer, first_delay=max(delay, 1e-6)
        )
        self._timer.start()
        self._last_processed = current - 1

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Record one data packet of the session under its sender slot."""
        if packet.headers.get(headers.SESSION) != self.spec.session_id:
            return
        self.monitor.record(packet.size_bytes)
        slot = packet.headers[headers.SLOT]
        group = packet.headers[headers.GROUP]
        record = self._records.setdefault(
            slot, {"components": {}, "decreases": {}, "seqs": {}, "upgrades": set(), "closing": set()}
        )
        record["components"].setdefault(group, []).append(packet.headers.get(headers.COMPONENT))
        decrease = packet.headers.get(headers.DECREASE)
        if decrease is not None:
            record["decreases"].setdefault(group, []).append(decrease)
        record["seqs"].setdefault(group, []).append(packet.headers[headers.GROUP_SEQ])
        record["upgrades"].update(packet.headers.get(headers.UPGRADE_GROUPS, ()))
        if packet.headers.get(headers.CLOSING):
            record["closing"].add(group)

    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        ready = int((self.sim.now - 0.12) / self.spec.slot_duration_s) - 1
        while self._last_processed < ready:
            self._last_processed += 1
            self._process_slot(self._last_processed)

    def _entitled_group(self, slot: int) -> int:
        applicable = [s for s in self._group_for_slot if s <= slot]
        return self._group_for_slot[max(applicable)] if applicable else self.group

    def _process_slot(self, slot: int) -> None:
        if self.sigma is None:
            return
        record = self._records.pop(slot, None)
        group = self._entitled_group(slot)
        if group == 0:
            self.sigma.session_join(self.spec.minimal_group())
            self._group_for_slot[slot + 2] = 1
            self.group = 1
            return
        components: Dict[int, List[int]] = {}
        decreases: Dict[int, List[int]] = {}
        lost = set()
        upgrades: set = set()
        if record is not None:
            components = {g: [c for c in cs if c is not None] for g, cs in record["components"].items()}
            decreases = record["decreases"]
            upgrades = record["upgrades"]
            seqs = record["seqs"].get(group, [])
            if seqs:
                if max(seqs) - min(seqs) + 1 != len(set(seqs)) or group not in record["closing"]:
                    lost.add(group)
            else:
                lost.add(group)
        observation = ReceiverSlotObservation(
            subscription_level=group,
            components=components,
            decrease_fields=decreases,
            lost_groups=frozenset(lost),
            upgrade_authorized=frozenset(upgrades),
        )
        result = self.delta.reconstruct(observation)
        governed = slot + 2
        if result.keys:
            pairs = [(self.spec.address_of(g), key) for g, key in result.submitted_pairs()]
            self.sigma.subscribe(governed, pairs)
        new_group = result.next_level
        if new_group and new_group != group:
            # Explicitly abandon the old group; replicated levels do not nest.
            self.sigma.unsubscribe([self.spec.address_of(group)])
            if new_group < group:
                self.switch_downs += 1
            else:
                self.switch_ups += 1
        self._group_for_slot[governed] = new_group if new_group else 0
        self.group = new_group if new_group else 0
