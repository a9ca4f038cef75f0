"""Common machinery of the FLID-DL and FLID-DS receivers.

A layered-multicast receiver collects the packets of its subscribed groups,
detects losses through per-group sequence gaps (and through starvation of a
group it has been receiving), gathers the slot's upgrade-authorisation
signals, and at the end of every slot decides whether to decrease, hold or
increase its subscription level.

Packets are grouped by the *slot index stamped by the sender* rather than by
local arrival time, and a slot is evaluated a small guard interval after its
nominal end; this absorbs propagation and queueing skew so that the DELTA key
reconstruction in FLID-DS sees exactly the per-slot packet sets the sender
used to define the keys.

**One receiver, any population.**  A receiver object drives one host and one
IGMP/SIGMA interface, so everything it stands for shares one subscription
level: a population is a *weight* on the messages of one state machine.  The
receiver therefore takes the member ``counts`` of the rows it stands for
(default: one row of one member — an ordinary end system) and weights every
IGMP/SIGMA message by their sum at send time.  Aggregation is *exact* —
byte-identical trajectories and counters versus that many one-member
receivers — when the members are homogeneous: same edge router, same start
time, same strategy stack, and access links that never drop (true in the
paper's §5.1 topologies; ``docs/scale.md`` discusses the limits).  An
optional strategy stack (``repro.adversary``) is dispatched around the
honest decision, and an optional
:class:`~repro.multicast_cc.churn.ChurnProcess` drives the member count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..simulator.engine import PeriodicTimer
from ..simulator.monitors import ThroughputMonitor
from ..simulator.node import Host, PacketAgent
from ..simulator.packet import Packet
from . import headers
from .churn import ChurnProcess
from .population import PopulationBlock
from .session import SessionSpec

__all__ = ["SlotRecord", "LayeredReceiverBase"]

#: Guard added after a slot's nominal end before it is evaluated, sized to
#: exceed the propagation plus typical queueing delay of the §5.1 topology.
DEFAULT_GUARD_S = 0.12


@dataclass
class SlotRecord:
    """Everything the receiver observed about one sender slot."""

    slot: int
    #: Per-group list of (sequence, component, decrease) tuples in arrival order.
    packets: Dict[int, List[Tuple[int, Optional[int], Optional[int]]]] = field(default_factory=dict)
    #: Groups in which a sequence gap was detected.
    gap_groups: Set[int] = field(default_factory=set)
    #: Groups for which the slot's closing (last) packet was received.
    closing_seen: Set[int] = field(default_factory=set)
    #: Union of the upgrade-authorisation signals seen on packets of the slot.
    upgrade_groups: Set[int] = field(default_factory=set)
    bytes_received: int = 0

    def received_groups(self) -> Set[int]:
        """Groups from which at least one packet of the slot arrived."""
        return {g for g, pkts in self.packets.items() if pkts}

    def components(self) -> Dict[int, List[int]]:
        """Per-group DELTA component fields, in arrival order."""
        return {
            g: [c for (_, c, _) in pkts if c is not None]
            for g, pkts in self.packets.items()
        }

    def decrease_fields(self) -> Dict[int, List[int]]:
        """Per-group DELTA decrease fields, in arrival order."""
        return {
            g: [d for (_, _, d) in pkts if d is not None]
            for g, pkts in self.packets.items()
        }


class LayeredReceiverBase(PacketAgent):
    """Receiver-driven layered congestion control (shared FLID logic)."""

    def __init__(
        self,
        host: Host,
        spec: SessionSpec,
        counts: Sequence[int] = (1,),
        strategies: Optional[Any] = None,
        churn: Optional[ChurnProcess] = None,
        bin_width_s: float = 1.0,
        guard_s: float = DEFAULT_GUARD_S,
        name: str = "",
    ) -> None:
        """Stand for ``sum(counts)`` homogeneous members behind ``host``.

        ``counts`` lists the member count of each row the receiver stands
        for; passing a :class:`~repro.multicast_cc.population.PopulationBlock`
        (a vector placement) additionally keeps the block's level column in
        lockstep with :attr:`level`.  ``strategies`` is the strategy stack
        (``repro.adversary.StrategyStack``) every member mounts; ``churn``
        drives the member count (see :meth:`attach_churn`).
        """
        if not spec.group_addresses:
            raise ValueError("session spec must have group addresses assigned")
        self._block: Optional[PopulationBlock] = None
        if isinstance(counts, PopulationBlock):
            self._block, counts = counts, counts.counts()
        #: Member count of every row this receiver stands for.
        self.counts: Tuple[int, ...] = tuple(int(count) for count in counts)
        if not self.counts or min(self.counts) < 1:
            raise ValueError("a receiver stands for >=1 rows of >=1 members")
        #: Number of end systems this object represents.  Every IGMP/SIGMA
        #: message and attack counter is weighted by it at send time, and the
        #: analysis layer weights goodput/protection metrics by it.
        self.population = sum(self.counts)
        # The host stands for the whole population: membership counting,
        # IGMP/SIGMA counters and overhead accounting weight it as N end
        # systems.
        host.population = self.population
        self.host = host
        self.spec = spec
        self.sim = host.sim
        self.guard_s = guard_s
        self.name = name or f"{spec.session_id}-rx-{host.name}"
        self.monitor = ThroughputMonitor(self.sim, bin_width_s=bin_width_s, name=self.name)
        self._stack = strategies
        self._churn: Optional[ChurnProcess] = None
        self._churn_initial = self.population
        if churn is not None:
            self.attach_churn(churn)

        #: Current subscription level (number of groups the receiver believes
        #: it is entitled to).  Level 0 means "not yet admitted".
        self.level = 0
        self._slots: Dict[int, SlotRecord] = {}
        #: Per-group (last sequence seen, slot in which it was seen); used for
        #: gap detection with automatic re-baselining after an absence.
        self._last_seen: Dict[int, Tuple[int, int]] = {}
        #: Groups from which packets have ever been received (starvation of a
        #: never-seen group is join latency, not congestion).
        self._seen_groups: Set[int] = set()
        self._timer: Optional[PeriodicTimer] = None
        self._started_at: Optional[float] = None
        self._last_processed_slot = -1

        #: Slots up to and including this index ignore congestion signals.  A
        #: decrease sets it so that one congestion episode (which persists
        #: until the subscription change actually relieves the bottleneck)
        #: does not trigger a cascade of multi-level drops — the role played
        #: in FLID-DL by dynamic layering's implicit, immediate rate decay.
        self._deaf_until_slot = -1

        # statistics
        self.decreases = 0
        self.increases = 0
        self.congested_slots = 0
        self.level_history: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Join the session ``delay_s`` seconds from now."""
        self.sim.schedule(delay_s, self._bootstrap)

    def _bootstrap(self) -> None:
        self._started_at = self.sim.now
        for group in range(1, self.spec.group_count + 1):
            self.host.register_group_agent(self.spec.address_of(group), self)
        self._join_session()
        if self._stack is not None:
            self._stack.attach(self)
        self._set_level(1)
        slot_duration = self.spec.slot_duration_s
        current_slot = int(self.sim.now / slot_duration)
        self._last_processed_slot = current_slot - 1
        first_delay = (current_slot + 1) * slot_duration + self.guard_s - self.sim.now
        self._timer = PeriodicTimer(
            self.sim, slot_duration, self._on_timer, first_delay=max(first_delay, 1e-6)
        )
        self._timer.start()

    def stop(self) -> None:
        """Stop evaluating slots (the receiver keeps its memberships)."""
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------
    # population, strategies, churn
    # ------------------------------------------------------------------
    def state_rows(self) -> List[Tuple[int, int]]:
        """The ``(count, level)`` row of every cohort the receiver stands for."""
        return [(count, self.level) for count in self.counts]

    @property
    def strategies(self) -> List[Any]:
        """The attack strategies every member mounts (empty when honest)."""
        return list(self._stack.strategies) if self._stack is not None else []

    @property
    def attacking(self) -> bool:
        """True while at least one strategy's attack window is open."""
        return self._stack is not None and self._stack.attacking

    def adversary_stats(self) -> Dict[str, int]:
        """Member-weighted attack counters (empty without strategies)."""
        return self._stack.stats() if self._stack is not None else {}

    def attach_churn(self, process: ChurnProcess) -> None:
        """Drive the member count by ``process`` (call before :meth:`start`).

        The process is sampled at every slot-evaluation wakeup
        (deterministically, before the due slots are evaluated): the
        membership delta is booked through member-weighted IGMP/SIGMA
        messages and the population — including the host weight every
        counter derives from — is updated before any message of the new slot
        is sent.  Arrivals adopt the current subscription level; see
        ``docs/scale.md`` for the exactness conditions.

        Only a single honest row can churn: the attack context's member
        weight is fixed at admission (a churned attacker population would
        book stale counters), and a multi-row block has no well-defined row
        to grow or shrink.
        """
        if self._stack is not None:
            raise ValueError(
                "receivers mounting strategies cannot churn: the attack "
                "context's member weight is fixed at admission — declare the "
                "churned honest audience and the attacker population as "
                "separate blocks"
            )
        if self._block is not None or len(self.counts) != 1:
            raise ValueError(
                "multi-row population blocks cannot churn; declare the "
                "churned audience as a separate model=\"cohort\" block"
            )
        self._churn = process
        self._churn_initial = self.population

    def rebind(
        self, strategies: Optional[Any] = None, churn: Optional[ChurnProcess] = None
    ) -> None:
        """Swap in the declarations of a divergent warm-started cell.

        A warm-start prefix runs with placeholder strategies that are inert
        before the barrier, so nothing they could have changed is lost: the
        new stack gets a fresh attack context.  A new churn process replaces
        the old one's schedule but keeps its initial-population booking
        (the prefix may already have sampled the process).
        """
        if strategies is not None:
            self._stack = strategies
            if self._started_at is not None:
                strategies.attach(self)
        if churn is not None:
            self._churn = churn

    def _apply_churn(self) -> None:
        target = self._churn.population_at(
            self._churn_initial, self.sim.now - self._started_at
        )
        delta = target - self.population
        if delta == 0:
            return
        if delta > 0:
            self._book_arrivals(delta)
        else:
            self._book_departures(-delta)
        self._set_population(target)

    def _set_population(self, population: int) -> None:
        """Adopt the new population everywhere counters weigh it."""
        self.population = population
        self.host.population = population
        self.counts = (population,)

    # ------------------------------------------------------------------
    # hooks implemented by FLID-DL / FLID-DS subclasses
    # ------------------------------------------------------------------
    def _join_session(self) -> None:  # pragma: no cover - interface
        """Perform the protocol's admission step (IGMP join or SIGMA session-join)."""
        raise NotImplementedError

    def _apply_decision(self, evaluated_slot: int, record: SlotRecord, congested: bool) -> None:
        """Subscription-control reaction to one evaluated slot."""
        raise NotImplementedError  # pragma: no cover - interface

    def _book_arrivals(self, members: int) -> None:  # pragma: no cover - interface
        """Book ``members`` churn arrivals on the protocol's control channel."""
        raise NotImplementedError

    def _book_departures(self, members: int) -> None:  # pragma: no cover - interface
        """Book ``members`` churn departures on the protocol's control channel."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # packet path
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Record one data packet of the session under its sender slot."""
        if packet.headers.get(headers.SESSION) != self.spec.session_id:
            return
        group = packet.headers[headers.GROUP]
        slot = packet.headers[headers.SLOT]
        seq = packet.headers[headers.GROUP_SEQ]
        self.monitor.record(packet.size_bytes)
        self._seen_groups.add(group)

        record = self._slots.setdefault(slot, SlotRecord(slot=slot))
        record.bytes_received += packet.size_bytes
        record.packets.setdefault(group, []).append(
            (
                seq,
                packet.headers.get(headers.COMPONENT),
                packet.headers.get(headers.DECREASE),
            )
        )
        record.upgrade_groups.update(packet.headers.get(headers.UPGRADE_GROUPS, ()))
        if packet.headers.get(headers.CLOSING):
            record.closing_seen.add(group)

        # Gap detection with re-baselining: a sequence jump only counts as a
        # loss when the previous packet of the group was seen in this slot or
        # the one before it; after a longer absence (the receiver had left the
        # group) the baseline is stale and the jump is not a loss.
        previous = self._last_seen.get(group)
        if previous is not None:
            last_seq, last_slot = previous
            if last_slot >= slot - 1 and seq > last_seq + 1:
                record.gap_groups.add(group)
        if previous is None or seq > previous[0]:
            self._last_seen[group] = (seq, slot)

    # ------------------------------------------------------------------
    # slot evaluation
    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        if self._churn is not None:
            self._apply_churn()
        slot_duration = self.spec.slot_duration_s
        ready_until = int((self.sim.now - self.guard_s) / slot_duration) - 1
        while self._last_processed_slot < ready_until:
            self._last_processed_slot += 1
            self._evaluate_slot(self._last_processed_slot)

    def _evaluate_slot(self, slot: int) -> None:
        record = self._slots.pop(slot, SlotRecord(slot=slot))
        congested = self._is_congested(record)
        if congested:
            self.congested_slots += 1
            if slot <= self._deaf_until_slot:
                # Still inside the deaf period of a previous decrease: the
                # congestion is (most likely) the tail of the same episode.
                congested = False
        if self._stack is None:
            self._apply_decision(slot, record, congested)
        else:
            # The stack runs its hooks around the honest decision.
            self._stack.evaluate(slot, record, congested)

    def _enter_deaf_period(self, last_deaf_slot: int) -> None:
        """Ignore congestion through ``last_deaf_slot`` (inclusive)."""
        self._deaf_until_slot = max(self._deaf_until_slot, last_deaf_slot)

    def _entitled_groups(self, record: SlotRecord) -> Set[int]:
        """Groups whose losses count as congestion for this slot.

        The base implementation is the receiver's current subscription level;
        FLID-DS refines it with its per-slot entitlement schedule.  Groups the
        receiver has deliberately left (or never joined) do not count — their
        missing packets are a consequence of the subscription change, not of
        congestion.
        """
        return set(range(1, self.level + 1))

    def _loss_signal_groups(self, record: SlotRecord) -> Set[int]:
        """Entitled groups with a detected sequence gap or tail loss."""
        return (set(record.gap_groups) | self._tail_loss_groups(record)) & self._entitled_groups(record)

    def _lost_groups(self, record: SlotRecord, congested: bool) -> Set[int]:
        """The slot's loss classification: gap and tail losses always,
        starvation when the slot counted as congested."""
        lost = self._loss_signal_groups(record)
        if congested:
            lost |= self._starved_groups(record)
        return lost

    def _starved_groups(self, record: SlotRecord) -> Set[int]:
        """Entitled, previously-seen groups that went completely silent."""
        received = record.received_groups()
        return {
            group
            for group in self._entitled_groups(record)
            if group in self._seen_groups and group not in received
        }

    def _is_congested(self, record: SlotRecord) -> bool:
        """Single-loss congestion definition plus starvation of a live group."""
        if self._loss_signal_groups(record):
            return True
        # Starvation: a group we are entitled to and have received before went
        # completely silent for a slot.  A fully established level losing every
        # packet of a layer is congestion, not join latency.
        if self._started_at is not None:
            established = self.sim.now - self._started_at > 2 * self.spec.slot_duration_s
            if established and self._starved_groups(record):
                return True
        return False

    def _tail_loss_groups(self, record: SlotRecord) -> Set[int]:
        """Groups whose closing packet is missing despite other packets arriving.

        The sender marks the last packet of every (group, slot); a group with
        traffic but no closing marker lost its tail, which per-sequence gap
        detection alone cannot see until the next slot.
        """
        return {
            group
            for group, pkts in record.packets.items()
            if pkts and group not in record.closing_seen
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _set_level(self, level: int) -> None:
        level = max(0, min(level, self.spec.group_count))
        if level > self.level:
            self.increases += 1
        elif level < self.level:
            self.decreases += 1
        self.level = level
        if self._block is not None:
            self._block.set_levels(level)
        self.level_history.append((self.sim.now, level))

    def average_rate_kbps(self, start_s: float = 0.0, end_s: Optional[float] = None) -> float:
        """Average goodput of this receiver over the interval, in Kbps."""
        return self.monitor.average_rate_kbps(start_s, end_s)
