"""FLID-DL — the unprotected baseline protocol.

FLID-DL (Byers et al., NGC 2000) is a receiver-driven congestion control for
cumulative layered multicast: time is divided into slots, the sender marks
each slot with increase signals whose frequency decays for higher layers, and
a receiver

* drops its top group at the end of a slot in which it saw a packet loss,
* adds the next group at the end of a loss-free slot whose increase signal
  authorises the upgrade,
* otherwise keeps its subscription.

Group membership is managed with plain IGMP joins and leaves, which is what
makes the protocol vulnerable to inflated subscription: nothing stops a
receiver from joining every group of the session (the ``inflated-join``
strategy of :mod:`repro.adversary.strategies` and Figure 1 of the paper).

This module provides the sender (:class:`FlidDlSender` is the shared layered
sender unchanged) and the receiver (:class:`FlidDlReceiver`), which plays the
honest protocol for the population it stands for unless a strategy stack is
mounted on it.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..simulator.igmp import IgmpHostInterface
from ..simulator.node import Host
from ..simulator.topology import Network
from .churn import ChurnProcess
from .receiver_base import LayeredReceiverBase, SlotRecord
from .sender_base import LayeredSenderBase
from .session import SessionSpec

__all__ = ["FlidDlSender", "FlidDlReceiver"]


class FlidDlSender(LayeredSenderBase):
    """FLID-DL sender: the layered sender with no key machinery.

    The sender's only responsibilities are transmitting every layer at its
    rate and drawing the per-slot increase signals; both live in
    :class:`~repro.multicast_cc.sender_base.LayeredSenderBase`.
    """


class FlidDlReceiver(LayeredReceiverBase):
    """FLID-DL receiver driven by IGMP joins and leaves.

    Stands for ``sum(counts)`` members behind one host: the host receives
    one copy of every packet and every membership report represents the
    population (weighted at send time by the IGMP interface).
    """

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: SessionSpec,
        counts: Sequence[int] = (1,),
        strategies: Optional[Any] = None,
        churn: Optional[ChurnProcess] = None,
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
        self.igmp: Optional[IgmpHostInterface] = None

    # ------------------------------------------------------------------
    def _join_session(self) -> None:
        """Admission in FLID-DL is simply an IGMP join of the minimal group."""
        self.igmp = IgmpHostInterface(self.host)
        self.igmp.join(self.spec.minimal_group())

    def _book_arrivals(self, members: int) -> None:
        """Arrivals adopt the current level: one weighted join per group."""
        for group in range(1, self.level + 1):
            self.igmp.join(self.spec.address_of(group), members=members)

    def _book_departures(self, members: int) -> None:
        """Departures abandon the current level: one weighted leave per group."""
        for group in range(1, self.level + 1):
            self.igmp.leave(self.spec.address_of(group), members=members)

    def _apply_decision(self, evaluated_slot: int, record: SlotRecord, congested: bool) -> None:
        """Apply the three FLID-DL subscription rules for one evaluated slot."""
        if self.igmp is None:
            return
        level = self.level
        if congested:
            if level > 1:
                self.igmp.leave(self.spec.address_of(level))
                self._set_level(level - 1)
                # The leave takes one IGMP prune latency to relieve the
                # bottleneck; losses in the next slot belong to this episode.
                self._enter_deaf_period(evaluated_slot + 1)
            return
        target = level + 1
        if target <= self.spec.group_count and target in record.upgrade_groups:
            self.igmp.join(self.spec.address_of(target))
            self._set_level(target)
