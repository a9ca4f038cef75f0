"""DELTA — Distribution of ELigibility To Access.

Protocol-specific, in-band distribution of group keys to exactly the
receivers that are eligible to access the groups in the governed time slot.
Two instantiations from the paper are provided:

* :class:`LayeredDeltaSender` / :class:`LayeredDeltaReceiver` — Figure 4,
  cumulative layered multicast with single-loss congestion (FLID-DL, RLC);
* :class:`ReplicatedDeltaSender` / :class:`ReplicatedDeltaReceiver` —
  Figure 5, replicated multicast (one group per subscription level).

The threshold and ECN extensions of §3.1.2 are not implemented: no protocol
in this reproduction carries a loss threshold or reacts to ECN marks.
"""

from .base import (
    DeltaPacketFields,
    DeltaReceiver,
    DeltaSender,
    GroupKeys,
    KeyKind,
    ReceiverSlotObservation,
    ReconstructionResult,
    SlotKeyMaterial,
)
from .layered import LayeredDeltaReceiver, LayeredDeltaSender
from .replicated import ReplicatedDeltaReceiver, ReplicatedDeltaSender

__all__ = [
    "DeltaPacketFields",
    "DeltaReceiver",
    "DeltaSender",
    "GroupKeys",
    "KeyKind",
    "ReceiverSlotObservation",
    "ReconstructionResult",
    "SlotKeyMaterial",
    "LayeredDeltaReceiver",
    "LayeredDeltaSender",
    "ReplicatedDeltaReceiver",
    "ReplicatedDeltaSender",
]
