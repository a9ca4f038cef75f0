"""DELTA — Distribution of ELigibility To Access.

Protocol-specific, in-band distribution of group keys to exactly the
receivers that are eligible to access the groups in the governed time slot.
One instantiation from the paper is provided:
:class:`LayeredDeltaSender` / :class:`LayeredDeltaReceiver` — Figure 4,
cumulative layered multicast with single-loss congestion (FLID-DL, RLC).

The replicated-multicast (Figure 5), threshold and ECN extensions of §3.1.2
are not implemented: every protocol in this reproduction is layered, and
none carries a loss threshold or reacts to ECN marks.
"""

from .base import (
    DeltaPacketFields,
    GroupKeys,
    ReceiverSlotObservation,
    ReconstructionResult,
    SlotKeyMaterial,
)
from .layered import LayeredDeltaReceiver, LayeredDeltaSender

__all__ = [
    "DeltaPacketFields",
    "GroupKeys",
    "ReceiverSlotObservation",
    "ReconstructionResult",
    "SlotKeyMaterial",
    "LayeredDeltaReceiver",
    "LayeredDeltaSender",
]
