"""Multicast congestion control protocols.

* :mod:`repro.multicast_cc.flid_dl` — FLID-DL, the unprotected baseline.
* :mod:`repro.multicast_cc.flid_ds` — FLID-DS, FLID-DL integrated with DELTA
  and SIGMA (the paper's protected protocol).
* :mod:`repro.multicast_cc.receiver_base` — the machinery both receivers
  share: one receiver stands for any number of homogeneous members (a
  population is a weight on the messages of one state machine), optionally
  mounting an attack-strategy stack (:mod:`repro.adversary`) and a
  :class:`~repro.multicast_cc.churn.ChurnProcess`.
* :mod:`repro.multicast_cc.session` — session descriptions (rates, groups,
  slots) shared by both protocols.
* :mod:`repro.multicast_cc.population` — :func:`split_counts`, which cuts a
  declared population into the rows of member counts a receiver stands for.
"""

from .churn import ChurnProcess
from .flid_dl import FlidDlReceiver, FlidDlSender
from .flid_ds import FlidDsReceiver, FlidDsSender
from .receiver_base import LayeredReceiverBase, SlotRecord
from .sender_base import LayeredSenderBase
from .session import SessionSpec, fair_level_for_rate

__all__ = [
    "ChurnProcess",
    "FlidDlReceiver",
    "FlidDlSender",
    "FlidDsReceiver",
    "FlidDsSender",
    "LayeredReceiverBase",
    "SlotRecord",
    "LayeredSenderBase",
    "SessionSpec",
    "fair_level_for_rate",
]
