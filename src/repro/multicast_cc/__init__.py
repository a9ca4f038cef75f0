"""Multicast congestion control protocols.

* :mod:`repro.multicast_cc.flid_dl` — FLID-DL, the unprotected baseline.
* :mod:`repro.multicast_cc.flid_ds` — FLID-DS, FLID-DL integrated with DELTA
  and SIGMA (the paper's protected protocol).
* :mod:`repro.multicast_cc.receiver_base` — the machinery both receivers
  share: one receiver stands for any number of homogeneous members (a
  population is a weight on the messages of one state machine), optionally
  mounting an attack-strategy stack (:mod:`repro.adversary`) and a
  :class:`~repro.multicast_cc.churn.ChurnProcess`.
* :mod:`repro.multicast_cc.replicated` — a replicated (single-group-per-level)
  protocol protected by the Figure 5 DELTA instantiation.
* :mod:`repro.multicast_cc.session` — session descriptions (rates, groups,
  slots) shared by all protocols.
* :mod:`repro.multicast_cc.decision` — the pure per-slot subscription rules
  of the honest protocols and of every attack strategy.
* :mod:`repro.multicast_cc.population` — the scenario-level table of the
  cohort rows vector placements pack behind one receiver per edge router
  (sessions scale past 1M receivers).
"""

from .churn import ChurnProcess
from .decision import (
    ChurnAction,
    DlDecision,
    attack_target_level,
    churn_phase,
    decide_churn,
    decide_dl,
    mask_congestion,
)
from .flid_dl import FlidDlReceiver, FlidDlSender
from .flid_ds import FlidDsReceiver, FlidDsSender
from .population import PopulationBlock, PopulationTable, active_backend
from .receiver_base import LayeredReceiverBase, SlotRecord
from .replicated import ReplicatedReceiver, ReplicatedSender
from .sender_base import LayeredSenderBase
from .session import SessionSpec, fair_level_for_rate

__all__ = [
    "ChurnProcess",
    "ChurnAction",
    "DlDecision",
    "attack_target_level",
    "churn_phase",
    "decide_churn",
    "decide_dl",
    "mask_congestion",
    "PopulationBlock",
    "PopulationTable",
    "active_backend",
    "FlidDlReceiver",
    "FlidDlSender",
    "FlidDsReceiver",
    "FlidDsSender",
    "LayeredReceiverBase",
    "SlotRecord",
    "LayeredSenderBase",
    "ReplicatedReceiver",
    "ReplicatedSender",
    "SessionSpec",
    "fair_level_for_rate",
]
