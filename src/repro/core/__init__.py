"""The paper's primary contribution: DELTA + SIGMA.

* :mod:`repro.core.delta` — in-band distribution of group keys to eligible
  receivers (the layered instantiation of Figure 4).
* :mod:`repro.core.sigma` — key-based group access control at edge routers.
* :mod:`repro.core.timeslot` — the s / s+1 / s+2 key pipeline of Figure 2.
* :mod:`repro.core.overhead` — the analytic overhead model of §5.4.
"""

from . import delta, sigma
from .overhead import FIGURE9_DEFAULTS, OverheadModel, OverheadPoint
from .timeslot import KEY_PIPELINE_DEPTH, SlotClock

__all__ = [
    "delta",
    "sigma",
    "FIGURE9_DEFAULTS",
    "OverheadModel",
    "OverheadPoint",
    "KEY_PIPELINE_DEPTH",
    "SlotClock",
]
