"""The strategy protocol: hook points an adversary can implement.

A strategy is a small state machine driven by the receiver's slot evaluation
loop.  Hooks fire in a fixed order per evaluated slot:

1. :meth:`filter_congestion` — may rewrite the congestion verdict the honest
   pipeline will see (e.g. mask losses);
2. :meth:`on_slot` — pre-decision action; returning True suppresses the
   honest subscription decision for this slot;
3. the honest pipeline runs (unless suppressed); for FLID-DS it calls
   :meth:`on_keys` with whatever DELTA keys it reconstructed;
4. :meth:`after_slot` — post-decision action (key guessing, replay,
   collusion submissions target ``slot + 2``, the governed slot).

:meth:`on_start` / :meth:`on_stop` bracket the scheduled attack window; all
slot hooks fire only while the window is open.  Strategies draw randomness
exclusively from ``self.rng``, a seeded stream handed over at build time, so
experiments stay byte-deterministic.
"""

from __future__ import annotations

import random
from typing import Any, ClassVar, Collection, Dict, Mapping, NamedTuple, Optional, TYPE_CHECKING

from .context import AttackContext

if TYPE_CHECKING:  # pragma: no cover - annotation-only (import cycle guard)
    from ..multicast_cc.receiver_base import SlotRecord

__all__ = ["AttackStrategy", "Param"]


class Param(NamedTuple):
    """One parameter a strategy reads: its kind, its default and, when only
    some values of the kind make a run, the ``choices`` it takes.

    ``kind`` is ``bool``, ``int``, ``float`` or ``str``; a ``float`` takes
    any finite number, and no number is ever a ``bool``.
    """

    kind: type
    default: Any
    choices: Optional[Collection[Any]] = None


class AttackStrategy:
    """Base class of all adversary strategies (all hooks default to no-ops)."""

    #: Registry name; set by concrete strategies.
    name: str = ""
    #: True when a stack of this strategy acts the same behind any edge
    #: that sees the same packets: it draws no randomness and shares no
    #: state across receivers.  Only then may several interchangeable edges
    #: be realised as one (:func:`repro.experiments.scenario.interchangeable_edges`).
    interchangeable: bool = True
    #: Every parameter the strategy reads, by name: the one place its
    #: default is written.  :class:`~repro.adversary.spec.AttackSpec` refuses
    #: a parameter not declared here, or of another kind.
    parameters: ClassVar[Mapping[str, Param]] = {}

    def __init__(
        self,
        start_s: float = 0.0,
        stop_s: Optional[float] = None,
        intensity: float = 1.0,
        params: Optional[Mapping[str, Any]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.start_s = start_s
        self.stop_s = stop_s
        self.intensity = intensity
        self.params: Dict[str, Any] = dict(params or {})
        #: Per-strategy seeded stream — the only randomness source allowed.
        self.rng = rng or random.Random(0)
        self.started = False
        self.stopped = False

    @classmethod
    def effective_intensity(cls, intensity: float) -> float:
        """The intensity this strategy acts on when ``intensity`` is declared.

        Two declared intensities with one effective intensity make the same
        attack: the strategy is built with this value
        (:func:`~repro.adversary.registry.build_strategies`) and the result
        cache keys a spec by it (:meth:`ResultCache.key
        <repro.experiments.runner.ResultCache.key>`).  The identity, unless
        a strategy's hooks read ``intensity`` only up to a clamp or not at
        all.
        """
        return intensity

    # ------------------------------------------------------------------
    # schedule
    # ------------------------------------------------------------------
    def active(self, now: float) -> bool:
        """True when ``now`` falls inside the attack's scheduled window."""
        if now < self.start_s:
            return False
        return self.stop_s is None or now < self.stop_s

    def param(self, key: str) -> Any:
        """The parameter ``key`` as the attack sets it, or its declared default."""
        if key in self.params:
            return self.params[key]
        return self.parameters[key].default

    def rate(self, key: str) -> int:
        """Per-slot action count of a volume knob, scaled by ``intensity``.

        Every volume knob (replays per group, guesses per slot, storm bursts)
        scales by the attack's ``intensity`` and is floored at one action —
        an active attacker always acts — so intensity sweeps mean the same
        thing for every strategy.
        """
        return max(1, round(self.param(key) * self.intensity))

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_start(self, ctx: AttackContext) -> None:
        """Called at the first slot boundary inside the attack window."""

    def on_stop(self, ctx: AttackContext) -> None:
        """Called at the first slot boundary past ``stop_s``."""

    # ------------------------------------------------------------------
    # per-slot hooks
    # ------------------------------------------------------------------
    def filter_congestion(
        self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool
    ) -> bool:
        """Rewrite the congestion verdict the honest pipeline will act on."""
        return congested

    def on_slot(
        self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool
    ) -> bool:
        """Pre-decision action; return True to suppress the honest decision."""
        return False

    def on_keys(self, ctx: AttackContext, governed_slot: int, keys: Dict[int, int]) -> None:
        """Called with the DELTA keys the honest pipeline reconstructed."""

    def after_slot(
        self, ctx: AttackContext, slot: int, record: SlotRecord, congested: bool
    ) -> None:
        """Post-decision action; submissions here target slot ``slot + 2``."""
