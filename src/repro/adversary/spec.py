"""Serialisable attack declarations.

An :class:`AttackSpec` names a strategy from the adversary registry, gives it
parameters and an intensity knob, schedules it (onset and optional end), and
lists which receivers of the enclosing session mount it.  Several specs may
target the same receiver — their strategies then *compose* on that host, in
declaration order.

The spec is plain data, so it serialises inside a
:class:`~repro.experiments.spec.ScenarioSpec` (written and read by the one
codec in :mod:`repro.experiments.spec`; its canonical JSON, with every
intensity at its effective value, is the experiment cache key) and survives
the round trip to process-pool workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Tuple

__all__ = ["AttackSpec", "paper_attacker"]

#: The value types each scalar kind admits, here and in the spec codec:
#: an integer is a legal ``float``, a boolean is never a number although
#: Python would let ``True`` pass for one.
SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}
_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class AttackSpec:
    """One scheduled attack: strategy + params + schedule + target receivers.

    ``intensity`` is a dimensionless scale factor, so experiment grids can
    sweep attacker aggressiveness across strategy types.  Each strategy
    reads it its own way: ``key-replay``, ``key-guessing`` and
    ``join-storm`` scale their per-slot volume (replays, guesses, bursts)
    by it; ``churn`` divides its flapping period by it; ``inflated-join``
    joins that fraction of the session's groups, clamped at 1 (every
    intensity >= 1 joins them all); ``collusion`` and ``ignore-congestion``
    ignore it.  The spec keeps the declared value; the run and the result
    cache key read the strategy's
    :meth:`~repro.adversary.strategy.AttackStrategy.effective_intensity`.
    ``stop_s`` of ``None`` means the attack runs to the end of the
    experiment.  ``params`` sets parameters the strategy declares
    (:attr:`~repro.adversary.strategy.AttackStrategy.parameters`); an
    undeclared key, or a value of another kind, is refused here.
    """

    strategy: str
    receivers: Tuple[int, ...] = (0,)
    start_s: float = 0.0
    stop_s: Optional[float] = None
    intensity: float = 1.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The registry imports this module; by the time a spec is declared
        # the package has registered every strategy.
        from .registry import ADVERSARIES, adversary_names

        if self.strategy not in ADVERSARIES:
            raise ValueError(
                f"AttackSpec.strategy {self.strategy!r} is not a registered "
                f"adversary strategy; known: {adversary_names()}"
            )
        if not self.receivers:
            raise ValueError("an attack needs at least one target receiver")
        if any(type(index) is not int or index < 0 for index in self.receivers):
            raise ValueError(f"AttackSpec.receivers must be integers >= 0, got {self.receivers!r}")
        # Each number's type before its value, as for ``params``.
        for name in ("intensity", "start_s", "stop_s"):
            value = getattr(self, name)
            if type(value) not in SCALAR_TYPES[float] and not (name == "stop_s" and value is None):
                raise TypeError(f"AttackSpec.{name}: expected float, got {value!r}")
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(
                f"AttackSpec.intensity must be a finite number > 0, got {self.intensity!r}"
            )
        if not (math.isfinite(self.start_s) and self.start_s >= 0):
            raise ValueError(
                f"AttackSpec.start_s must be a finite number of seconds >= 0, "
                f"got {self.start_s!r}"
            )
        if self.stop_s is not None and not (
            math.isfinite(self.stop_s) and self.stop_s >= self.start_s
        ):
            raise ValueError(
                f"AttackSpec.stop_s must be null or a finite number of seconds "
                f">= start_s, got {self.stop_s!r}"
            )
        declared = ADVERSARIES[self.strategy].parameters
        for key, value in self.params.items():
            if key not in declared:
                raise ValueError(
                    f"AttackSpec.params: strategy {self.strategy!r} has no parameter "
                    f"{key!r}; declared: {sorted(declared)}"
                )
            kind, _default, choices = declared[key]
            if type(value) not in SCALAR_TYPES[kind] or (
                kind is float and not math.isfinite(value)
            ) or (choices is not None and value not in choices):
                within = "" if choices is None else f" in {choices!r}"
                raise ValueError(
                    f"AttackSpec.params[{key!r}] of strategy {self.strategy!r} must be "
                    f"{_NAMES[kind]}{within}, got {value!r}"
                )


def paper_attacker(protected: bool, **schedule: Any) -> Tuple[AttackSpec, ...]:
    """The paper's inflated-subscription attacker (Figures 1 and 7).

    Against FLID-DL it is ``inflated-join`` alone.  Against FLID-DS it keeps
    the honest pipeline running and stacks bare ``inflated-join`` joins
    (``suppress_honest: False``), ``key-replay`` and ``key-guessing``.
    ``schedule`` (``receivers``, ``start_s``, ...) applies to every strategy.
    """
    joins = AttackSpec("inflated-join", **schedule)
    if not protected:
        return (joins,)
    return (
        replace(joins, params={"suppress_honest": False}),
        replace(joins, strategy="key-replay"),
        replace(joins, strategy="key-guessing"),
    )
