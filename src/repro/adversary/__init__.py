"""Composable adversary subsystem.

The paper's threat model (§2.1) is a *self-beneficial* receiver: it wants
more bandwidth for itself, not to destroy the network.  This package turns
the repo's misbehaviour modelling from three hard-coded receiver subclasses
into a library of composable :class:`AttackStrategy` objects that can be

* declared in a :class:`AttackSpec` (strategy name + parameters + schedule)
  embedded in an experiment's :class:`~repro.experiments.spec.ScenarioSpec`,
* looked up by name in the :data:`ADVERSARIES` registry,
* stacked on one receiver (a :class:`StrategyStack` passed as the receiver's
  ``strategies=`` argument composes several on the same host), and
* swept like any other experiment parameter (attacker type × intensity ×
  onset) through the parallel experiment runner.

Strategies observe the receiver through hook points — slot boundaries, loss
events, DELTA key receipt — and act through a capability-scoped
:class:`AttackContext` that exposes exactly the paper's attack surface: IGMP
membership reports, SIGMA subscription messages, and the receiver's own
subscription state.  All adversary randomness flows through per-strategy
seeded streams derived from the experiment seed, so attack scenarios stay
byte-deterministic across processes.
"""

from .context import AttackContext
from .registry import ADVERSARIES, adversary_names, build_strategies, register_adversary
from .spec import AttackSpec, paper_attacker
from .strategy import AttackStrategy
from .strategies import (
    ChurnStrategy,
    CollusionStrategy,
    IgnoreCongestionStrategy,
    InflatedJoinStrategy,
    JoinStormStrategy,
    KeyGuessingStrategy,
    KeyReplayStrategy,
)
from .receivers import StrategyStack

__all__ = [
    "AttackContext",
    "AttackSpec",
    "AttackStrategy",
    "ADVERSARIES",
    "adversary_names",
    "build_strategies",
    "register_adversary",
    "ChurnStrategy",
    "CollusionStrategy",
    "IgnoreCongestionStrategy",
    "InflatedJoinStrategy",
    "JoinStormStrategy",
    "KeyGuessingStrategy",
    "KeyReplayStrategy",
    "StrategyStack",
    "paper_attacker",
]
