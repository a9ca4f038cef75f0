"""Name-indexed registry of adversary strategies.

Mirrors the scenario and topology registries: strategies register themselves
under a stable name, experiment specs reference them by that name, and the
scenario interpreter instantiates them with per-strategy seeded random
streams derived from the experiment seed (never the global ``random``
module), which keeps attack scenarios byte-deterministic across processes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type, TYPE_CHECKING

from .spec import AttackSpec
from .strategy import AttackStrategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..multicast_cc.session import SessionSpec
    from ..simulator.topology import Network

__all__ = ["ADVERSARIES", "register_adversary", "adversary_names", "build_strategies"]

#: Strategy name -> strategy class.
ADVERSARIES: Dict[str, Type[AttackStrategy]] = {}


def register_adversary(cls: Type[AttackStrategy]) -> Type[AttackStrategy]:
    """Class decorator adding ``cls`` to :data:`ADVERSARIES` under its name."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    if cls.name in ADVERSARIES:
        raise ValueError(f"adversary {cls.name!r} is already registered")
    ADVERSARIES[cls.name] = cls
    return cls


def adversary_names() -> List[str]:
    """All registered strategy names, sorted."""
    return sorted(ADVERSARIES)


def build_strategies(
    attacks: Sequence[AttackSpec],
    network: "Network",
    session_spec: "SessionSpec",
    host_name: str,
) -> List[AttackStrategy]:
    """Instantiate the strategies one receiver mounts, in declaration order.

    Each instance gets its own named random stream —
    ``adversary:<session>:<host>:<index>:<strategy>`` — so adding or removing
    a strategy never perturbs the draws of the others (stream isolation), and
    the same spec reproduces the same attack byte-for-byte in any process.
    Each strategy acts on its :meth:`~AttackStrategy.effective_intensity`,
    the value the result cache keys the spec by.
    """
    strategies: List[AttackStrategy] = []
    for index, attack in enumerate(attacks):
        # AttackSpec refuses unregistered names at declaration.
        cls = ADVERSARIES[attack.strategy]
        rng = network.random.stream(
            f"adversary:{session_spec.session_id}:{host_name}:{index}:{attack.strategy}"
        )
        strategies.append(
            cls(
                start_s=attack.start_s,
                stop_s=attack.stop_s,
                intensity=cls.effective_intensity(attack.intensity),
                params=attack.params,
                rng=rng,
            )
        )
    return strategies
