"""Named attack scenarios sweeping the adversary registry.

Each scenario pits one (or a group of) strategy-driven attackers against
honest multicast receivers and TCP cross traffic, defaulting to the
protected protocol so the registered runs double as protection regressions:
the runner's ``protection`` metrics (excess goodput over the honest
baseline, time to containment) quantify the §5.2 claim per strategy.

Every builder exposes ``protected``, ``intensity`` and ``attack_start_s`` so
``python -m repro run <name> --param …`` and :class:`ExperimentRunner` grids
can sweep attacker type × intensity × onset on any topology; see
``examples/attack_sweep.py``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..adversary.spec import AttackSpec, paper_attacker
from .registry import register_scenario
from .spec import FAIR_SHARE_BPS, CbrDecl, ScenarioSpec, SessionDecl, TcpDecl

__all__ = ["attack_duel_spec", "duel_spec"]

DEFAULT_ATTACK_START_S = 20.0
DEFAULT_DURATION_S = 60.0


def duel_spec(
    name: str,
    sessions: Sequence[SessionDecl],
    protected: bool,
    duration_s: float,
    tcp: Sequence[TcpDecl] = (),
    **extras: Any,
) -> ScenarioSpec:
    """Honest sessions against attacker sessions on a fair-share-sized bottleneck.

    The one shape behind the attack and scale scenario catalogue: the
    already-declared multicast ``sessions`` (in the order given) and ``tcp``
    flows contend for a dumbbell bottleneck sized at one
    :data:`~repro.experiments.spec.FAIR_SHARE_BPS` per flow — a
    multicast session weighing one however many receivers or
    cohort members it declares, because it sends one copy across the
    bottleneck.  ``extras`` are the remaining
    :class:`~repro.experiments.spec.ScenarioSpec` fields a builder sets
    (``topology``, ``topology_params``, ``cbr``, ``shards``); a builder
    naming its own ``topology_params`` sizes its links itself.
    """
    flows = len(sessions) + len(tcp)
    extras.setdefault(
        "topology_params", {"bottleneck_bandwidth_bps": flows * FAIR_SHARE_BPS}
    )
    return ScenarioSpec(
        name=name,
        protected=protected,
        sessions=tuple(sessions),
        tcp=tuple(tcp),
        duration_s=duration_s,
        **extras,
    )


def attack_duel_spec(
    name: str,
    attack: AttackSpec,
    protected: bool = True,
    duration_s: float = DEFAULT_DURATION_S,
) -> ScenarioSpec:
    """The Figure 1/7 duel with a pluggable attacker strategy.

    Two multicast sessions (attacker ``F1``, honest ``F2``) and one TCP flow
    share a dumbbell bottleneck sized for one fair share per flow; the attack
    spec decides what ``F1`` mounts (``F1`` gets as many receivers as the
    attack targets).  Three flows cross the bottleneck regardless of the
    attacker's receiver count — a multicast session sends one copy across it.
    """
    receivers = max(attack.receivers) + 1
    return duel_spec(
        name,
        (
            SessionDecl("F1", receivers=receivers, attacks=(attack,)),
            SessionDecl("F2", receivers=1),
        ),
        protected,
        duration_s,
        tcp=(TcpDecl("T1"),),
    )


#: The single-strategy duels: name, description, the strategy ``F1`` mounts
#: and the parameters the scenario sets beyond the strategy's own defaults.
DUELS = (
    (
        "attack-flapping",
        "Join/leave churn against SIGMA: the attacker flaps its membership and "
        "milks the admission grace windows",
        "churn",
        {"period_s": 4.0},
    ),
    (
        "attack-key-guessing",
        "Random key guessing (§4.2): uniformly random keys for every forbidden "
        "group, every slot",
        "key-guessing",
        {"guesses_per_slot": 8},
    ),
    (
        "attack-key-replay",
        "Key replay (§4.1): legitimately reconstructed keys re-submitted out of "
        "scope, against higher groups and later slots",
        "key-replay",
        {},
    ),
    (
        "attack-join-storm",
        "IGMP join storm: bare membership reports for every group at every slot "
        "boundary — inflation against IGMP, control-plane noise against SIGMA",
        "join-storm",
        {},
    ),
    (
        "attack-ignore-congestion",
        "Congestion masking (§2.1): the attacker pretends it saw no losses — "
        "DELTA then hands it keys it cannot compute correctly",
        "ignore-congestion",
        {},
    ),
)


def _duel_builder(name: str, strategy: str, scenario_params: Mapping[str, Any]):
    """The builder of one :data:`DUELS` row: ``params`` override the row's
    strategy parameters, which the strategy's declaration checks."""

    def build(
        protected: bool = True,
        intensity: float = 1.0,
        attack_start_s: float = DEFAULT_ATTACK_START_S,
        duration_s: float = DEFAULT_DURATION_S,
        **params: Any,
    ) -> ScenarioSpec:
        attack = AttackSpec(
            strategy,
            start_s=attack_start_s,
            intensity=intensity,
            params={**scenario_params, **params},
        )
        return attack_duel_spec(name, attack, protected=protected, duration_s=duration_s)

    return build


for _name, _description, _strategy, _params in DUELS:
    register_scenario(_name, _description)(_duel_builder(_name, _strategy, _params))


@register_scenario(
    "attack-composite",
    "The full Figure 7 attacker rebuilt from composed strategies: bare "
    "joins + key replay + key guessing + join storm on one receiver",
)
def attack_composite(
    protected: bool = True,
    intensity: float = 1.0,
    attack_start_s: float = DEFAULT_ATTACK_START_S,
    duration_s: float = DEFAULT_DURATION_S,
) -> ScenarioSpec:
    """The Figure 7 attacker plus a join storm: four strategies on one receiver."""
    schedule = dict(start_s=attack_start_s, intensity=intensity)
    attacks = (*paper_attacker(True, **schedule), AttackSpec("join-storm", **schedule))
    return duel_spec(
        "attack-composite",
        (
            SessionDecl("F1", receivers=1, attacks=attacks),
            SessionDecl("F2", receivers=1),
        ),
        protected,
        duration_s,
        tcp=(TcpDecl("T1"),),
    )


@register_scenario(
    "attack-collusion-parking-lot",
    "Colluding receivers on a 3-hop parking lot share reconstructed keys "
    "out of band (§4.3): the downstream colluder submits the upstream "
    "colluder's keys across its own congested bottleneck",
)
def attack_collusion_parking_lot(
    protected: bool = True,
    intensity: float = 1.0,
    attack_start_s: float = DEFAULT_ATTACK_START_S,
    hops: int = 3,
    duration_s: float = DEFAULT_DURATION_S,
) -> ScenarioSpec:
    """Collusion across bottlenecks — impossible to express before the
    general topology layer: each colluder sits behind its own SIGMA edge
    router, and only the multi-hop chain makes their entitlements diverge.

    A CBR burst squeezes the last hop, so the downstream colluder's honest
    entitlement collapses while the upstream colluder keeps reconstructing
    high-group keys and publishing them into the shared pool.
    """
    last = f"r{hops}"
    collusion = AttackSpec(
        "collusion",
        receivers=(0, 1),
        start_s=attack_start_s,
        intensity=intensity,
        params={"pool": "lot"},
    )
    return ScenarioSpec(
        name="attack-collusion-parking-lot",
        protected=protected,
        topology="parking-lot",
        topology_params={
            "hops": hops,
            "bottleneck_bandwidth_bps": 3 * FAIR_SHARE_BPS,
        },
        sessions=(
            SessionDecl(
                "colluders",
                receivers=2,
                attacks=(collusion,),
                receiver_routers=("r1", last),
            ),
            SessionDecl(
                "victims",
                receivers=2,
                receiver_routers=("r1", last),
            ),
        ),
        cbr=(
            CbrDecl(
                "squeeze",
                rate_bps=2 * FAIR_SHARE_BPS,
                on_s=5.0,
                off_s=2.0,
                active_window=(attack_start_s, duration_s),
                receiver_router=last,
            ),
        ),
        duration_s=duration_s,
    )
