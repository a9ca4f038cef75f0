"""Named attack scenarios sweeping the adversary registry.

Each scenario pits one (or a group of) strategy-driven attackers against
honest multicast receivers and TCP cross traffic, defaulting to the
protected protocol so the registered runs double as protection regressions:
the runner's ``protection`` metrics (excess goodput over the honest
baseline, time to containment) quantify the §5.2 claim per strategy.

Every attack row takes ``protected``, ``intensity``, ``attack_start_s`` and
``duration_s`` (:func:`attack_params`), so ``python -m repro run <name>
--param …`` and :class:`ExperimentRunner` grids can sweep attacker type ×
intensity × onset on any topology; see ``examples/attack_sweep.py``.  The
F1/F2 duels — these rows and Figures 1 and 7 — share one builder,
:func:`attack_duel_spec`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from types import MappingProxyType
from typing import Any, Dict, Mapping, Sequence

from ..adversary.spec import AttackSpec, paper_attacker
from .registry import register_scenario
from .spec import FAIR_SHARE_BPS, CbrDecl, ScenarioSpec, SessionDecl, TcpDecl

__all__ = ["attack_duel_spec", "duel_spec"]


def attack_params(attack_start_s: float, duration_s: float) -> Dict[str, Any]:
    """The parameters of an attack row: ``protected`` (FLID-DS by default),
    ``intensity`` (1), ``attack_start_s`` and ``duration_s``."""
    return dict(protected=True, intensity=1.0, attack_start_s=attack_start_s, duration_s=duration_s)


#: The duels' parameters: an attack from 20 s into a 60 s run.
DUEL_PARAMS = attack_params(20.0, 60.0)


def duel_spec(
    name: str,
    sessions: Sequence[SessionDecl],
    protected: bool,
    duration_s: float,
    tcp: Sequence[TcpDecl] = (),
    topology_params: Mapping[str, Any] = MappingProxyType({}),
    **extras: Any,
) -> ScenarioSpec:
    """Honest sessions against attacker sessions on a fair-share-sized bottleneck.

    The one shape behind the attack and scale scenario catalogue: the
    already-declared multicast ``sessions`` (in the order given) and ``tcp``
    flows contend for a bottleneck sized at one
    :data:`~repro.experiments.spec.FAIR_SHARE_BPS` per flow — a
    multicast session weighing one however many receivers or
    cohort members it declares, because it sends one copy across the
    bottleneck — unless ``topology_params`` sizes it.  ``extras`` are the
    remaining :class:`~repro.experiments.spec.ScenarioSpec` fields a builder
    sets (``topology``, ``cbr``, ``shards``).
    """
    flows = len(sessions) + len(tcp)
    return ScenarioSpec(
        name=name,
        protected=protected,
        sessions=tuple(sessions),
        tcp=tuple(tcp),
        duration_s=duration_s,
        topology_params={"bottleneck_bandwidth_bps": flows * FAIR_SHARE_BPS, **topology_params},
        **extras,
    )


def attack_duel_spec(
    name: str,
    *,
    stack: Sequence[AttackSpec],
    attack_start_s: float,
    protected: bool = True,
    duration_s: float,
    intensity: float = 1.0,
    tcp: int = 1,
    in_run: bool = False,
    strategy_params: Mapping[str, Any] = MappingProxyType({}),
) -> ScenarioSpec:
    """The Figure 1/7 duel with pluggable attacker strategies: the builder of
    every F1/F2 row.

    Two multicast sessions (attacker ``F1``, honest ``F2``) and ``tcp`` TCP
    flows share a dumbbell bottleneck sized for one fair share per flow —
    a multicast session sends one copy across it, however many receivers it
    has.  ``F1`` mounts ``stack`` and gets as many receivers as it targets;
    each strategy starts at ``attack_start_s`` with ``intensity``, and
    ``strategy_params`` override its parameters, which the strategy's
    declaration checks.  With ``in_run`` (the figure rows) the attack never
    starts after the run ends; without it an attack that starts when the run
    has ended is refused.  Both times are checked by name before they are
    compared.
    """
    receivers = max(index for attack in stack for index in attack.receivers) + 1

    def duel(start_s: float) -> ScenarioSpec:
        schedule = dict(start_s=start_s, intensity=intensity)
        attacks = tuple(
            replace(attack, **schedule, params={**attack.params, **strategy_params})
            for attack in stack
        )
        return duel_spec(
            name,
            (
                SessionDecl("F1", receivers=receivers, attacks=attacks),
                SessionDecl("F2", receivers=1),
            ),
            protected,
            duration_s,
            tcp=tuple(TcpDecl(f"T{index + 1}") for index in range(tcp)),
        )

    spec = duel(attack_start_s)
    if attack_start_s < duration_s:
        return spec
    if in_run:
        return duel(duration_s)
    raise ValueError(
        f"attack_start_s {attack_start_s:g} must be before the run ends (duration_s {duration_s:g})"
    )


#: The single-strategy duels: name, description and the attack ``F1``
#: mounts, with the parameters the scenario sets beyond the strategy's own
#: defaults.
DUELS = (
    (
        "attack-flapping",
        "Join/leave churn against SIGMA: the attacker flaps its membership and "
        "milks the admission grace windows",
        AttackSpec("churn", params={"period_s": 4.0}),
    ),
    (
        "attack-key-guessing",
        "Random key guessing (§4.2): uniformly random keys for every forbidden "
        "group, every slot",
        AttackSpec("key-guessing", params={"guesses_per_slot": 8}),
    ),
    (
        "attack-key-replay",
        "Key replay (§4.1): legitimately reconstructed keys re-submitted out of "
        "scope, against higher groups and later slots",
        AttackSpec("key-replay"),
    ),
    (
        "attack-join-storm",
        "IGMP join storm: bare membership reports for every group at every slot "
        "boundary — inflation against IGMP, control-plane noise against SIGMA",
        AttackSpec("join-storm"),
    ),
    (
        "attack-ignore-congestion",
        "Congestion masking (§2.1): the attacker pretends it saw no losses — "
        "DELTA then hands it keys it cannot compute correctly",
        AttackSpec("ignore-congestion"),
    ),
)


def squeezed_lot(
    name: str,
    sessions: Sequence[SessionDecl],
    protected: bool,
    attack_start_s: float,
    duration_s: float,
    hops: int,
) -> ScenarioSpec:
    """The collusion rows' frame: ``sessions`` on a ``hops``-hop parking lot
    of three fair shares a hop, whose last hop a CBR burst squeezes from
    ``attack_start_s`` to the end of the run."""
    return duel_spec(
        name,
        sessions,
        protected,
        duration_s,
        topology="parking-lot",
        topology_params={"hops": hops, "bottleneck_bandwidth_bps": 3 * FAIR_SHARE_BPS},
        cbr=(
            CbrDecl(
                "squeeze",
                rate_bps=2 * FAIR_SHARE_BPS,
                on_s=5.0,
                off_s=2.0,
                active_window=(attack_start_s, duration_s),
                receiver_router=f"r{hops}",
            ),
        ),
    )


@register_scenario(
    "attack-collusion-parking-lot",
    "Colluding receivers on a 3-hop parking lot share reconstructed keys "
    "out of band (§4.3): the downstream colluder submits the upstream "
    "colluder's keys across its own congested bottleneck",
    dict(DUEL_PARAMS, hops=3),
)
def _collusion_parking_lot(
    name: str,
    protected: bool,
    intensity: float,
    attack_start_s: float,
    duration_s: float,
    hops: int,
) -> ScenarioSpec:
    """Collusion across bottlenecks — impossible to express before the
    general topology layer: each colluder sits behind its own SIGMA edge
    router, and only the multi-hop chain makes their entitlements diverge.

    A CBR burst squeezes the last hop, so the downstream colluder's honest
    entitlement collapses while the upstream colluder keeps reconstructing
    high-group keys and publishing them into the shared pool.
    """
    routers = ("r1", f"r{hops}")
    collusion = AttackSpec(
        "collusion",
        receivers=(0, 1),
        start_s=attack_start_s,
        intensity=intensity,
        params={"pool": "lot"},
    )
    return squeezed_lot(
        name,
        (
            SessionDecl("colluders", receivers=2, attacks=(collusion,), receiver_routers=routers),
            SessionDecl("victims", receivers=2, receiver_routers=routers),
        ),
        protected,
        attack_start_s,
        duration_s,
        hops,
    )


for _name, _description, _attack in DUELS:
    register_scenario(
        _name,
        _description,
        DUEL_PARAMS,
        strategy_params=True,
    )(partial(attack_duel_spec, stack=(_attack,)))

register_scenario(
    "attack-composite",
    "The full Figure 7 attacker rebuilt from composed strategies: bare "
    "joins + key replay + key guessing + join storm on one receiver",
    DUEL_PARAMS,
)(partial(attack_duel_spec, stack=(*paper_attacker(True), AttackSpec("join-storm"))))
