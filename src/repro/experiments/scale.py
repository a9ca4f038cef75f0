"""Scale scenarios: cohort-aggregated audiences of 10k to 10M receivers.

The paper's claims are scaling claims — SIGMA's bound on inflated
subscription damage holds for *any* honest audience size, and the §5.4
overhead model is independent of the receiver count because keys travel once
per edge router, not once per receiver.  The rows here push the population
axis three to six orders of magnitude past the historical scenarios by
realising populations as :class:`~repro.experiments.spec.CohortDecl` blocks
(one aggregated receiver per edge interface); ``docs/scale.md`` describes
each of them.

Five rows are cohort duels, built by one builder: an honest audience against
attacker blocks, each named as a (strategy, count parameter) pair.  The
flagships' blocks are ``model="vector"`` rows spread over many edge routers,
and ``scale-dumbbell-10m`` runs each distinct topology region as a
process-pool shard (:mod:`repro.experiments.shard`).  The rows with a
``model`` parameter accept ``model="individual"`` to realise the same spec
with per-object receivers — the reference the equivalence tests compare
against (at small counts; per-object 100k receivers would not fit in
memory).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, Sequence, Tuple

from ..adversary.spec import AttackSpec, paper_attacker
from ..multicast_cc.churn import ChurnProcess
from ..multicast_cc.session import SessionSpec
from .attacks import attack_params, duel_spec, squeezed_lot
from .registry import register_scenario, scenario_spec
from .spec import FAIR_SHARE_BPS, CohortDecl, ScenarioSpec, SessionDecl

__all__ = ["scale_dumbbell_spec", "scale_protection_spec"]


#: ``scenario_spec`` of two rows, under the names the benchmark harness imports.
scale_dumbbell_spec = partial(scenario_spec, "scale-dumbbell-10k")
scale_protection_spec = partial(scenario_spec, "scale-protection")


def _crowd(session_id: str, *blocks: CohortDecl) -> SessionDecl:
    """A session whose whole population is cohort ``blocks``, no individuals."""
    return SessionDecl(session_id, receivers=0, population=blocks)


#: The attack parameters of the 100k rows, with their cohort model.
_AT_100K = dict(attack_params(10.0, 30.0), model="cohort")
#: The flagships' attacker population: one inflated-join block.
_INFLATED = (("inflated-join", "attackers"),)


def _cohort_duel(
    name: str,
    *,
    blocks: Sequence[Tuple[str, str]],
    topology: str = "dumbbell",
    model: str = "cohort",
    receivers: int,
    protected: bool,
    attack_start_s: float,
    intensity: float,
    duration_s: float,
    cohorts: Optional[int] = None,
    attacker_cohorts: Optional[int] = None,
    **counts: int,
) -> ScenarioSpec:
    """The builder of every cohort duel row: an honest audience against
    attacker blocks on a fair-share-sized bottleneck.

    The ``audience`` session is one block of ``receivers`` honest members in
    ``cohorts`` rows; the ``attackers`` session has one block per
    ``(strategy, count parameter)`` pair of ``blocks``, each of that many
    members in ``attacker_cohorts`` rows mounting the strategy from
    ``attack_start_s``.  The ``counts`` no block names are the topology's
    own parameters; a topology of regions runs one shard per region.
    """
    attack = partial(AttackSpec, start_s=attack_start_s, intensity=intensity)
    attackers = [
        CohortDecl(counts[count], model=model, cohorts=attacker_cohorts, attack=attack(strategy))
        for strategy, count in blocks
    ]
    named = dict(blocks).values()
    topology_params = {key: value for key, value in counts.items() if key not in named}
    return duel_spec(
        name,
        (
            _crowd("audience", CohortDecl(receivers, model=model, cohorts=cohorts)),
            _crowd("attackers", *attackers),
        ),
        protected,
        duration_s,
        topology=topology,
        topology_params=topology_params,
        shards=topology_params.get("regions"),
    )


register_scenario(
    "scale-dumbbell-1m",
    "Inflated-join attacker population against a 1,000,000-receiver honest "
    "audience on a 32-edge dumbbell — thousands of cohort rows carried by "
    "one receiver per edge router",
    dict(
        receivers=1_000_000,
        cohorts=4_096,
        attackers=10_000,
        attacker_cohorts=64,
        edges=32,
        **attack_params(8.0, 20.0),
    ),
)(partial(_cohort_duel, blocks=_INFLATED, topology="multi-edge-dumbbell", model="vector"))
register_scenario(
    "scale-dumbbell-10m",
    "Inflated-join attacker population against a 10,000,000-receiver honest "
    "audience sharded across 8 topology regions, each distinct region a "
    "process-pool worker, merged deterministically at slot barriers",
    dict(
        receivers=10_000_000,
        cohorts=8_192,
        attackers=100_000,
        attacker_cohorts=512,
        regions=8,
        edges_per_region=8,
        **attack_params(8.0, 20.0),
    ),
)(partial(_cohort_duel, blocks=_INFLATED, topology="sharded-dumbbell", model="vector"))
register_scenario(
    "attack-inflated-100k",
    "Inflated-join attacker cohort against a 100,000-receiver honest cohort: "
    "the containment claim at full scale, protection metrics "
    "population-weighted",
    dict(receivers=100_000, attackers=100, **_AT_100K),
)(partial(_cohort_duel, blocks=_INFLATED))
register_scenario(
    "attack-keys-100k",
    "Key-replay and key-guessing attacker cohorts against a "
    "100,000-receiver honest cohort: the paper's §4 key-oriented attacks "
    "at full scale, randomness drawn per cohort, counters "
    "population-weighted",
    dict(receivers=100_000, replayers=50, guessers=50, **_AT_100K),
)(partial(_cohort_duel, blocks=(("key-replay", "replayers"), ("key-guessing", "guessers"))))


@register_scenario(
    "scale-protection",
    "One audience × attacker-fraction × strategy grid point: an attacker "
    "cohort sized as a fraction of the honest audience, mounting any "
    "registered strategy (examples/attack_at_scale.py runs the full grid)",
    dict(audience=10_000, attacker_fraction=0.01, strategy="inflated-join", **_AT_100K),
)
def _protection_point(
    name: str, audience: int, attacker_fraction: float, strategy: str, **params: Any
) -> ScenarioSpec:
    """The cohort duel of ``audience`` members, ``attacker_fraction`` of them
    (at least one, and never all) one block mounting ``strategy``: any
    registered strategy, as the whole registry batches exactly."""
    if not 0.0 < attacker_fraction < 1.0:
        raise ValueError("attacker_fraction must be in (0, 1)")
    attackers = max(1, round(audience * attacker_fraction))
    if attackers >= audience:
        raise ValueError(
            f"{name}: audience {audience} at attacker_fraction {attacker_fraction} "
            f"leaves no honest member beside {attackers} attacker(s)"
        )
    return _cohort_duel(
        name,
        blocks=((strategy, "attackers"),),
        receivers=audience - attackers,
        attackers=attackers,
        **params,
    )


@register_scenario(
    "scale-dumbbell-10k",
    "Inflated-subscription attack against a 10,000-receiver cohort audience "
    "on the paper's dumbbell (population-weighted protection metrics)",
    dict(
        receivers=10_000,
        protected=True,
        attack_start_s=10.0,
        duration_s=30.0,
        model="cohort",
        cohorts=None,
    ),
    hints={"cohorts": Optional[int]},
)
def _audience_duel(
    name: str,
    receivers: int,
    protected: bool,
    attack_start_s: float,
    duration_s: float,
    model: str,
    cohorts: Optional[int],
) -> ScenarioSpec:
    """One individual receiver mounting the paper's attacker against a
    ``receivers``-strong audience in ``cohorts`` rows (the axis the
    cohort-count benchmark sweeps; ``None``: one row) — few attackers, many
    honest receivers, exactly the paper's threat model at scale."""
    return duel_spec(
        name,
        (
            _crowd("audience", CohortDecl(receivers, model=model, cohorts=cohorts)),
            SessionDecl(
                "attacker",
                receivers=1,
                attacks=paper_attacker(protected, start_s=attack_start_s),
            ),
        ),
        protected,
        duration_s,
    )


@register_scenario(
    "scale-overhead-100k",
    "Figure 9 overhead cross-check with a 100,000-receiver cohort audience: "
    "protection overhead is independent of the population size",
    dict(receivers=100_000, duration_s=30.0, model="cohort"),
)
def _overhead(name: str, receivers: int, duration_s: float, model: str) -> ScenarioSpec:
    """Figure 9's measured overhead with a ``receivers``-strong audience.

    A generous bottleneck (twice the maximal cumulative session rate) keeps
    the audience at the top subscription level and suppression is disabled,
    so the full session rate flows and the measured DELTA/SIGMA overhead is
    directly comparable with the analytic model — which predicts it does not
    depend on the audience size at all, because keys travel per edge router.
    """
    max_rate_bps = SessionSpec("audience").max_rate_bps()
    return ScenarioSpec(
        name=name,
        protected=True,
        topology_params={"bottleneck_bandwidth_bps": 2.0 * max_rate_bps},
        sessions=(
            SessionDecl(
                "audience",
                receivers=0,
                track_overhead=True,
                suppress_unsubscribed_groups=False,
                population=(CohortDecl(receivers, model=model),),
            ),
        ),
        duration_s=duration_s,
    )


@register_scenario(
    "attack-collusion-100k",
    "Publisher and exploiting collusion cohorts pooling keys across the "
    "parking lot while a CBR burst squeezes the exploiters' hop — §4.3 key "
    "sharing against a 100,000-receiver honest audience",
    dict(receivers=100_000, publishers=50, exploiters=50, hops=3, **_AT_100K),
)
def _collusion(
    name: str,
    receivers: int,
    publishers: int,
    exploiters: int,
    protected: bool,
    attack_start_s: float,
    intensity: float,
    hops: int,
    duration_s: float,
    model: str,
) -> ScenarioSpec:
    """§4.3 collusion at full scale: pooled keys across the parking lot.

    The ``attack-collusion-parking-lot`` shape with cohorts on both ends: an
    upstream publisher-colluder cohort sits at ``r1`` where nothing is
    congested, keeps its full entitlement, and publishes every reconstructed
    key into the shared pool at member weight; a downstream
    exploiting-colluder cohort sits behind the last hop, which a CBR burst
    squeezes to collapse its honest entitlement, and submits the pooled
    high-group keys across its own congested bottleneck.  The
    ``receivers``-member honest audience shares that squeezed hop.  The keys
    are valid, so SIGMA accepts them — but the colluders' bottleneck still
    drops the excess, which is the §4.3 containment claim the
    population-weighted protection metrics must show at scale.
    """
    last = f"r{hops}"
    collusion = AttackSpec(
        "collusion",
        start_s=attack_start_s,
        intensity=intensity,
        params={"pool": "lot"},
    )
    return squeezed_lot(
        name,
        (
            _crowd(
                "colluders",
                CohortDecl(publishers, router="r1", model=model, attack=collusion),
                CohortDecl(exploiters, router=last, model=model, attack=collusion),
            ),
            _crowd("audience", CohortDecl(receivers, router=last, model=model)),
        ),
        protected,
        attack_start_s,
        duration_s,
        hops,
    )


@register_scenario(
    "attack-churn-flash-crowd",
    "Churn attacker probing the grace windows while the honest audience "
    "flash-crowds from 100 to 100,000 members mid-session",
    dict(
        initial=100,
        surge=99_900,
        surge_at_s=12.0,
        attack_start_s=6.0,
        protected=True,
        duration_s=30.0,
    ),
)
def _flash_crowd(
    name: str,
    initial: int,
    surge: int,
    surge_at_s: float,
    attack_start_s: float,
    protected: bool,
    duration_s: float,
) -> ScenarioSpec:
    """Flash-crowd churn under attack: the audience surges 100 → 100k.

    A churn-attack receiver flaps its membership (probing the §3.2.2 grace
    windows) while the honest cohort's population jumps by ``surge`` members
    at ``surge_at_s`` — the flash-crowd case the cohort churn process
    models.  Protection must hold through the surge, and the
    population-weighted IGMP/SIGMA counters must track the instantaneous
    membership.
    """
    return duel_spec(
        name,
        (
            _crowd(
                "crowd",
                CohortDecl(initial, churn=ChurnProcess(burst=((surge_at_s, surge),))),
            ),
            SessionDecl(
                "attacker",
                receivers=1,
                attacks=(AttackSpec("churn", start_s=attack_start_s),),
            ),
        ),
        protected,
        duration_s,
    )
