"""Scale scenarios: cohort-aggregated audiences of 10k-100k+ receivers.

The paper's claims are scaling claims — SIGMA's bound on inflated
subscription damage holds for *any* honest audience size, and the §5.4
overhead model is independent of the receiver count because keys travel once
per edge router, not once per receiver.  The historical scenarios exercise
tens of receivers; the scenarios here push the population axis three orders
of magnitude further by realising populations as
:class:`~repro.experiments.spec.CohortDecl` blocks (one aggregated receiver
per edge interface; see ``docs/scale.md``):

* ``scale-dumbbell-10k`` — the Figure 1/7 inflated-subscription duel with a
  10,000-receiver honest audience behind the bottleneck: one individual
  attacker inflates its subscription into a cohort-backed session, SIGMA
  contains it, and the protection metrics are population-weighted.
* ``scale-overhead-100k`` — the Figure 9 measured-overhead cross-check with
  a 100,000-receiver audience: DELTA/SIGMA overhead on the wire must stay at
  its per-session value however large the audience grows (the overhead
  model's group-count axis, extended along the population dimension).
* ``attack-inflated-100k`` — the robustness claim at full scale: an
  **adversarial cohort** of inflated-join attackers against a
  100,000-receiver honest audience, both aggregated, protection metrics
  population-weighted (completes in seconds on one CPU; the acceptance
  budget is 60 s wall).
* ``attack-keys-100k`` — the §4 key-oriented attacks at full scale: a
  key-replay cohort and a key-guessing cohort (the formerly randomised
  strategies, batch-exact since PR 8) against a 100,000-receiver honest
  audience, every counter population-weighted.
* ``attack-collusion-100k`` — §4.3 key sharing at full scale on the
  parking lot: an upstream publisher-colluder cohort keeps full entitlement
  and feeds the shared pool while a downstream exploiting-colluder cohort,
  squeezed by a CBR burst, submits the pooled keys across its own congested
  bottleneck — with a 100,000-receiver honest audience behind the same
  squeezed hop.
* ``attack-churn-flash-crowd`` — audience dynamics: a churn-attack receiver
  probing the grace windows while the honest cohort's population jumps
  100 → 100,000 mid-session through a
  :class:`~repro.multicast_cc.churn.ChurnProcess` burst.
* ``scale-protection`` — one point of the audience × attacker-fraction
  protection grid; ``examples/attack_at_scale.py`` runs the full grid
  through the parallel :class:`~repro.experiments.runner.ExperimentRunner`.
* ``scale-dumbbell-1m`` — the vector-placement flagship: a 1,000,000-receiver
  honest audience split across thousands of cohort rows on a generated
  multi-edge dumbbell, with an adversarial inflated-join population riding
  the same edges — both realised as ``model="vector"`` blocks, one receiver
  per edge router carrying that edge's rows (completes on one CPU inside the
  5-minute budget of ``test_scale_scenario_finishes_inside_the_budget``).
* ``scale-dumbbell-10m`` — the region-sharded flagship: the same duel at
  10,000,000 receivers on a ``sharded-dumbbell`` topology whose 8 regions
  run as independent process-pool workers with a deterministic
  boundary-event merge (``shards=8``; see :mod:`repro.experiments.shard`
  and ``docs/scale.md``).

Builders accept ``model="individual"`` to realise the same spec with
per-object receivers — the reference the equivalence tests compare against
(at small counts; per-object 100k receivers would not fit in memory).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..adversary.spec import AttackSpec, paper_attacker
from ..multicast_cc.churn import ChurnProcess
from ..multicast_cc.session import SessionSpec
from .attacks import duel_spec
from .registry import register_scenario
from .spec import FAIR_SHARE_BPS, CbrDecl, CohortDecl, ScenarioSpec, SessionDecl

__all__ = [
    "scale_dumbbell_spec",
    "scale_dumbbell_1m_spec",
    "scale_dumbbell_10m_spec",
    "scale_overhead_spec",
    "attack_inflated_100k_spec",
    "attack_keys_100k_spec",
    "attack_collusion_100k_spec",
    "attack_churn_flash_crowd_spec",
    "scale_protection_spec",
]


def _crowd(session_id: str, *blocks: CohortDecl) -> SessionDecl:
    """A session whose whole population is cohort ``blocks``, no individuals."""
    return SessionDecl(session_id, receivers=0, population=blocks)


def _attackers(
    count: int, strategy: str, attack_start_s: float, intensity: float, **block
) -> CohortDecl:
    """An adversarial block: ``count`` members mounting ``strategy``."""
    attack = AttackSpec(strategy, start_s=attack_start_s, intensity=intensity)
    return CohortDecl(count, attack=attack, **block)


def scale_dumbbell_spec(
    receivers: int = 10_000,
    protected: bool = True,
    attack_start_s: float = 10.0,
    duration_s: float = 30.0,
    model: str = "cohort",
    cohorts: Optional[int] = None,
) -> ScenarioSpec:
    """Inflated-subscription duel against a ``receivers``-strong audience.

    Two sessions share a fair-share-sized dumbbell bottleneck: an
    ``audience`` session whose honest population is one cohort of
    ``receivers`` members, and an ``attacker`` session whose single
    individual receiver mounts the paper's attacker
    (:func:`~repro.adversary.spec.paper_attacker`) from ``attack_start_s``
    — few attackers, many honest receivers, exactly the paper's threat
    model at scale.  ``cohorts`` splits the
    audience into that many cohort rows (the axis the cohort-count
    benchmark sweeps); ``None`` keeps the single-cohort legacy shape.
    """
    return duel_spec(
        "scale-dumbbell-10k",
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


register_scenario(
    "scale-dumbbell-10k",
    "Inflated-subscription attack against a 10,000-receiver cohort audience "
    "on the paper's dumbbell (population-weighted protection metrics)",
)(scale_dumbbell_spec)


def _vector_duel(
    receivers: int,
    cohorts: int,
    attackers: int,
    attacker_cohorts: int,
    attack_start_s: float,
    intensity: float,
) -> Tuple[SessionDecl, SessionDecl]:
    """The flagships' two sessions, both ``model="vector"`` populations.

    An honest ``audience`` of ``receivers`` members in ``cohorts`` rows and
    an ``attackers`` population of ``attackers`` members in
    ``attacker_cohorts`` rows mounting inflated-join from ``attack_start_s``.
    """
    return (
        _crowd("audience", CohortDecl(receivers, model="vector", cohorts=cohorts)),
        _crowd(
            "attackers",
            _attackers(
                attackers,
                "inflated-join",
                attack_start_s,
                intensity,
                model="vector",
                cohorts=attacker_cohorts,
            ),
        ),
    )


def scale_dumbbell_1m_spec(
    receivers: int = 1_000_000,
    cohorts: int = 4_096,
    attackers: int = 10_000,
    attacker_cohorts: int = 64,
    edges: int = 32,
    protected: bool = True,
    attack_start_s: float = 8.0,
    intensity: float = 1.0,
    duration_s: float = 20.0,
) -> ScenarioSpec:
    """The million-receiver duel on a generated multi-edge dumbbell.

    An ``audience`` session of ``receivers`` honest members split across
    ``cohorts`` cohort rows and an ``attackers`` session mounting the
    inflated-join strategy from ``attack_start_s`` share one fair-share-sized
    bottleneck feeding ``edges`` edge routers.  Both populations are
    ``model="vector"`` blocks: the interpreter round-robins the cohort rows
    over the edge routers and one receiver per edge carries that edge's
    rows at one shared subscription level, so the Python object count
    scales with ``edges`` — not ``cohorts``, and certainly not
    ``receivers``.  The edges are interchangeable, so one of them is built
    and carries the rows of all (see ``docs/scale.md``).
    """
    return duel_spec(
        "scale-dumbbell-1m",
        _vector_duel(
            receivers, cohorts, attackers, attacker_cohorts, attack_start_s, intensity
        ),
        protected,
        duration_s,
        topology="multi-edge-dumbbell",
        topology_params={
            "edges": edges,
            "bottleneck_bandwidth_bps": 2 * FAIR_SHARE_BPS,
        },
    )


register_scenario(
    "scale-dumbbell-1m",
    "Inflated-join attacker population against a 1,000,000-receiver honest "
    "audience on a 32-edge dumbbell — thousands of cohort rows carried by "
    "one receiver per edge router",
)(scale_dumbbell_1m_spec)


def scale_dumbbell_10m_spec(
    receivers: int = 10_000_000,
    cohorts: int = 8_192,
    attackers: int = 100_000,
    attacker_cohorts: int = 512,
    regions: int = 8,
    edges_per_region: int = 8,
    protected: bool = True,
    attack_start_s: float = 8.0,
    intensity: float = 1.0,
    duration_s: float = 20.0,
) -> ScenarioSpec:
    """The region-sharded flagship: ten million receivers across 8 regions.

    The ``scale-dumbbell-1m`` duel taken one order of magnitude further on a
    ``sharded-dumbbell`` topology: ``regions`` independently-bottlenecked
    multi-edge dumbbells hang off a shared trunk, the honest audience and
    the batched inflated-join attacker population are ``model="vector"``
    blocks round-robined over all ``regions × edges_per_region`` edge
    routers, and ``shards=regions`` lets the runner execute each distinct
    region in its own process-pool worker with a deterministic
    boundary-event merge (:mod:`repro.experiments.shard`).  At the defaults
    regions 1–4 and 5–8 are equal, so the cell runs 2 region jobs.  The
    merged result is byte-identical between the serial and pooled paths —
    and, because each region has its own private bottleneck, to the
    unsharded run of the same topology.
    """
    return duel_spec(
        "scale-dumbbell-10m",
        _vector_duel(
            receivers, cohorts, attackers, attacker_cohorts, attack_start_s, intensity
        ),
        protected,
        duration_s,
        topology="sharded-dumbbell",
        topology_params={
            "regions": regions,
            "edges_per_region": edges_per_region,
            "bottleneck_bandwidth_bps": 2 * FAIR_SHARE_BPS,
        },
        shards=regions,
    )


register_scenario(
    "scale-dumbbell-10m",
    "Inflated-join attacker population against a 10,000,000-receiver honest "
    "audience sharded across 8 topology regions, each distinct region a "
    "process-pool worker, merged deterministically at slot barriers",
)(scale_dumbbell_10m_spec)


def scale_overhead_spec(
    receivers: int = 100_000,
    duration_s: float = 30.0,
    model: str = "cohort",
) -> ScenarioSpec:
    """Figure 9's measured overhead with a ``receivers``-strong audience.

    A generous bottleneck (twice the maximal cumulative session rate) keeps
    the audience at the top subscription level and suppression is disabled,
    so the full session rate flows and the measured DELTA/SIGMA overhead is
    directly comparable with the analytic model — which predicts it does not
    depend on the audience size at all, because keys travel per edge router.
    """
    max_rate_bps = SessionSpec("audience").max_rate_bps()
    return ScenarioSpec(
        name="scale-overhead-100k",
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


register_scenario(
    "scale-overhead-100k",
    "Figure 9 overhead cross-check with a 100,000-receiver cohort audience: "
    "protection overhead is independent of the population size",
)(scale_overhead_spec)


def attack_inflated_100k_spec(
    receivers: int = 100_000,
    attackers: int = 100,
    protected: bool = True,
    attack_start_s: float = 10.0,
    intensity: float = 1.0,
    duration_s: float = 30.0,
    model: str = "cohort",
) -> ScenarioSpec:
    """The paper's robustness claim at full scale: cohorts on both sides.

    Two sessions share a fair-share-sized dumbbell bottleneck: an
    ``audience`` session whose honest population is one cohort of
    ``receivers`` members, and an ``attackers`` session realised as an
    *adversarial cohort* — ``attackers`` members all mounting the
    inflated-join strategy from ``attack_start_s``.  SIGMA must contain the
    whole attacker population (weighted excess goodput near zero); the
    unprotected variant (``protected=False``) shows the aggregate damage an
    IGMP edge would concede.
    """
    return duel_spec(
        "attack-inflated-100k",
        (
            _crowd("audience", CohortDecl(receivers, model=model)),
            _crowd(
                "attackers",
                _attackers(
                    attackers, "inflated-join", attack_start_s, intensity, model=model
                ),
            ),
        ),
        protected,
        duration_s,
    )


register_scenario(
    "attack-inflated-100k",
    "Inflated-join attacker cohort against a 100,000-receiver honest cohort: "
    "the containment claim at full scale, protection metrics "
    "population-weighted",
)(attack_inflated_100k_spec)


def attack_keys_100k_spec(
    receivers: int = 100_000,
    replayers: int = 50,
    guessers: int = 50,
    protected: bool = True,
    attack_start_s: float = 10.0,
    intensity: float = 1.0,
    duration_s: float = 30.0,
    model: str = "cohort",
) -> ScenarioSpec:
    """The §4 key-oriented attacks against a ``receivers``-strong audience.

    Two adversarial cohorts — ``replayers`` members replaying legitimately
    reconstructed keys out of scope (§4.1) and ``guessers`` members
    submitting random keys (§4.2) — share a fair-share-sized dumbbell
    bottleneck with a ``receivers``-member honest cohort.  Both strategies
    book counters at member weight, so the whole attacker population costs
    two receiver objects however large it is declared.  The guessers are
    not exact: the block draws one guess budget per slot for all its
    members, so it equals ``guessers`` individuals only while no guess
    succeeds (ROADMAP item 16; the strict xfail
    ``test_key_guessing_block_guesses_like_its_members``).  SIGMA must hold
    every replay in ``invalid_submissions`` and alarm on the guess volume
    while the honest audience's goodput stays at its fair share.
    """
    return duel_spec(
        "attack-keys-100k",
        (
            _crowd("audience", CohortDecl(receivers, model=model)),
            _crowd(
                "attackers",
                _attackers(
                    replayers, "key-replay", attack_start_s, intensity, model=model
                ),
                _attackers(
                    guessers, "key-guessing", attack_start_s, intensity, model=model
                ),
            ),
        ),
        protected,
        duration_s,
    )


register_scenario(
    "attack-keys-100k",
    "Key-replay and key-guessing attacker cohorts against a "
    "100,000-receiver honest cohort: the paper's §4 key-oriented attacks "
    "at full scale, randomness drawn per cohort, counters "
    "population-weighted",
)(attack_keys_100k_spec)


def attack_collusion_100k_spec(
    receivers: int = 100_000,
    publishers: int = 50,
    exploiters: int = 50,
    protected: bool = True,
    attack_start_s: float = 10.0,
    intensity: float = 1.0,
    hops: int = 3,
    duration_s: float = 30.0,
    model: str = "cohort",
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
    return duel_spec(
        "attack-collusion-100k",
        (
            _crowd(
                "colluders",
                CohortDecl(publishers, router="r1", model=model, attack=collusion),
                CohortDecl(exploiters, router=last, model=model, attack=collusion),
            ),
            _crowd("audience", CohortDecl(receivers, router=last, model=model)),
        ),
        protected,
        duration_s,
        topology="parking-lot",
        topology_params={
            "hops": hops,
            "bottleneck_bandwidth_bps": 3 * FAIR_SHARE_BPS,
        },
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
    )


register_scenario(
    "attack-collusion-100k",
    "Publisher and exploiting collusion cohorts pooling keys across the "
    "parking lot while a CBR burst squeezes the exploiters' hop — §4.3 key "
    "sharing against a 100,000-receiver honest audience",
)(attack_collusion_100k_spec)


def attack_churn_flash_crowd_spec(
    initial: int = 100,
    surge: int = 99_900,
    surge_at_s: float = 12.0,
    attack_start_s: float = 6.0,
    protected: bool = True,
    duration_s: float = 30.0,
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
        "attack-churn-flash-crowd",
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


register_scenario(
    "attack-churn-flash-crowd",
    "Churn attacker probing the grace windows while the honest audience "
    "flash-crowds from 100 to 100,000 members mid-session",
)(attack_churn_flash_crowd_spec)


def scale_protection_spec(
    audience: int = 10_000,
    attacker_fraction: float = 0.01,
    strategy: str = "inflated-join",
    protected: bool = True,
    attack_start_s: float = 10.0,
    intensity: float = 1.0,
    duration_s: float = 30.0,
    model: str = "cohort",
) -> ScenarioSpec:
    """One point of the audience × attacker-fraction protection grid.

    ``attacker_fraction`` of the audience misbehaves (at least one member),
    as an adversarial cohort mounting ``strategy`` — any registered strategy,
    the whole registry batches exactly — against the honest remainder: the
    axes along which the paper's containment claim must stay flat.
    ``intensity`` scales the strategy's aggression (the figure-8 sweep axis
    the warm-start benchmark shares one prefix checkpoint across).
    """
    if not 0.0 < attacker_fraction < 1.0:
        raise ValueError("attacker_fraction must be in (0, 1)")
    attackers = max(1, round(audience * attacker_fraction))
    honest = max(1, audience - attackers)
    return duel_spec(
        "scale-protection",
        (
            _crowd("audience", CohortDecl(honest, model=model)),
            _crowd(
                "attackers",
                _attackers(attackers, strategy, attack_start_s, intensity, model=model),
            ),
        ),
        protected,
        duration_s,
    )


register_scenario(
    "scale-protection",
    "One audience × attacker-fraction × strategy grid point: an attacker "
    "cohort sized as a fraction of the honest audience, mounting any "
    "registered strategy (examples/attack_at_scale.py runs the full grid)",
)(scale_protection_spec)
