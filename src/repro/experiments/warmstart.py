"""Common-prefix planning for warm-started grids: pure, with no I/O.

Every paper sweep re-simulates an identical warm-up prefix in each grid
cell: the honest audience runs unperturbed from ``t=0`` until the cell's
attack schedule starts.  This module finds that prefix, so cells can share it.

* :func:`plan_prefix` — the **canonicalizer**.  Given one cell's spec it
  finds the last slot barrier at (or before) the earliest attack onset and
  rewrites every field that is provably inert before that barrier — attack
  strategies/intensities/params, the scenario name, the duration, series
  recording, and churn processes that have not acted yet — into fixed
  placeholders.  Cells whose canonical prefix specs are byte-equal share
  the same pre-attack dynamics, so one checkpoint serves them all.  A field
  that is *active* before the barrier (a churn burst inside the prefix, an
  attack with an early onset) is left in place, which splits the key: such
  cells are never prefix-shared.
* :func:`effective_spec` — the second canonical form, through the same
  walker: every attack at the intensity its strategy acts on.  The result
  cache key (:meth:`~repro.experiments.runner.ResultCache.key`) hashes it.
* :class:`PrefixPlan` — a prefix's canonical spec and barrier, the content
  address of its checkpoint blob, and the block a job's payload names it by.

The blobs themselves live in the cell's cache directory, whose one store is
:class:`~repro.experiments.runner.ResultCache`; the worker half of a warm
start (build or restore the prefix, rebind the cell, run it to the end) is
:func:`~repro.experiments.runner.run_scenario`.  A warm run is
byte-identical to a cold run — the golden warm-start suite asserts it for
every golden scenario and a job's ``verify`` re-checks it at runtime.

Why byte-identity holds: the barrier cut is *exclusive*
(:meth:`Scenario.run_to_barrier`), so events scheduled at exactly the
barrier fire after restore in their original order; strategy RNG streams
are named by (session, host, attack index, strategy) and a zero-draw
stream equals a freshly seeded one, so rebinding rebuilds them exactly;
and placeholder attacks/churn never act before the barrier by
construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .. import code_digest
from ..adversary.registry import ADVERSARIES
from ..adversary.spec import AttackSpec
from ..multicast_cc.churn import ChurnProcess
from .scenario import interchangeable_edges
from .spec import CohortDecl, ScenarioSpec, SessionDecl

__all__ = [
    "PrefixPlan",
    "plan_prefix",
    "effective_spec",
]

#: Placeholder name for every canonical prefix spec — the scenario name
#: never reaches the simulation (hosts are named from session ids), so
#: cells that differ only in their label share a prefix.
PREFIX_NAME = "warm-prefix"

#: Placeholder strategy mounted while the prefix runs.  ``inflated-join``
#: is registered for every protocol variant and batch-exact on cohorts, and
#: with ``start_s`` at the barrier it never acts inside the prefix — it
#: only marks which receivers mount a strategy stack, which the real
#: strategies replace at rebind.
PLACEHOLDER_STRATEGY = "inflated-join"


def _canonical_attack(attack: AttackSpec, barrier_s: float) -> AttackSpec:
    """The placeholder standing in for ``attack`` before the barrier.

    Everything the sweep varies (strategy, onset, stop, intensity, params)
    collapses to fixed values; whatever else an attack declares — today
    ``receivers``, which decides which receivers mount a stack at
    construction time — is preserved.
    """
    return replace(
        attack,
        strategy=PLACEHOLDER_STRATEGY,
        start_s=barrier_s,
        stop_s=None,
        intensity=1.0,
        params={},
    )


def _churn_inert_before(churn: ChurnProcess, start_s: float, barrier_s: float) -> bool:
    """True when ``churn`` provably changes nothing before the barrier."""
    if churn.arrival_rate > 0 or churn.departure_rate > 0:
        return False
    return all(start_s + elapsed_s >= barrier_s for elapsed_s, _delta in churn.burst)


#: How a canonical form rewrites one attack declaration.
AttackForm = Callable[[AttackSpec], AttackSpec]


def _canonical_cohort(
    cohort: CohortDecl, form: AttackForm, barrier_s: Optional[float] = None
) -> CohortDecl:
    changes: Dict[str, Any] = {}
    if cohort.attack is not None:
        attack = form(cohort.attack)
        if attack != cohort.attack:
            changes["attack"] = attack
    if barrier_s is not None and cohort.churn is not None and _churn_inert_before(
        cohort.churn, cohort.start_s, barrier_s
    ):
        changes["churn"] = ChurnProcess()
    return replace(cohort, **changes) if changes else cohort


def _canonical_session(
    decl: SessionDecl, form: AttackForm, barrier_s: Optional[float] = None
) -> SessionDecl:
    """``decl`` with every attack, individual or cohort, rewritten by ``form``.

    The one walker of both canonical forms.  With a ``barrier_s`` (the
    prefix form) churn inert before the barrier is placeheld too.  ``decl``
    itself comes back when nothing changes.
    """
    changes: Dict[str, Any] = {}
    attacks = tuple(form(attack) for attack in decl.attacks)
    if attacks != decl.attacks:
        changes["attacks"] = attacks
    population = tuple(_canonical_cohort(c, form, barrier_s) for c in decl.population)
    if population != decl.population:
        changes["population"] = population
    return replace(decl, **changes) if changes else decl


def _effective_attack(attack: AttackSpec) -> AttackSpec:
    """``attack`` at the intensity its strategy acts on."""
    intensity = ADVERSARIES[attack.strategy].effective_intensity(attack.intensity)
    return attack if intensity == attack.intensity else replace(attack, intensity=intensity)


def effective_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` as its run reads it: every attack at its effective intensity.

    Two specs with one effective spec hand the simulation equal inputs
    (:meth:`AttackStrategy.effective_intensity
    <repro.adversary.strategy.AttackStrategy.effective_intensity>`), so
    they produce the same bytes; the result cache keys by this form.
    ``spec`` itself comes back when no intensity moves, which is the
    common case and costs no re-declaration.
    """
    sessions = tuple(_canonical_session(d, _effective_attack) for d in spec.sessions)
    if all(new is old for new, old in zip(sessions, spec.sessions)):
        return spec
    return replace(spec, sessions=sessions)


@dataclass(frozen=True)
class PrefixPlan:
    """A cell's shareable prefix: the canonical spec and its slot barrier.

    ``edge_classes`` are the interchangeable receiver edges of the *cell*
    (:func:`~repro.experiments.scenario.interchangeable_edges`), which the
    prefix is built with: the placeholder strategy is interchangeable where
    the cell's own (key guessing, collusion) may not be, so the canonical
    spec alone cannot tell them.
    """

    barrier_s: float
    spec: ScenarioSpec
    edge_classes: Tuple[Tuple[str, ...], ...] = ()

    def checkpoint_key(self) -> str:
        """Content address of this prefix's checkpoint blob.

        Mixes :func:`repro.code_digest`, the barrier and the edge classes
        into the hash, on top of the canonical prefix JSON — so a blob is
        only ever restored by the same code, barrier and edge layout that
        wrote it.
        """
        material = (
            f"{code_digest()}:warmstart:{self.barrier_s!r}:"
            f"{json.dumps(self.edge_classes)}:{self.spec.to_json()}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def block(self, directory: Path) -> Dict[str, Any]:
        """How workers are told about this prefix's blob under ``directory``.

        The ``warm`` key of a ``checkpoint`` or ``warm`` job's payload
        (consumed by :func:`~repro.experiments.runner.run_scenario`).
        """
        return {
            "dir": str(directory),
            "key": self.checkpoint_key(),
            "prefix": self.spec.to_dict(),
            "barrier_s": self.barrier_s,
            "edge_classes": [list(members) for members in self.edge_classes],
        }


def plan_prefix(spec: ScenarioSpec) -> Optional[PrefixPlan]:
    """The shareable prefix of ``spec``, or ``None`` when there is none.

    The barrier is the last slot boundary at or before the earliest attack
    onset (slot duration per the spec's protocol variant).  ``None`` when
    the spec is sharded (its regions run cold: ``docs/scale.md``), declares
    no attacks, when the onset leaves less than one full slot of shared
    prefix, or when the barrier would not land strictly inside the run.
    """
    if spec.shards is not None:
        return None
    onsets = [
        onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None
    ]
    if not onsets:
        return None
    duration = spec.duration_s
    slot_s = spec.slot_duration_s
    divergence = min(min(onsets), duration)
    slots = int(divergence / slot_s + 1e-9)
    barrier_s = slots * slot_s
    if slots < 1 or barrier_s >= duration:
        return None
    prefix = replace(
        spec,
        name=PREFIX_NAME,
        duration_s=barrier_s,
        record_series=False,
        sessions=tuple(
            _canonical_session(d, partial(_canonical_attack, barrier_s=barrier_s), barrier_s)
            for d in spec.sessions
        ),
    )
    return PrefixPlan(barrier_s, prefix, interchangeable_edges(spec))
