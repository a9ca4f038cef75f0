"""Common-prefix planning and checkpoint storage for warm-started grids.

Every paper sweep re-simulates an identical warm-up prefix in each grid
cell: the honest audience runs unperturbed from ``t=0`` until the cell's
attack schedule starts.  This module amortises that prefix across cells.

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
* :class:`CheckpointStore` — content-addressed pickle blobs next to the
  runner's result cache (``ck_<sha256>.pkl``), published atomically via a
  per-call tmp sibling + :func:`os.replace`; torn, corrupt or
  version-mismatched blobs read as misses, never as state.
* :func:`run_scenario` — the **one worker body** behind every job kind:
  obtain a scenario (cold :meth:`Scenario.from_spec`, or a restored prefix
  with the cell's real declarations rebound by
  :meth:`Scenario.rebind_spec`), with the boundary log on or off, and run
  it to the end.  A cold run is the warm run with no prefix.
* :func:`run_checkpoint_json` / :func:`run_warm_json` — module-level worker
  entry points (string-typed, pool-picklable) mirroring
  :func:`~repro.experiments.runner.run_spec_json`: the first builds and
  publishes a prefix checkpoint, the second resumes one cell from it.  A
  warm run is byte-identical to a cold run — the golden warm-start suite
  asserts it for every golden scenario and ``verify=True`` re-checks it at
  runtime.

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
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..adversary.spec import AttackSpec
from ..multicast_cc.churn import ChurnProcess
from ..multicast_cc.population import active_backend
from .scenario import CHECKPOINT_VERSION, Scenario
from .spec import CohortDecl, ScenarioSpec, SessionDecl

__all__ = [
    "PrefixPlan",
    "plan_prefix",
    "CheckpointStore",
    "publish_atomically",
    "require_store_key",
    "run_checkpoint_json",
    "run_scenario",
    "run_warm_json",
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


def _canonical_cohort(cohort: CohortDecl, barrier_s: float) -> CohortDecl:
    changes: Dict[str, Any] = {}
    if cohort.attack is not None:
        changes["attack"] = _canonical_attack(cohort.attack, barrier_s)
    if cohort.churn is not None and _churn_inert_before(
        cohort.churn, cohort.start_s, barrier_s
    ):
        changes["churn"] = ChurnProcess()
    return replace(cohort, **changes) if changes else cohort


def _canonical_session(decl: SessionDecl, barrier_s: float) -> SessionDecl:
    return replace(
        decl,
        attacks=tuple(_canonical_attack(a, barrier_s) for a in decl.attacks),
        attack_start_s=barrier_s if decl.misbehaving else 0.0,
        population=tuple(_canonical_cohort(c, barrier_s) for c in decl.population),
    )


@dataclass(frozen=True)
class PrefixPlan:
    """A cell's shareable prefix: the canonical spec and its slot barrier."""

    barrier_s: float
    spec: ScenarioSpec

    def checkpoint_key(self) -> str:
        """Content address of this prefix's checkpoint blob.

        Mixes the runner cache's version tag (package + schema versions),
        the checkpoint layout version, the active population backend (the
        pickled column types differ across backends) and the barrier into
        the hash, on top of the canonical prefix JSON — so a blob is only
        ever restored by the same code, backend and barrier that wrote it.
        """
        from .runner import _cache_version_tag

        material = (
            f"{_cache_version_tag()}warmstart:{CHECKPOINT_VERSION}:"
            f"{active_backend()}:{self.barrier_s!r}:{self.spec.to_json()}"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def block(self, directory: Path) -> Dict[str, Any]:
        """How workers are told about this prefix's blob under ``directory``.

        The fields a ``checkpoint`` payload, a ``warm`` payload and a region
        payload's ``warm`` block share (consumed by :func:`run_scenario`).
        """
        return {
            "dir": str(directory),
            "key": self.checkpoint_key(),
            "prefix": self.spec.to_dict(),
            "barrier_s": self.barrier_s,
        }


def plan_prefix(spec: ScenarioSpec) -> Optional[PrefixPlan]:
    """The shareable prefix of ``spec``, or ``None`` when there is none.

    The barrier is the last slot boundary at or before the earliest attack
    onset (slot duration per the spec's protocol variant).  ``None`` when
    the spec declares no attacks, when the onset leaves less than one full
    slot of shared prefix, or when the barrier would not land strictly
    inside the run.
    """
    onsets = [
        onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None
    ]
    if not onsets:
        return None
    duration = spec.effective_duration_s
    config = spec.config
    slot_s = config.flid_ds_slot_s if spec.protected else config.flid_dl_slot_s
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
        sessions=tuple(_canonical_session(d, barrier_s) for d in spec.sessions),
    )
    return PrefixPlan(barrier_s=barrier_s, spec=prefix)


# ----------------------------------------------------------------------
# checkpoint storage
# ----------------------------------------------------------------------
_STORE_KEY = re.compile(r"[0-9a-f]{64}")


def require_store_key(key: str) -> str:
    """``key`` itself when it is a content address, else :class:`ValueError`.

    Every result-cache and blob-store key is a SHA-256 hex digest, and keys
    are joined into a path.  They also arrive from outside the program (the
    service's ``cache-get``/``blob-stat`` ops, worker payloads), so anything
    but 64 lowercase hex characters — an absolute path, ``..``, a NUL byte
    — is refused before it can name a file outside the store.
    """
    if not isinstance(key, str) or _STORE_KEY.fullmatch(key) is None:
        raise ValueError(
            f"invalid store key {key!r}: expected 64 lowercase hex characters"
        )
    return key


def publish_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` under ``path`` so readers never see a torn file.

    The bytes go to a ``.tmp`` sibling of their own (:func:`tempfile.mkstemp`,
    so two threads of one process publishing the same path cannot share it)
    that is :func:`os.replace`-d into place: concurrent writers sharing one
    directory and interrupted runs leave the old state or the whole new
    file under the final name, nothing in between; whatever interrupts the
    write, the sibling is removed.  The one publish step of the result
    cache and the checkpoint store.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CheckpointStore:
    """Content-addressed prefix checkpoints in one directory.

    Blob files are named ``ck_<key>.pkl`` so they live alongside the
    runner's ``<key>.json`` result entries without colliding.  Publication
    is atomic (per-call tmp + :func:`os.replace`) and every read
    validates the checkpoint version — a torn or stale blob is a miss.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def path(self, key: str) -> Path:
        """The blob path for ``key`` (:func:`require_store_key` applies)."""
        return self.directory / f"ck_{require_store_key(key)}.pkl"

    def exists(self, key: str) -> bool:
        """True when a blob is published under ``key`` (not validated)."""
        return self.path(key).exists()

    def load(self, key: str) -> Optional[Scenario]:
        """Restore the checkpointed scenario for ``key``, or ``None``."""
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return Scenario.restore(blob)
        except (ValueError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            return None

    def save(self, key: str, scenario: Scenario) -> None:
        """Atomically publish ``scenario``'s checkpoint under ``key``."""
        publish_atomically(self.path(key), scenario.checkpoint())


def _build_prefix(
    prefix: ScenarioSpec, barrier_s: float, membership_log: bool
) -> Scenario:
    """Realise a canonical prefix spec and run it up to (excluding) the barrier."""
    scenario = Scenario.from_spec(prefix)
    if membership_log:
        # Region runs record boundary events from t=0; the log must be
        # attached before the prefix runs so it survives inside the blob.
        scenario.network.multicast.membership_log = []
    scenario.run_to_barrier(barrier_s)
    return scenario


def _ensure_checkpoint(block: Mapping[str, Any], membership_log: bool) -> tuple:
    """(scenario at the barrier, whether an existing blob was reused).

    ``block`` names the checkpoint (:meth:`PrefixPlan.block`).
    """
    store = CheckpointStore(Path(block["dir"]))
    scenario = store.load(block["key"])
    if (
        scenario is not None
        and membership_log
        and scenario.network.multicast.membership_log is None
    ):
        # A blob written without the boundary log cannot serve a region
        # run — events before the barrier would be lost from the merge.
        scenario = None
    if scenario is not None:
        return scenario, True
    scenario = _build_prefix(
        ScenarioSpec.from_dict(block["prefix"]), block["barrier_s"], membership_log
    )
    store.save(block["key"], scenario)
    return scenario, False


def run_scenario(
    spec: ScenarioSpec,
    warm: Optional[Mapping[str, Any]] = None,
    membership_log: bool = False,
) -> Scenario:
    """Realise ``spec`` and run it to the end — the body of every job kind.

    Cold (``warm is None``) the scenario is built from the spec at ``t=0``.
    Warm, ``warm`` names a prefix checkpoint (see :func:`_ensure_checkpoint`):
    the blob is restored, or rebuilt in place on a miss — a concurrently
    pruned or torn blob degrades to a cold prefix, never an error — and the
    cell's real declarations are rebound onto it.  ``membership_log``
    records the effective membership transitions from ``t=0`` (region runs).
    """
    if warm is None:
        scenario = Scenario.from_spec(spec)
        if membership_log:
            scenario.network.multicast.membership_log = []
    else:
        scenario, _reused = _ensure_checkpoint(warm, membership_log)
        scenario.rebind_spec(spec)
    scenario.run(spec.effective_duration_s)
    return scenario


# ----------------------------------------------------------------------
# worker entry points
# ----------------------------------------------------------------------
def run_checkpoint_json(payload_json: str) -> str:
    """Worker entry point: build (or find) one prefix checkpoint.

    Payload: ``{"prefix": spec dict, "barrier_s": float, "dir": str,
    "key": str, "membership_log": bool}``.  Returns a small JSON document
    reporting whether an already-published blob was reused.
    """
    payload = json.loads(payload_json)
    _scenario, reused = _ensure_checkpoint(
        payload, payload.get("membership_log", False)
    )
    return json.dumps({"key": payload["key"], "reused": reused})


def run_warm_json(payload_json: str) -> str:
    """Worker entry point: warm-start one grid cell from its prefix.

    Payload: ``{"spec": real spec dict, "prefix": canonical spec dict,
    "barrier_s": float, "dir": str, "key": str, "verify": bool}``
    (:func:`run_scenario` resumes the cell from it).  With ``verify`` the
    cell is also run cold and the result documents must be byte-identical
    — the runtime spot-check behind ``--verify-warm-start``.
    """
    from .runner import RunResult, collect_metrics, execute_spec

    payload = json.loads(payload_json)
    spec = ScenarioSpec.from_dict(payload["spec"])
    scenario = run_scenario(spec, warm=payload)
    output = RunResult.for_spec(spec, collect_metrics(scenario, spec)).to_json()
    if payload.get("verify") and execute_spec(spec).to_json() != output:
        raise RuntimeError(
            f"warm-start divergence on {spec.name!r} (seed {spec.seed}): "
            "the warm result does not byte-match the cold run"
        )
    return output
