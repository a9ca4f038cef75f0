"""Parallel experiment runner with JSON result caching.

The runner executes :class:`~repro.experiments.spec.ScenarioSpec` instances —
optionally fanned out over a spec × seed × parameter grid — and returns
:class:`RunResult` objects whose ``metrics`` are plain JSON data.

Both execution paths go through the same serialised round-trip: a spec is
canonicalised to JSON, handed to :func:`run_spec_json` (in-process when
``jobs == 1``, in a :class:`~concurrent.futures.ProcessPoolExecutor` worker
otherwise), and the result comes back as canonical JSON.  Because the
simulator is deterministic, the serial and parallel paths produce
byte-identical result documents for the same spec and seed — the property
tests assert exactly that.

Results can be cached on disk (``cache_dir``): the cache key is the SHA-256
of the spec's canonical JSON, so a cache hit is definitionally the same
experiment.  Cache entries are written atomically (tmp sibling +
``os.replace``) and unparsable entries read as misses, so runners can share
one cache directory and an interrupted run can never poison later ones.

Specs with ``shards=N`` expand into one job per topology region (planned and
merged by :mod:`repro.experiments.shard`); region jobs ride the same process
pool as ordinary specs and the merged result is byte-deterministic across
the serial and pooled paths, like everything else.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.protection import (
    combined_containment_s,
    excess_goodput_kbps,
    goodput_containment_s,
    time_to_containment_s,
    weighted_excess_goodput_kbps,
    weighted_honest_baseline_kbps,
)
from .scenario import Scenario
from .spec import ScenarioSpec, SessionDecl

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellPlan",
    "ExperimentExecutionError",
    "ExperimentRunner",
    "JobExecutor",
    "ResultCache",
    "RunResult",
    "blob_descriptors",
    "cache_stats",
    "collect_metrics",
    "collect_protection_metrics",
    "describe_job",
    "execute_spec",
    "plan_cell",
    "prune_cache",
    "run_spec_json",
    "run_job",
]

#: Bumped whenever the metric document schema (or what a run means for a
#: given spec) changes.  Mixed into every cache key together with the package
#: version so refactors can never resurrect stale cached results.
CACHE_SCHEMA_VERSION = 2


def _cache_version_tag() -> str:
    """The ``<package version>:<schema version>:`` prefix of every cache key.

    Looked up at call time (not import time) so the regression tests can
    exercise a version change without reinstalling the package.
    """
    import repro

    return f"{repro.__version__}:{CACHE_SCHEMA_VERSION}:"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one spec execution, as plain JSON-serialisable data."""

    scenario: str
    seed: int
    protected: bool
    duration_s: float
    metrics: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of the result (inverse of :meth:`from_dict`)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "protected": self.protected,
            "duration_s": self.duration_s,
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) — stable byte-for-byte."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            scenario=payload["scenario"],
            seed=payload["seed"],
            protected=payload["protected"],
            duration_s=payload["duration_s"],
            metrics=dict(payload["metrics"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Rebuild a result from its canonical JSON form."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# metric extraction
# ----------------------------------------------------------------------
def collect_metrics(scenario: Scenario, spec: ScenarioSpec) -> Dict[str, Any]:
    """Measure a finished scenario into plain JSON data.

    Per multicast session: the per-receiver average goodput over
    ``[warmup, duration]``, its mean, and the final subscription levels.
    Per TCP connection: the average goodput.  SIGMA counters are aggregated
    over all edge agents.  With ``spec.record_series`` the per-session
    first-receiver throughput series is included as ``[time_s, kbps]`` pairs.
    """
    config = spec.config
    duration = spec.effective_duration_s
    warmup = config.warmup_s
    metrics: Dict[str, Any] = {"multicast": {}}
    for decl, session in zip(spec.sessions, scenario.sessions):
        receiver_kbps = [
            receiver.average_rate_kbps(warmup, duration) for receiver in session.receivers
        ]
        entry: Dict[str, Any] = {
            "receiver_kbps": receiver_kbps,
            "average_kbps": sum(receiver_kbps) / len(receiver_kbps),
            "final_levels": [receiver.level for receiver in session.receivers],
        }
        if decl.population:
            # Population-weighted view, present only for sessions that
            # declare cohorts (keeps legacy metric documents byte-identical).
            populations = [receiver.population for receiver in session.receivers]
            total = sum(populations)
            entry["receiver_population"] = populations
            entry["population"] = total
            entry["weighted_average_kbps"] = (
                sum(rate * count for rate, count in zip(receiver_kbps, populations))
                / total
            )
        if session.overhead is not None:
            delta_pct, sigma_pct = session.overhead.as_percentages()
            entry["overhead_percent"] = {"delta": delta_pct, "sigma": sigma_pct}
        if spec.record_series:
            entry["series"] = [
                [sample.time_s, sample.rate_kbps]
                for sample in session.receiver.monitor.smoothed_series(
                    window_bins=5, end_time_s=duration
                )
            ]
        metrics["multicast"][decl.session_id] = entry
    if spec.tcp:
        metrics["tcp_kbps"] = {
            decl.name: connection.monitor.average_rate_kbps(warmup, duration)
            for decl, connection in zip(spec.tcp, scenario.tcp_connections)
        }
    if scenario.sigma_agents:
        metrics["sigma"] = {
            "valid_submissions": sum(a.valid_submissions for a in scenario.sigma_agents),
            "invalid_submissions": sum(a.invalid_submissions for a in scenario.sigma_agents),
            "revocations": sum(a.revocations for a in scenario.sigma_agents),
            "igmp_joins_ignored": sum(a.igmp_joins_ignored for a in scenario.sigma_agents),
            "guess_alarms": sum(a.guess_alarms for a in scenario.sigma_agents),
            "edge_agents": len(scenario.sigma_agents),
        }
    protection = collect_protection_metrics(scenario, spec)
    if protection is not None:
        metrics["protection"] = protection
    return metrics


def _attacker_object_indices(decl: SessionDecl, session: Any) -> Dict[int, bool]:
    """Map attacking receiver-object indices to "came from a population block".

    Object indices align with the realised ``session.receivers``: the
    ``decl.receivers`` individuals first, then each population block.  How
    many objects a block realised as depends on its model (``count``
    individuals, ``cohorts`` per-cohort objects, one vector receiver per
    edge router), so the mapping reads the session's recorded
    ``block_slices`` instead of re-deriving the arithmetic.
    """
    attackers: Dict[int, bool] = {index: False for index in decl.attacker_indices()}
    for block_index in decl.adversarial_blocks():
        start, stop = session.block_slices[block_index]
        for object_index in range(start, stop):
            attackers[object_index] = True
    return attackers


def collect_protection_metrics(
    scenario: Scenario, spec: ScenarioSpec
) -> Optional[Dict[str, Any]]:
    """Protection summary of a finished attack scenario (None without attackers).

    Per attacker: goodput over its attack window, excess over the honest
    baseline (mean goodput of every non-attacking multicast receiver over the
    earliest attack window), time to containment derived from the level
    history against the session's fair entitlement, and the adversary's
    attack counters.  Attackers are the individually-targeted receivers plus
    every adversarial population block; cohort attackers additionally report
    their ``population`` and the population-weighted excess.
    """
    config = spec.config
    duration = spec.effective_duration_s
    # Sessions whose attack never starts within the run contribute nothing: a
    # clamped zero-width window would fabricate "contained in 0.0 s" results.
    session_onsets = {
        decl.session_id: onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None and onset < duration
    }
    if not session_onsets:
        return None
    global_onset = min(session_onsets.values())

    # Honest receivers weighted by the population each stands for:
    # individuals weigh 1, a cohort weighs its member count.  A population
    # block is honest unless it carries its own attack declaration.
    honest_rates = []
    for decl, session in zip(spec.sessions, scenario.sessions):
        attacked = _attacker_object_indices(decl, session)
        for index, receiver in enumerate(session.receivers):
            if index not in attacked:
                honest_rates.append(
                    (receiver.average_rate_kbps(global_onset, duration), receiver.population)
                )
    baseline = weighted_honest_baseline_kbps(honest_rates, config.fair_share_bps / 1e3)

    sessions: Dict[str, Any] = {}
    for decl, session in zip(spec.sessions, scenario.sessions):
        attackers = _attacker_object_indices(decl, session)
        onset = session_onsets.get(decl.session_id)
        if not attackers or onset is None:
            continue
        bound_level = session.spec.fair_level(config.fair_share_bps)
        entries: Dict[str, Any] = {}
        #: Delivered-rate bound: the honest entitlement's cumulative rate,
        #: with slack for 1-second bin jitter around slot boundaries.
        bound_kbps = 1.25 * session.spec.cumulative_rate_bps(bound_level) / 1e3
        for index in sorted(attackers):
            from_population = attackers[index]
            receiver = session.receivers[index]
            attacker_kbps = receiver.average_rate_kbps(onset, duration)
            level_containment = time_to_containment_s(
                receiver.level_history, onset, bound_level, duration
            )
            rate_series = [
                (sample.time_s, sample.rate_kbps)
                for sample in receiver.monitor.series(end_time_s=duration)
            ]
            goodput_containment = goodput_containment_s(
                rate_series, onset, bound_kbps, duration
            )
            entry: Dict[str, Any] = {
                "goodput_kbps": attacker_kbps,
                "excess_kbps": excess_goodput_kbps(attacker_kbps, baseline),
                "containment_s": combined_containment_s(
                    level_containment, goodput_containment
                ),
                "bound_level": bound_level,
            }
            if from_population:
                # Cohort attackers (and their individual reference
                # realisation) report the population-weighted view; legacy
                # individual attackers keep their historical shape.
                entry["population"] = receiver.population
                entry["weighted_excess_kbps"] = weighted_excess_goodput_kbps(
                    attacker_kbps, baseline, receiver.population
                )
            entry["counters"] = receiver.adversary_stats()
            entries[str(index)] = entry
        sessions[decl.session_id] = {"onset_s": onset, "attackers": entries}
    return {"honest_baseline_kbps": baseline, "sessions": sessions}


def execute_spec(spec: ScenarioSpec) -> RunResult:
    """Interpret and run one spec in-process, returning its result."""
    scenario = Scenario.from_spec(spec)
    duration = spec.effective_duration_s
    scenario.run(duration)
    return RunResult(
        scenario=spec.name,
        seed=spec.seed,
        protected=spec.protected,
        duration_s=duration,
        metrics=collect_metrics(scenario, spec),
    )


def run_spec_json(spec_json: str) -> str:
    """Worker entry point: canonical spec JSON in, canonical result JSON out.

    Module-level (and string-typed) so it pickles cleanly into pool workers;
    the JSON round-trip also guarantees the serial path exercises exactly the
    same serialisation as the parallel one.
    """
    return execute_spec(ScenarioSpec.from_json(spec_json)).to_json()


def run_job(job: Tuple[str, str]) -> str:
    """Dispatching worker entry point: a ``(kind, payload)`` job in, JSON out.

    ``kind`` is ``"spec"`` (an ordinary spec run through
    :func:`run_spec_json`), ``"region"`` (one region of a sharded spec,
    through :func:`repro.experiments.shard.run_region_json`),
    ``"checkpoint"`` (build one prefix checkpoint) or ``"warm"`` (restore a
    prefix checkpoint and run a cell to the end), the latter two through
    :mod:`repro.experiments.warmstart`.  Module-level and built from plain
    strings so it pickles into pool workers; the shard and warm-start
    modules are imported lazily to keep the import graph acyclic.
    """
    kind, payload = job
    if kind == "region":
        from .shard import run_region_json

        return run_region_json(payload)
    if kind == "checkpoint":
        from .warmstart import run_checkpoint_json

        return run_checkpoint_json(payload)
    if kind == "warm":
        from .warmstart import run_warm_json

        return run_warm_json(payload)
    return run_spec_json(payload)


# ----------------------------------------------------------------------
# job-level execution (shared by the batch runner and the service daemon)
# ----------------------------------------------------------------------
class ExperimentExecutionError(RuntimeError):
    """A job's worker process died and bounded retries did not recover it.

    Raised instead of the raw :class:`BrokenProcessPool` traceback that used
    to abort the whole grid: the message names the job (kind, scenario,
    seed), how many attempts were made, and the usual causes, so the failure
    is actionable rather than a lost batch.
    """


def describe_job(job: Tuple[str, str]) -> str:
    """Human-readable identity of a ``(kind, payload)`` job for error text."""
    kind, payload = job
    try:
        document = json.loads(payload)
    except (TypeError, ValueError):
        return f"{kind} job"
    spec = document
    if kind in ("warm", "region"):
        spec = document.get("spec", {})
    elif kind == "checkpoint":
        spec = document.get("prefix", {})
    name = spec.get("name", "?")
    seed = spec.get("config", {}).get("seed", "?")
    return f"{kind} job for scenario {name!r} (seed {seed})"


def _crash_message(job: Tuple[str, str], attempts: int, retries: int) -> str:
    """The actionable error text for a job whose workers kept dying."""
    return (
        f"worker process crashed while running the {describe_job(job)} and "
        f"did not recover after {attempts} attempt(s) ({retries} retr"
        f"{'y' if retries == 1 else 'ies'} allowed). A crashed worker is "
        "usually an OOM kill or a native-extension fault; rerun with jobs=1 "
        "to execute the job in-process and see the real failure."
    )


class JobExecutor:
    """Run ``(kind, payload)`` jobs, serially or over a worker-process pool.

    This is the execution substrate both :class:`ExperimentRunner` and the
    service daemon (:mod:`repro.service`) schedule onto.  With ``jobs > 1``
    jobs fan out over a :class:`ProcessPoolExecutor`; a worker that dies
    mid-job (OOM kill, native crash) no longer aborts the batch with a raw
    :class:`BrokenProcessPool` — the pool is rebuilt and the dead worker's
    jobs are retried, up to ``retries`` times each, before an actionable
    :class:`ExperimentExecutionError` is raised.  Because every job is a
    pure function of its payload (the simulator is byte-deterministic), a
    retried job returns exactly the bytes the crashed attempt would have.

    ``worker`` defaults to :func:`run_job`; tests inject crashing stand-ins.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 2,
        worker: Optional[Callable[[Tuple[str, str]], str]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.jobs = jobs
        self.retries = retries
        self._worker = worker
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools discarded after a worker crash (observability; the service
        #: surfaces this as worker health).
        self.restarts = 0

    def _resolve_worker(self) -> Callable[[Tuple[str, str]], str]:
        """The worker function — the module-level default unless injected."""
        return self._worker if self._worker is not None else run_job

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next attempt starts fresh workers."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self.restarts += 1
            pool.shutdown(wait=False, cancel_futures=True)

    def run_all(self, jobs: Sequence[Tuple[str, str]]) -> List[str]:
        """Execute every job, returning outputs in input order.

        Serial (``jobs == 1`` or a single job) runs in-process, where an
        exception is a real simulation failure and propagates unchanged.
        Pooled runs retry each job whose worker crashed on a fresh pool.
        """
        jobs = list(jobs)
        worker = self._resolve_worker()
        if self.jobs == 1 or len(jobs) <= 1:
            return [worker(job) for job in jobs]
        outputs: List[Optional[str]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        pending = list(range(len(jobs)))
        while pending:
            pool = self._ensure_pool()
            futures = [(index, pool.submit(worker, jobs[index])) for index in pending]
            failed: List[int] = []
            for index, future in futures:
                try:
                    outputs[index] = future.result()
                except BrokenProcessPool:
                    attempts[index] += 1
                    if attempts[index] > self.retries:
                        self._discard_pool()
                        raise ExperimentExecutionError(
                            _crash_message(jobs[index], attempts[index], self.retries)
                        ) from None
                    failed.append(index)
            if failed:
                self._discard_pool()
            pending = failed
        return [output for output in outputs if output is not None]

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "JobExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()


class ResultCache:
    """The on-disk, content-addressed result store.

    One directory maps ``sha256(version tag + canonical spec JSON)`` to the
    spec's canonical result document (``<key>.json``).  The store is safe to
    share between concurrent runners, the service daemon and its clients:
    entries are published atomically (pid-suffixed tmp + :func:`os.replace`)
    and a torn or corrupt entry reads as a miss, never as state.  With no
    directory every operation is a no-op/miss, so callers need no branching.
    """

    def __init__(self, directory: Optional[Path]) -> None:
        self.directory = Path(directory) if directory is not None else None

    @staticmethod
    def key(spec: ScenarioSpec) -> str:
        """SHA-256 over a version tag plus the spec's canonical JSON.

        Sound only because runs are byte-deterministic per spec (see
        ``docs/determinism.md``).  The package version and
        :data:`CACHE_SCHEMA_VERSION` are mixed into the key: a cached result
        is only reusable by the *same* code that produced it, so refactors
        that change behaviour or the metric schema can never serve stale
        documents from an old cache directory.
        """
        return hashlib.sha256(
            (_cache_version_tag() + spec.to_json()).encode("utf-8")
        ).hexdigest()

    def path(self, spec: ScenarioSpec) -> Optional[Path]:
        """The entry path for ``spec``, or ``None`` without a directory."""
        if self.directory is None:
            return None
        return self.directory / f"{self.key(spec)}.json"

    def load(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        A cache entry that cannot be parsed back into a :class:`RunResult`
        — a file torn by a crash mid-write under the old non-atomic writer,
        or truncated by a full disk — is treated as a miss (the entry is
        re-run and atomically overwritten), never as an error: a shared
        cache directory must not be able to poison later runs.
        """
        path = self.path(spec)
        if path is None or not path.exists():
            return None
        try:
            return RunResult.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def load_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw result document stored under ``key``, or ``None``.

        The service's ``cache-get`` op answers from here without touching
        the worker pool; the same torn-entry-is-a-miss contract applies.
        """
        if self.directory is None:
            return None
        try:
            payload = (self.directory / f"{key}.json").read_text()
            return RunResult.from_json(payload).to_dict()
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, spec: ScenarioSpec, output: str) -> None:
        """Atomically publish ``output`` as the cache entry for ``spec``.

        The document is written to a pid-suffixed ``.tmp`` sibling and
        :func:`os.replace`-d into place, so concurrent writers sharing one
        directory and interrupted runs can never leave a torn entry under
        the final name — readers see the old state or the whole new
        document, nothing in between.
        """
        path = self.path(spec)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(output)
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise


def blob_descriptors(spec: ScenarioSpec, plan: Any) -> List[Tuple]:
    """``(key, prefix spec dict, barrier_s, membership_log)`` per blob.

    An unsharded cell has one blob; a sharded cell has one per region
    (the prefix spec shards into regions that align one-to-one with the
    real spec's — canonicalization never touches populations or the
    topology).
    """
    if spec.shards is None:
        return [(plan.checkpoint_key(), plan.spec.to_dict(), plan.barrier_s, False)]
    from .shard import plan_shards
    from .warmstart import PrefixPlan

    return [
        (
            PrefixPlan(plan.barrier_s, region.spec).checkpoint_key(),
            region.spec.to_dict(),
            plan.barrier_s,
            True,
        )
        for region in plan_shards(plan.spec).regions
    ]


@dataclass
class CellPlan:
    """The executable shape of one grid cell: jobs in, one result out.

    ``setup_jobs`` build missing prefix-checkpoint blobs and must finish
    before ``jobs`` start; ``jobs`` are the cell's main work (one spec/warm
    job, or one region job per shard).  :meth:`merge` folds the main jobs'
    outputs into the cell's :class:`RunResult` — for a sharded cell that is
    the deterministic region merge, otherwise the single output parsed.
    Shared by the batch runner's durable-cache path and the service daemon,
    so both produce byte-identical results by construction.
    """

    spec: ScenarioSpec
    setup_jobs: List[Tuple[str, str]] = field(default_factory=list)
    jobs: List[Tuple[str, str]] = field(default_factory=list)
    shard_plan: Optional[Any] = None
    warm: bool = False
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0

    def merge(self, outputs: Sequence[str]) -> RunResult:
        """Fold the main jobs' outputs into this cell's result."""
        if self.shard_plan is None:
            return RunResult.from_json(outputs[0])
        from .shard import merge_region_results

        documents = [json.loads(output) for output in outputs]
        return merge_region_results(self.shard_plan, documents)


def plan_cell(
    spec: ScenarioSpec,
    checkpoint_dir: Optional[Path] = None,
    warm_start: bool = True,
) -> CellPlan:
    """Plan the jobs realising one cell, warm-starting when durably stored.

    Mirrors the batch runner's policy for a lone cell with a durable cache
    directory: when the spec has a plannable prefix and ``checkpoint_dir``
    is durable, the cell resumes from the shared ``ck_*.pkl`` blob store —
    publishing the blob on a miss so every later cell (from any client)
    sweeping the same prefix reuses it.  Without a directory, or for specs
    with no shareable prefix, the cell runs cold.  Sharded specs expand into
    one region job per shard either way.
    """
    from .warmstart import checkpoint_payload, plan_prefix, warm_payload

    prefix_plan = plan_prefix(spec) if warm_start and checkpoint_dir else None
    plan = CellPlan(spec=spec, warm=prefix_plan is not None)
    descriptors: List[Tuple] = []
    if prefix_plan is not None:
        from .warmstart import CheckpointStore

        store = CheckpointStore(Path(checkpoint_dir))
        descriptors = blob_descriptors(spec, prefix_plan)
        for key, prefix_dict, barrier_s, membership_log in descriptors:
            if store.exists(key):
                plan.checkpoint_hits += 1
                continue
            plan.checkpoint_misses += 1
            plan.setup_jobs.append(
                (
                    "checkpoint",
                    checkpoint_payload(
                        key, prefix_dict, barrier_s, str(checkpoint_dir),
                        membership_log=membership_log,
                    ),
                )
            )
    if spec.shards is not None:
        from .shard import plan_shards, region_payloads

        plan.shard_plan = plan_shards(spec)
        payloads = region_payloads(plan.shard_plan)
        if plan.warm:
            payloads = _attach_warm_blocks(payloads, descriptors, str(checkpoint_dir))
        plan.jobs = [("region", payload) for payload in payloads]
    elif plan.warm:
        key, prefix_dict, barrier_s, _membership_log = descriptors[0]
        plan.jobs = [
            (
                "warm",
                warm_payload(
                    spec.to_dict(), prefix_dict, barrier_s, str(checkpoint_dir), key
                ),
            )
        ]
    else:
        plan.jobs = [("spec", spec.to_json())]
    return plan


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Fan specs out over processes, with optional on-disk result caching.

    With ``warm_start`` (the default) the runner additionally plans
    common-prefix warm-starts across each batch
    (:mod:`repro.experiments.warmstart`): pending cells whose canonical
    prefix specs are byte-equal share one checkpoint of the pre-attack
    dynamics, built once and resumed per cell.  Warm results are
    byte-identical to cold runs, so they are cached like any other result.
    ``verify_warm_start`` re-runs one cell per prefix group cold and raises
    on any byte divergence — the runtime spot-check behind the CLI's
    ``--verify-warm-start``.

    Execution rides a :class:`JobExecutor`: a worker that dies mid-job is
    retried on a fresh pool up to ``retries`` times before the batch fails
    with an actionable :class:`ExperimentExecutionError` (instead of the
    historical raw :class:`BrokenProcessPool` losing the whole grid).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        warm_start: bool = True,
        verify_warm_start: bool = False,
        retries: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._cache = ResultCache(self.cache_dir)
        self.warm_start = warm_start
        self.verify_warm_start = verify_warm_start
        self.retries = retries
        self.cache_hits = 0
        self.cache_misses = 0
        #: Prefix checkpoints found already published when a batch planned
        #: its warm-starts / built because they were missing.
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        #: Cells executed from a restored prefix instead of from ``t=0``.
        self.warm_runs = 0
        #: Wall seconds spent planning prefixes and hashing checkpoint keys
        #: (pure orchestration overhead, no simulation inside).
        self.plan_overhead_s = 0.0
        #: Wall seconds spent building/publishing missing prefix blobs
        #: (phase-1 checkpoint jobs; simulation of the shared prefix).
        self.checkpoint_wall_s = 0.0
        self._scratch: Optional[tempfile.TemporaryDirectory] = None

    def _checkpoint_dir(self) -> Path:
        """Where prefix blobs live: the result cache, or a runner-lifetime
        scratch directory so batches without a ``cache_dir`` still share
        prefixes within (and across) their own grids."""
        if self.cache_dir is not None:
            return self.cache_dir
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-warmstart-")
        return Path(self._scratch.name)

    # ------------------------------------------------------------------
    @staticmethod
    def cache_key(spec: ScenarioSpec) -> str:
        """SHA-256 cache key of ``spec`` (see :meth:`ResultCache.key`)."""
        return ResultCache.key(spec)

    def _read_cached(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` (see :class:`ResultCache`)."""
        return self._cache.load(spec)

    def _write_cache(self, spec: ScenarioSpec, output: str) -> None:
        """Atomically publish ``output`` for ``spec`` (see :class:`ResultCache`)."""
        self._cache.store(spec, output)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Execute every spec, preserving input order in the results.

        Cache lookups happen first; identical pending specs are deduplicated
        (one execution, one counted miss, the result fanned out to every
        occurrence).  A spec with ``shards=N`` expands into ``N`` region
        jobs planned by :mod:`repro.experiments.shard`; region jobs and
        ordinary specs share one flat job list over the process pool, and
        each sharded spec's region documents are merged deterministically
        before caching.
        """
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        occurrences: Dict[str, List[int]] = {}
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self._read_cached(spec)
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
                continue
            group = occurrences.setdefault(spec.to_json(), [])
            if not group:
                pending.append(index)
                self.cache_misses += 1
            group.append(index)

        if pending:
            self._execute_pending(specs, pending, occurrences, results)
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    def _plan_warm_starts(
        self, specs: Sequence[ScenarioSpec], pending: Sequence[int]
    ) -> Tuple[Dict[int, Any], Dict[int, bool], Dict[int, List[Tuple]], List[Tuple[str, str]]]:
        """Group pending cells by shared prefix and plan checkpoint jobs.

        Returns ``(plans, warm_cells, blob_descriptors, phase1_jobs)``:
        per-cell :class:`~repro.experiments.warmstart.PrefixPlan` objects,
        the cells to warm-start (mapped to their runtime-verify flag), each
        warm cell's blob descriptors (one per region on sharded specs) and
        the phase-1 ``("checkpoint", payload)`` jobs for blobs not yet
        published.  A cell warms when its prefix is shared by another
        pending cell, when its blobs already exist — or, with a durable
        ``cache_dir``, always: the prefix must be simulated anyway, so
        publishing the blob costs one pickle and seeds every future
        invocation sweeping the same prefix (the CLI's one-cell-at-a-time
        usage pattern).  Without a ``cache_dir`` a lone cell stays cold —
        a scratch-directory blob nothing will ever share is pure overhead.
        """
        plans: Dict[int, Any] = {}
        warm_cells: Dict[int, bool] = {}
        descriptors: Dict[int, List[Tuple]] = {}
        phase1: List[Tuple[str, str]] = []
        if not self.warm_start:
            return plans, warm_cells, descriptors, phase1
        from .warmstart import CheckpointStore, checkpoint_payload, plan_prefix

        groups: Dict[str, List[int]] = {}
        for index in pending:
            plan = plan_prefix(specs[index])
            if plan is not None:
                plans[index] = plan
                groups.setdefault(plan.checkpoint_key(), []).append(index)
        if not groups:
            return plans, warm_cells, descriptors, phase1

        store = CheckpointStore(self._checkpoint_dir())
        planned_keys: Set[str] = set()
        for members in groups.values():
            blobs = blob_descriptors(specs[members[0]], plans[members[0]])
            published = all(store.exists(key) for key, *_ in blobs)
            if len(members) < 2 and not published and self.cache_dir is None:
                continue
            for position, index in enumerate(members):
                warm_cells[index] = self.verify_warm_start and position == 0
                descriptors[index] = blobs
            for key, prefix_dict, barrier_s, membership_log in blobs:
                if key in planned_keys:
                    continue
                planned_keys.add(key)
                if store.exists(key):
                    self.checkpoint_hits += 1
                    continue
                self.checkpoint_misses += 1
                phase1.append(
                    (
                        "checkpoint",
                        checkpoint_payload(
                            key,
                            prefix_dict,
                            barrier_s,
                            str(store.directory),
                            membership_log=membership_log,
                        ),
                    )
                )
        return plans, warm_cells, descriptors, phase1

    def _execute_pending(
        self,
        specs: Sequence[ScenarioSpec],
        pending: Sequence[int],
        occurrences: Dict[str, List[int]],
        results: List[Optional[RunResult]],
    ) -> None:
        """Run the uncached cells: plan warm-starts, fan out, merge, cache."""
        plan_started = time.perf_counter()
        plans, warm_cells, descriptors, phase1 = self._plan_warm_starts(specs, pending)
        self.plan_overhead_s += time.perf_counter() - plan_started
        checkpoint_dir = str(self._checkpoint_dir()) if warm_cells else ""

        jobs: List[Tuple[str, str]] = []
        # (spec index, shard plan or None, first job offset, job count)
        segments: List[Tuple[int, Optional[Any], int, int]] = []
        # spec index -> (shard plan, offset, count) of the cold verify jobs
        verify_segments: Dict[int, Tuple[Any, int, int]] = {}
        for index in pending:
            spec = specs[index]
            warm = index in warm_cells
            if warm:
                self.warm_runs += 1
            if spec.shards is not None:
                from .shard import plan_shards, region_payloads

                plan = plan_shards(spec)
                payloads = region_payloads(plan)
                if warm:
                    payloads = _attach_warm_blocks(
                        payloads, descriptors[index], checkpoint_dir
                    )
                segments.append((index, plan, len(jobs), len(payloads)))
                jobs.extend(("region", payload) for payload in payloads)
                if warm and warm_cells[index]:
                    # Sharded runtime verify: re-run the regions cold and
                    # compare the merged documents byte for byte.
                    cold = region_payloads(plan)
                    verify_segments[index] = (plan, len(jobs), len(cold))
                    jobs.extend(("region", payload) for payload in cold)
            elif warm:
                from .warmstart import warm_payload

                prefix_plan = plans[index]
                segments.append((index, None, len(jobs), 1))
                jobs.append(
                    (
                        "warm",
                        warm_payload(
                            spec.to_dict(),
                            prefix_plan.spec.to_dict(),
                            prefix_plan.barrier_s,
                            checkpoint_dir,
                            prefix_plan.checkpoint_key(),
                            verify=warm_cells[index],
                        ),
                    )
                )
            else:
                segments.append((index, None, len(jobs), 1))
                jobs.append(("spec", spec.to_json()))

        with JobExecutor(jobs=self.jobs, retries=self.retries) as executor:
            checkpoint_started = time.perf_counter()
            executor.run_all(phase1)
            self.checkpoint_wall_s += time.perf_counter() - checkpoint_started
            outputs = executor.run_all(jobs)

        for index, plan, offset, count in segments:
            if plan is None:
                output = outputs[offset]
                result = RunResult.from_json(output)
            else:
                from .shard import merge_region_results

                documents = [json.loads(outputs[offset + i]) for i in range(count)]
                result = merge_region_results(plan, documents)
                output = result.to_json()
                if index in verify_segments:
                    cold_plan, cold_offset, cold_count = verify_segments[index]
                    cold_documents = [
                        json.loads(outputs[cold_offset + i]) for i in range(cold_count)
                    ]
                    cold_output = merge_region_results(
                        cold_plan, cold_documents
                    ).to_json()
                    if cold_output != output:
                        raise RuntimeError(
                            f"warm-start divergence on {specs[index].name!r} "
                            f"(seed {specs[index].seed}): the warm sharded "
                            "result does not byte-match the cold run"
                        )
            for duplicate in occurrences[specs[index].to_json()]:
                results[duplicate] = result
            self._write_cache(specs[index], output)

    # ------------------------------------------------------------------
    def run_one(self, spec: ScenarioSpec) -> RunResult:
        """Execute a single spec (through the cache like any other run)."""
        return self.run([spec])[0]

    def run_seed_sweep(self, spec: ScenarioSpec, seeds: Iterable[int]) -> List[RunResult]:
        """Run the same spec under each seed."""
        return self.run([spec.with_seed(seed) for seed in seeds])

    def run_grid(
        self,
        spec: ScenarioSpec,
        seeds: Iterable[int] = (0,),
        overrides: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> List[RunResult]:
        """Run a spec × seed × override grid (overrides are spec field dicts)."""
        variants: List[ScenarioSpec] = []
        for override in overrides if overrides is not None else [{}]:
            base = replace(spec, **dict(override)) if override else spec
            for seed in seeds:
                variants.append(base.with_seed(seed))
        return self.run(variants)


def _attach_warm_blocks(
    payloads: Sequence[str], descriptors: Sequence[Tuple], directory: str
) -> List[str]:
    """Region payloads with their prefix-checkpoint ``warm`` blocks attached.

    Region payloads and blob descriptors are both in region order, so they
    zip one-to-one.
    """
    attached: List[str] = []
    for payload, (key, prefix_dict, barrier_s, _membership_log) in zip(
        payloads, descriptors
    ):
        document = json.loads(payload)
        document["warm"] = {
            "dir": directory,
            "key": key,
            "prefix": prefix_dict,
            "barrier_s": barrier_s,
        }
        attached.append(json.dumps(document, sort_keys=True, separators=(",", ":")))
    return attached


# ----------------------------------------------------------------------
# cache maintenance
# ----------------------------------------------------------------------
def cache_stats(cache_dir: Path) -> Dict[str, Any]:
    """Size and entry counts of one cache directory, by entry kind.

    ``results`` counts the runner's ``<sha256>.json`` result documents,
    ``checkpoints`` the warm-start ``ck_<sha256>.pkl`` prefix blobs.
    """
    directory = Path(cache_dir)

    def tally(paths: Iterable[Path]) -> Dict[str, int]:
        entries = 0
        total = 0
        for path in paths:
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {"entries": entries, "bytes": total}

    results = tally(directory.glob("*.json"))
    checkpoints = tally(directory.glob("ck_*.pkl"))
    return {
        "path": str(directory),
        "results": results,
        "checkpoints": checkpoints,
        "total_bytes": results["bytes"] + checkpoints["bytes"],
    }


def prune_cache(cache_dir: Path, max_bytes: int) -> Dict[str, Any]:
    """Evict cache entries, oldest first, until the store fits ``max_bytes``.

    Both entry kinds (result documents and checkpoint blobs) and any
    leftover ``.tmp`` siblings compete by modification time; eviction is
    safe at any point because every reader treats a missing or torn entry
    as a miss.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    directory = Path(cache_dir)
    entries: List[Tuple[float, str, Path, int]] = []
    for pattern in ("*.json", "ck_*.pkl", "*.tmp"):
        for path in directory.glob(pattern):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
    entries.sort()
    total = sum(size for _, _, _, size in entries)
    deleted = 0
    freed = 0
    for _mtime, _name, path, size in entries:
        if total - freed <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        deleted += 1
        freed += size
    return {
        "path": str(directory),
        "deleted": deleted,
        "freed_bytes": freed,
        "remaining_bytes": total - freed,
    }
