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

Every cell — batch, sharded, warm-started or served by the daemon — goes
through one pipeline, **plan → run → assemble**:

* :func:`plan_cells` turns a batch of specs into :class:`CellPlan` objects
  (``(kind, payload)`` jobs plus how to merge their outputs) and owns the
  warm-start policy; :func:`plan_cell` is the batch of one.  A ``shards=N``
  spec expands into one job per topology region
  (:mod:`repro.experiments.shard`) on the same process pool.
* :func:`run_job` executes one job in a worker; whatever the kind, the
  scenario is realised and run by
  :func:`~repro.experiments.warmstart.run_scenario`.
* :func:`collect_ingredients` measures a finished run and :func:`assemble`
  turns one such document (:func:`collect_metrics`) or one per region
  (:func:`~repro.experiments.shard.merge_region_results`) into the metric
  document, byte-deterministic across the serial and pooled paths.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
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
from .spec import PlainData, ScenarioSpec, canonical_json
from .warmstart import (
    CheckpointStore,
    PrefixPlan,
    plan_prefix,
    publish_atomically,
    require_store_key,
    run_checkpoint_json,
    run_scenario,
    run_warm_json,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellPlan",
    "ExperimentExecutionError",
    "ExperimentRunner",
    "JobExecutor",
    "ResultCache",
    "RunResult",
    "assemble",
    "attack_onsets",
    "cache_stats",
    "collect_ingredients",
    "collect_metrics",
    "describe_job",
    "execute_spec",
    "plan_cell",
    "plan_cells",
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
class RunResult(PlainData):
    """Outcome of one spec execution, as plain JSON-serialisable data.

    Serialises through the declarations' codec
    (:class:`~repro.experiments.spec.PlainData`): ``to_dict``/``to_json``
    and the type-checked ``from_dict``/``from_json``.
    """

    scenario: str
    seed: int
    protected: bool
    duration_s: float
    metrics: Dict[str, Any]

    @classmethod
    def for_spec(cls, spec: ScenarioSpec, metrics: Dict[str, Any]) -> "RunResult":
        """The result of running ``spec`` to its end, given its metrics."""
        return cls(
            scenario=spec.name,
            seed=spec.seed,
            protected=spec.protected,
            duration_s=spec.effective_duration_s,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# metric assembly: extract ingredients per run, assemble once per cell
# ----------------------------------------------------------------------
def attack_onsets(spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
    """The protection windows of ``spec``, or ``None`` without attackers.

    ``{"global": earliest onset, "sessions": {session id: onset}}``.
    Sessions whose attack never starts within the run contribute nothing: a
    clamped zero-width window would fabricate "contained in 0.0 s" results.
    Always computed from the *whole* spec — a region sub-spec may omit
    sessions, which would shift the global onset.
    """
    duration = spec.effective_duration_s
    session_onsets = {
        decl.session_id: onset
        for decl in spec.sessions
        for onset in [decl.attack_onset_s()]
        if onset is not None and onset < duration
    }
    if not session_onsets:
        return None
    return {"global": min(session_onsets.values()), "sessions": session_onsets}


def _attacker_record(
    receiver: Any,
    onset: float,
    bound_level: int,
    bound_kbps: float,
    duration: float,
    from_population: bool,
) -> Dict[str, Any]:
    """What one attacking receiver contributes to the protection block.

    Everything except the excess fields, which need the honest baseline
    only :func:`assemble` can compute.  Attackers from a population block
    (and only they) carry their ``population``.
    """
    rate_series = [
        (sample.time_s, sample.rate_kbps)
        for sample in receiver.monitor.series(end_time_s=duration)
    ]
    record: Dict[str, Any] = {
        "goodput_kbps": receiver.average_rate_kbps(onset, duration),
        "containment_s": combined_containment_s(
            time_to_containment_s(receiver.level_history, onset, bound_level, duration),
            goodput_containment_s(rate_series, onset, bound_kbps, duration),
        ),
        "bound_level": bound_level,
        "counters": receiver.adversary_stats(),
    }
    if from_population:
        record["population"] = receiver.population
    return record


def collect_ingredients(
    scenario: Scenario, spec: ScenarioSpec, onsets: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Measure a finished run into the plain-JSON ingredients of its metrics.

    Everything that needs the live scenario is read here; what needs more
    than one run (a region sees only its own receivers) is left to
    :func:`assemble`.  Per session, group 0 holds the individual receivers
    and group ``i + 1`` the objects population block ``i`` realised as;
    each group is a set of per-receiver columns: goodput over ``[warmup,
    duration]``, final level, population and, given ``onsets``, a
    ``protection`` column — an honest receiver's goodput over the global
    attack window (a term of the honest baseline), an attacker's
    :func:`_attacker_record`, or ``None`` for an attacker whose session's
    attack never starts within the run.  Whole-session extras
    (``overhead_percent``, ``series``), ``tcp_kbps`` and the summed SIGMA
    counters ride along.
    """
    config = spec.config
    duration = spec.effective_duration_s
    warmup = config.warmup_s
    sessions: List[Dict[str, Any]] = []
    for decl, session in zip(spec.sessions, scenario.sessions):
        onset = onsets["sessions"].get(decl.session_id) if onsets else None
        bound_level = session.spec.fair_level(config.fair_share_bps)
        #: Delivered-rate bound: the honest entitlement's cumulative rate,
        #: with slack for 1-second bin jitter around slot boundaries.
        bound_kbps = 1.25 * session.spec.cumulative_rate_bps(bound_level) / 1e3

        # Group boundaries come from the session's recorded ``block_slices``:
        # how many objects a block realised as depends on its placement.
        slices = session.block_slices
        individuals = slices[0][0] if slices else len(session.receivers)
        attackers = set(decl.attacker_indices())
        groups: List[Dict[str, Any]] = []
        for g_index, (start, stop) in enumerate([(0, individuals), *slices]):
            rows = session.receivers[start:stop]
            group: Dict[str, Any] = {
                "receiver_kbps": [
                    receiver.average_rate_kbps(warmup, duration) for receiver in rows
                ],
                "final_levels": [receiver.level for receiver in rows],
                "population": [receiver.population for receiver in rows],
            }
            if onsets is not None:
                block_attacks = (
                    g_index > 0 and decl.population[g_index - 1].attack is not None
                )
                column: List[Any] = []
                for index, receiver in enumerate(rows, start):
                    if not (block_attacks or index in attackers):
                        column.append(
                            receiver.average_rate_kbps(onsets["global"], duration)
                        )
                    elif onset is None:
                        column.append(None)
                    else:
                        column.append(
                            _attacker_record(
                                receiver, onset, bound_level, bound_kbps, duration,
                                from_population=g_index > 0,
                            )
                        )
                group["protection"] = column
            groups.append(group)
        entry: Dict[str, Any] = {"session_id": decl.session_id, "groups": groups}
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
        sessions.append(entry)
    document: Dict[str, Any] = {"sessions": sessions}
    if spec.tcp:
        document["tcp_kbps"] = {
            decl.name: connection.monitor.average_rate_kbps(warmup, duration)
            for decl, connection in zip(spec.tcp, scenario.tcp_connections)
        }
    agents = scenario.sigma_agents
    if agents:
        document["sigma"] = {
            "valid_submissions": sum(a.valid_submissions for a in agents),
            "invalid_submissions": sum(a.invalid_submissions for a in agents),
            "revocations": sum(a.revocations for a in agents),
            "igmp_joins_ignored": sum(a.igmp_joins_ignored for a in agents),
            "guess_alarms": sum(a.guess_alarms for a in agents),
            "edge_agents": len(agents),
        }
    return document


def assemble(
    spec: ScenarioSpec,
    onsets: Optional[Dict[str, Any]],
    documents: Sequence[Mapping[str, Any]],
    layouts: Sequence[Sequence[Tuple[int, Sequence[int]]]],
) -> Dict[str, Any]:
    """Turn :func:`collect_ingredients` documents into the metric document.

    ``documents`` are the runs that together realise ``spec`` — one for an
    ordinary run, one per region for a sharded one.  ``layouts[i]`` maps
    document ``i`` onto the spec: per session document, the spec's session
    index and the spec's block index of each of its blocks.  Per-receiver
    lists are reassembled in the receiver index order of the single-process
    run (group-major, document-major within a group) and every float
    reduction is computed in that order, so where regional physics is
    decoupled N documents assemble to the floats of one, term for term.

    Per multicast session: per-receiver goodput, its mean, final levels
    and, for sessions declaring cohorts, the population-weighted view.  The
    ``protection`` block (attack scenarios only) adds to each attacker
    record its excess over the honest baseline — the mean goodput of every
    non-attacking receiver over the earliest attack window, individuals
    weighing 1 and a cohort its member count — and, for attackers from
    population blocks, the weighted excess.  SIGMA counters are summed.
    """
    # session index -> (its session documents, group index -> group documents)
    collected: Dict[int, Tuple[List[Any], Dict[int, List[Any]]]] = {}
    for document, layout in zip(documents, layouts):
        for (s_index, block_indices), session in zip(layout, document["sessions"]):
            session_docs, groups = collected.setdefault(s_index, ([], {}))
            session_docs.append(session)
            group_indices = (0, *(b_index + 1 for b_index in block_indices))
            for g_index, group in zip(group_indices, session["groups"]):
                groups.setdefault(g_index, []).append(group)

    metrics: Dict[str, Any] = {"multicast": {}}
    honest: List[Tuple[float, int]] = []
    # session id -> receiver index -> attacker record
    attackers: Dict[str, Dict[int, Any]] = {}
    for s_index, decl in enumerate(spec.sessions):
        session_docs, groups = collected.get(s_index, ([], {}))
        receiver_kbps: List[float] = []
        final_levels: List[int] = []
        populations: List[int] = []
        protection: List[Any] = []
        for g_index in range(len(decl.population) + 1):
            for group in groups.get(g_index, ()):
                receiver_kbps.extend(group["receiver_kbps"])
                final_levels.extend(group["final_levels"])
                populations.extend(group["population"])
                protection.extend(group.get("protection", ()))
        entry: Dict[str, Any] = {
            "receiver_kbps": receiver_kbps,
            "average_kbps": sum(receiver_kbps) / len(receiver_kbps),
            "final_levels": final_levels,
        }
        if decl.population:
            # Population-weighted view, present only for sessions that
            # declare cohorts (keeps legacy metric documents byte-identical).
            total = sum(populations)
            entry["receiver_population"] = populations
            entry["population"] = total
            entry["weighted_average_kbps"] = (
                sum(rate * count for rate, count in zip(receiver_kbps, populations))
                / total
            )
        for session in session_docs:
            for extra in ("overhead_percent", "series"):
                if extra in session:
                    entry[extra] = session[extra]
        metrics["multicast"][decl.session_id] = entry
        for index, (item, population) in enumerate(zip(protection, populations)):
            if isinstance(item, dict):
                attackers.setdefault(decl.session_id, {})[index] = item
            elif item is not None:
                honest.append((item, population))

    for document in documents:
        if "tcp_kbps" in document:
            metrics["tcp_kbps"] = document["tcp_kbps"]
    sigma = [document["sigma"] for document in documents if "sigma" in document]
    if sigma:
        metrics["sigma"] = {key: sum(doc[key] for doc in sigma) for key in sigma[0]}

    if onsets is not None:
        baseline = weighted_honest_baseline_kbps(
            honest, spec.config.fair_share_bps / 1e3
        )
        sessions: Dict[str, Any] = {}
        for session_id, records in attackers.items():
            entries: Dict[str, Any] = {}
            for index, record in records.items():
                goodput = record["goodput_kbps"]
                entries[str(index)] = {
                    **record,
                    "excess_kbps": excess_goodput_kbps(goodput, baseline),
                }
                if "population" in record:
                    # Cohort attackers report the population-weighted view;
                    # individual attackers keep their historical shape.
                    entries[str(index)]["weighted_excess_kbps"] = (
                        weighted_excess_goodput_kbps(
                            goodput, baseline, record["population"]
                        )
                    )
            sessions[session_id] = {
                "onset_s": onsets["sessions"][session_id],
                "attackers": entries,
            }
        metrics["protection"] = {"honest_baseline_kbps": baseline, "sessions": sessions}
    return metrics


def collect_metrics(scenario: Scenario, spec: ScenarioSpec) -> Dict[str, Any]:
    """Measure a finished scenario into plain JSON data.

    An ordinary run is the one-document case of :func:`assemble` (which
    documents the metric schema): its own ingredients, mapped onto the spec
    one to one, with no JSON hop in between.
    """
    onsets = attack_onsets(spec)
    layout = [
        (s_index, range(len(decl.population)))
        for s_index, decl in enumerate(spec.sessions)
    ]
    document = collect_ingredients(scenario, spec, onsets)
    return assemble(spec, onsets, [document], [layout])


# ----------------------------------------------------------------------
# worker entry points
# ----------------------------------------------------------------------
def execute_spec(spec: ScenarioSpec) -> RunResult:
    """Interpret and run one spec in-process, returning its result."""
    return RunResult.for_spec(spec, collect_metrics(run_scenario(spec), spec))


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
    strings so it pickles into pool workers; the shard module imports this
    one, so it is imported lazily.
    """
    kind, payload = job
    if kind == "region":
        from .shard import run_region_json

        return run_region_json(payload)
    if kind == "checkpoint":
        return run_checkpoint_json(payload)
    if kind == "warm":
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
    if kind == "checkpoint":
        # The prefix spec carries a placeholder name; the barrier is what
        # tells one prefix checkpoint from another.
        seed = document.get("prefix", {}).get("config", {}).get("seed", "?")
        return (
            f"checkpoint job for the prefix checkpoint at the "
            f"{document.get('barrier_s', '?')}s barrier (seed {seed})"
        )
    spec = document.get("spec", {}) if kind in ("warm", "region") else document
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


def _submit(pool: ProcessPoolExecutor, worker: Callable, job: Tuple[str, str]) -> Future:
    """``pool.submit``, reporting an already-broken pool through the future.

    ``submit`` itself raises once an earlier job of the round has killed its
    worker; a job that never started counts as a crashed attempt like any other.
    """
    try:
        return pool.submit(worker, job)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


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
        # Looked up per call, so tests can substitute ``run_job`` itself.
        worker = self._worker if self._worker is not None else run_job
        if self.jobs == 1 or len(jobs) <= 1:
            return [worker(job) for job in jobs]
        outputs: List[Optional[str]] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        pending = list(range(len(jobs)))
        while pending:
            pool = self._ensure_pool()
            futures = [(index, _submit(pool, worker, jobs[index])) for index in pending]
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
        # Every slot is filled here (each job returned, or this call raised);
        # callers slice the list by job counts, so it is returned whole.
        return outputs

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
    entries are published atomically (per-call tmp + :func:`os.replace`)
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

    def _read(self, key: str) -> Optional[RunResult]:
        if self.directory is None:
            return None
        try:
            return RunResult.from_json((self.directory / f"{key}.json").read_text())
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def load(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` on a miss.

        A cache entry that cannot be parsed back into a :class:`RunResult`
        — a file torn by a crash mid-write under the old non-atomic writer,
        or truncated by a full disk — is treated as a miss (the entry is
        re-run and atomically overwritten), never as an error: a shared
        cache directory must not be able to poison later runs.
        """
        return self._read(self.key(spec))

    def load_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw result document stored under ``key``, or ``None``.

        The service's ``cache-get`` op answers from here without touching
        the worker pool; the same torn-entry-is-a-miss contract applies.
        ``key`` comes off the wire, so anything but a content address
        raises :class:`ValueError`
        (:func:`~repro.experiments.warmstart.require_store_key`) instead of
        naming a path outside the store.
        """
        result = self._read(require_store_key(key))
        return None if result is None else result.to_dict()

    def store(self, spec: ScenarioSpec, output: str) -> None:
        """Atomically publish ``output`` as the cache entry for ``spec``.

        Readers see the old state or the whole new document, nothing in
        between (:func:`~repro.experiments.warmstart.publish_atomically`).
        """
        if self.directory is not None:
            publish_atomically(
                self.directory / f"{self.key(spec)}.json", output.encode("utf-8")
            )


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
@dataclass
class CellPlan:
    """The executable shape of one grid cell: jobs in, one result out.

    ``setup_jobs`` build missing prefix-checkpoint blobs and must finish
    before ``jobs`` start; ``jobs`` are the cell's main work (one spec/warm
    job, or one region job per shard); ``verify_jobs`` (sharded cells under
    runtime verification only) re-run the regions cold alongside them.
    :meth:`merge` folds the outputs into the cell's :class:`RunResult`.
    Every executor — the batch runner, the service daemon, the benchmark's
    traced walk — runs the same four steps over these fields (setup jobs,
    jobs, :meth:`merge`, cache store), so all produce byte-identical
    results by construction.
    """

    spec: ScenarioSpec
    setup_jobs: List[Tuple[str, str]] = field(default_factory=list)
    jobs: List[Tuple[str, str]] = field(default_factory=list)
    verify_jobs: List[Tuple[str, str]] = field(default_factory=list)
    shard_plan: Optional[Any] = None
    warm: bool = False
    #: Blobs this cell found published / has ``setup_jobs`` building.  A
    #: blob shared by several cells of one batch is booked on the first.
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0

    def merge(
        self, outputs: Sequence[str], verify_outputs: Sequence[str] = ()
    ) -> RunResult:
        """Fold the main jobs' outputs into this cell's result.

        A sharded cell is the deterministic region merge, any other the
        single output parsed.  ``verify_outputs`` (the ``verify_jobs``'
        outputs) must merge to the same bytes, else :class:`RuntimeError`.
        """
        if self.shard_plan is None:
            return RunResult.from_json(outputs[0])
        from .shard import merge_region_results

        result = merge_region_results(
            self.shard_plan, [json.loads(output) for output in outputs]
        )
        if verify_outputs and self.merge(verify_outputs).to_json() != result.to_json():
            raise RuntimeError(
                f"warm-start divergence on {self.spec.name!r} "
                f"(seed {self.spec.seed}): the warm sharded "
                "result does not byte-match the cold run"
            )
        return result


def _prefix_blobs(
    spec: ScenarioSpec, prefix: PrefixPlan, directory: Path
) -> List[Dict[str, Any]]:
    """The checkpoint blobs ``spec`` resumes from (:meth:`PrefixPlan.block`).

    An unsharded cell has one blob; a sharded cell has one per region (the
    prefix spec shards into regions that align one-to-one with the real
    spec's — canonicalization never touches populations or the topology).
    """
    if spec.shards is None:
        return [prefix.block(directory)]
    from .shard import plan_shards

    return [
        PrefixPlan(prefix.barrier_s, region.spec).block(directory)
        for region in plan_shards(prefix.spec).regions
    ]


def plan_cells(
    specs: Sequence[ScenarioSpec],
    checkpoint_dir: Optional[Path] = None,
    warm_start: bool = True,
    durable: bool = True,
    verify: bool = False,
) -> List[CellPlan]:
    """Plan the jobs realising a batch of cells — the one planner.

    Owns the whole warm-start policy.  Cells whose canonical prefix specs
    are byte-equal (:meth:`PrefixPlan.checkpoint_key`) form a group, and a
    group resumes from the ``ck_*.pkl`` blobs under ``checkpoint_dir`` when
    at least two cells share the prefix, when its blobs are already
    published, or when the directory is ``durable`` (the caller's lasting
    store): the prefix must be simulated anyway, so publishing the blob
    costs one pickle and seeds every later batch, from any client, that
    sweeps the same prefix.  A lone cell over a scratch directory stays
    cold — a blob nothing will ever share is pure overhead — as does every
    cell with no directory, no ``warm_start`` or no shareable prefix.  Each
    missing blob is built by one ``checkpoint`` setup job, booked on the
    first cell that needs it; ``verify`` makes the first cell of each warm
    group re-run cold and compare bytes.  Sharded specs expand into one
    region job per shard either way.
    """
    plans = [CellPlan(spec=spec) for spec in specs]
    # checkpoint key -> (prefix plan, indices of the cells sharing it)
    groups: Dict[str, Tuple[PrefixPlan, List[int]]] = {}
    if warm_start and checkpoint_dir is not None:
        for index, spec in enumerate(specs):
            prefix = plan_prefix(spec)
            if prefix is not None:
                key = prefix.checkpoint_key()
                groups.setdefault(key, (prefix, []))[1].append(index)

    blobs_of: Dict[int, List[Dict[str, Any]]] = {}
    verified = set()
    planned_keys = set()
    for prefix, members in groups.values():
        store = CheckpointStore(Path(checkpoint_dir))
        first = plans[members[0]]
        blobs = _prefix_blobs(first.spec, prefix, store.directory)
        published = {blob["key"]: store.exists(blob["key"]) for blob in blobs}
        if len(members) < 2 and not all(published.values()) and not durable:
            continue
        blobs_of.update((index, blobs) for index in members)
        if verify:
            verified.add(members[0])
        for blob in blobs:
            # Region blobs can recur across groups; build each key once.
            if blob["key"] in planned_keys:
                continue
            planned_keys.add(blob["key"])
            if published[blob["key"]]:
                first.checkpoint_hits += 1
                continue
            first.checkpoint_misses += 1
            payload = {**blob, "membership_log": first.spec.shards is not None}
            first.setup_jobs.append(("checkpoint", canonical_json(payload)))

    for index, plan in enumerate(plans):
        spec = plan.spec
        blobs = blobs_of.get(index)
        plan.warm = blobs is not None
        if spec.shards is not None:
            from .shard import plan_shards, region_payloads

            plan.shard_plan = plan_shards(spec)
            plan.jobs = [
                ("region", payload)
                for payload in region_payloads(plan.shard_plan, blobs)
            ]
            if index in verified:
                # Sharded runtime verify: re-run the regions cold; the
                # merged documents must match byte for byte.
                plan.verify_jobs = [
                    ("region", payload) for payload in region_payloads(plan.shard_plan)
                ]
        elif blobs is not None:
            payload = {**blobs[0], "spec": spec.to_dict(), "verify": index in verified}
            plan.jobs = [("warm", canonical_json(payload))]
        else:
            plan.jobs = [("spec", spec.to_json())]
    return plans


def plan_cell(
    spec: ScenarioSpec,
    checkpoint_dir: Optional[Path] = None,
    warm_start: bool = True,
) -> CellPlan:
    """Plan one cell against a durable store: :func:`plan_cells` of one."""
    return plan_cells([spec], checkpoint_dir, warm_start)[0]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class ExperimentRunner:
    """Fan specs out over processes, with optional on-disk result caching.

    With ``warm_start`` (the default) each batch is planned with
    common-prefix warm-starts (:func:`plan_cells`): pending cells whose
    canonical prefix specs are byte-equal share one checkpoint of the
    pre-attack dynamics, built once and resumed per cell.  Warm results are
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
        #: Wall seconds spent planning (prefixes, checkpoint keys, job
        #: payloads — pure orchestration overhead, no simulation inside).
        self.plan_overhead_s = 0.0
        #: Wall seconds spent building/publishing missing prefix blobs
        #: (the setup jobs; simulation of the shared prefix).
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

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Execute every spec, preserving input order in the results.

        Cache lookups happen first; identical pending specs are deduplicated
        (one execution, one counted miss, the result fanned out to every
        occurrence).  The pending cells are planned as one batch by
        :func:`plan_cells`; all their jobs — ordinary specs, warm resumes,
        the ``N`` region jobs of a ``shards=N`` spec — share one flat job
        list over the process pool.
        """
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        occurrences: Dict[str, List[int]] = {}
        pending: List[ScenarioSpec] = []
        for index, spec in enumerate(specs):
            cached = self._cache.load(spec)
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
                continue
            group = occurrences.setdefault(spec.to_json(), [])
            if not group:
                pending.append(spec)
                self.cache_misses += 1
            group.append(index)

        if pending:
            for spec, result in zip(pending, self._execute_pending(pending)):
                for duplicate in occurrences[spec.to_json()]:
                    results[duplicate] = result
        return [result for result in results if result is not None]

    def _execute_pending(self, pending: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run the uncached cells: plan, then setup jobs, jobs, merge, store."""
        plan_started = time.perf_counter()
        plans = plan_cells(
            pending,
            checkpoint_dir=self._checkpoint_dir() if self.warm_start else None,
            durable=self.cache_dir is not None,
            verify=self.verify_warm_start,
        )
        self.plan_overhead_s += time.perf_counter() - plan_started
        for plan in plans:
            self.checkpoint_hits += plan.checkpoint_hits
            self.checkpoint_misses += plan.checkpoint_misses
            self.warm_runs += plan.warm

        with JobExecutor(jobs=self.jobs, retries=self.retries) as executor:
            checkpoint_started = time.perf_counter()
            executor.run_all([job for plan in plans for job in plan.setup_jobs])
            self.checkpoint_wall_s += time.perf_counter() - checkpoint_started
            outputs = executor.run_all(
                [job for plan in plans for job in plan.jobs + plan.verify_jobs]
            )

        results: List[RunResult] = []
        offset = 0
        for plan in plans:
            middle = offset + len(plan.jobs)
            end = middle + len(plan.verify_jobs)
            result = plan.merge(outputs[offset:middle], outputs[middle:end])
            offset = end
            self._cache.store(plan.spec, result.to_json())
            results.append(result)
        return results

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
