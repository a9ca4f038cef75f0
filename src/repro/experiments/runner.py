"""Parallel experiment runner with JSON result caching.

The runner executes :class:`~repro.experiments.spec.ScenarioSpec` instances —
optionally fanned out over a spec × seed × parameter grid — and returns
:class:`~repro.experiments.metrics.RunResult` objects whose ``metrics`` are
plain JSON data.

Every job is a ``(kind, payload)`` pair of strings handed to
:func:`run_job`, in-process for a serial batch or in a pool worker, and its
result comes back as canonical JSON, so the two paths produce byte-identical
documents for the same spec and seed.

Results can be cached on disk (``cache_dir``): the cache key is the SHA-256
of the code digest and the effective spec's canonical JSON (every attack at
the intensity its strategy reads), so a cache hit is definitionally the same
experiment.  The same directory holds the warm-start prefix blobs, and
:class:`ResultCache` is its one store: it names both kinds of entry,
publishes them atomically (tmp sibling + ``os.replace``) and reads a torn,
foreign or other-digest entry as a miss, so runners can share one cache
directory and an interrupted run can never poison later ones.

Every cell — batch, sharded, warm-started or served by the daemon — goes
through one pipeline, **plan → run → assemble**:

* :func:`plan_cells` turns a batch of specs into :class:`CellPlan` objects
  (``(kind, payload)`` jobs plus how to merge their outputs) and owns the
  warm-start policy; :func:`plan_cell` is the batch of one.  A ``shards=N``
  spec expands into one job per distinct topology region
  (:mod:`repro.experiments.shard`) on the same process pool.
* :func:`run_setup_jobs` and :func:`run_cell_jobs` are a planned cell's
  steps, written once: setup jobs (the missing prefix blobs), then the
  jobs, :meth:`CellPlan.merge` and the cache store under the cell's key.
  :class:`ExperimentRunner` runs every cell's setup jobs before any cell's
  jobs; the daemon (:mod:`repro.service.jobs`) runs both per cell.  Both
  hand each job to :meth:`JobExecutor.run`, the one retry loop.
* :func:`run_job` executes one job in a worker — the one worker entry
  point, and with :func:`describe_job` the one reader of a job's payload.
  :func:`run_scenario` is the body of a ``spec`` or ``warm`` job: a cold
  build, or a prefix blob restored (built on a miss) and the cell rebound.
* :mod:`repro.experiments.metrics` measures a finished run and assembles
  one document, or one per region
  (:func:`~repro.experiments.shard.merge_region_results`), into the metric
  document, byte-deterministic across the serial and pooled paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Coroutine,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import code_digest
from .metrics import RunResult, collect_ingredients, collect_metrics
from .scenario import Scenario
from .shard import ShardPlan, merge_region_results, plan_shards
from .spec import ScenarioSpec, canonical_json
from .warmstart import PrefixPlan, effective_spec, plan_prefix

if TYPE_CHECKING:  # pragma: no cover - only JobExecutor loads the pool
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "CellPlan",
    "ExperimentExecutionError",
    "ExperimentRunner",
    "JobExecutor",
    "JobTimeoutError",
    "ResultCache",
    "cache_stats",
    "describe_job",
    "execute_spec",
    "plan_cell",
    "plan_cells",
    "prune_cache",
    "run_cell_jobs",
    "run_job",
    "run_scenario",
    "run_setup_jobs",
    "timeout_budget",
]


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
def execute_spec(spec: ScenarioSpec) -> RunResult:
    """Interpret and run one spec in-process, returning its result."""
    return RunResult.for_spec(spec, collect_metrics(run_scenario(spec), spec))


def _ensure_checkpoint(block: Mapping[str, Any]) -> Tuple[Scenario, bool]:
    """(scenario at the barrier, whether an existing blob was reused).

    ``block`` names the checkpoint (:meth:`PrefixPlan.block`).  On a miss
    the canonical prefix spec is realised with the cell's edge classes, run
    up to (excluding) the barrier and published.
    """
    store = ResultCache(Path(block["dir"]))
    scenario = store.load_blob(block["key"])
    if scenario is not None:
        return scenario, True
    scenario = Scenario.from_spec(
        ScenarioSpec.from_dict(block["prefix"]), block["edge_classes"]
    )
    scenario.run_to_barrier(block["barrier_s"])
    store.store_blob(block["key"], scenario)
    return scenario, False


def run_scenario(
    spec: ScenarioSpec, warm: Optional[Mapping[str, Any]] = None
) -> Scenario:
    """Realise ``spec`` and run it to the end — the body of a cell's job.

    Cold (``warm is None``) the scenario is built from the spec at ``t=0``.
    Warm, ``warm`` names a prefix checkpoint (see :func:`_ensure_checkpoint`):
    the blob is restored, or rebuilt in place on a miss — a concurrently
    pruned or torn blob degrades to a cold prefix, never an error — and the
    cell's real declarations are rebound onto it.
    """
    if warm is None:
        scenario = Scenario.from_spec(spec)
    else:
        scenario, _reused = _ensure_checkpoint(warm)
        scenario.rebind_spec(spec)
    scenario.run(spec.duration_s)
    return scenario


def run_job(job: Tuple[str, str]) -> str:
    """The worker entry point: a ``(kind, payload)`` job in, JSON out.

    The payload is one JSON object (built by :func:`plan_cells`) whose keys
    mean the same in every kind that carries them: ``spec`` the cell's spec,
    ``warm`` the prefix checkpoint (:meth:`PrefixPlan.block`), ``verify``
    the runtime warm == cold check, ``region`` and ``onsets`` a region's
    number and the whole spec's protection windows.  By ``kind``:

    * ``"checkpoint"`` builds (or finds) the ``warm`` blob and reports
      whether a published one was reused;
    * ``"spec"`` runs the cell cold and ``"warm"`` resumes it from the
      ``warm`` blob (:func:`run_scenario`); both
      return the result document.  With ``verify`` a warm cell is also run
      cold, and the two documents must be byte-identical;
    * ``"region"`` runs one region of a sharded cell from ``t=0``, every
      edge built and the membership log on, and returns its metric
      ingredients with the region number and the recorded boundary events
      (effective membership transitions), for
      :func:`~repro.experiments.shard.merge_region_results`.

    Module-level and built from plain strings, so it pickles into pool
    workers and the serial path exercises the same serialisation.
    """
    kind, payload = job
    document = json.loads(payload)
    if kind == "checkpoint":
        _scenario, reused = _ensure_checkpoint(document["warm"])
        return json.dumps({"key": document["warm"]["key"], "reused": reused})
    spec = ScenarioSpec.from_dict(document["spec"])
    if kind == "region":
        # A region names every host in its boundary digest, so none of its
        # edges stands for another.
        scenario = Scenario.from_spec(spec, ())
        scenario.network.multicast.membership_log = []
        scenario.run(spec.duration_s)
        region = collect_ingredients(scenario, spec, document["onsets"])
        region["region"] = document["region"]
        region["boundary"] = [
            list(event) for event in scenario.network.multicast.membership_log
        ]
        return canonical_json(region)
    scenario = run_scenario(spec, document.get("warm"))
    output = RunResult.for_spec(spec, collect_metrics(scenario, spec)).to_json()
    if document.get("verify") and execute_spec(spec).to_json() != output:
        raise RuntimeError(
            f"warm-start divergence on {spec.name!r} (seed {spec.seed}): "
            "the warm result does not byte-match the cold run"
        )
    return output


# ----------------------------------------------------------------------
# job-level execution (shared by the batch runner and the service daemon)
# ----------------------------------------------------------------------
class ExperimentExecutionError(RuntimeError):
    """A job's worker process died and bounded retries did not recover it.

    The message names the job (kind, scenario, seed), how many attempts were
    made, and the usual causes.
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
        warm = document.get("warm", {})
        seed = warm.get("prefix", {}).get("seed", "?")
        return (
            f"checkpoint job for the prefix checkpoint at the "
            f"{warm.get('barrier_s', '?')}s barrier (seed {seed})"
        )
    spec = document.get("spec", {})
    name = spec.get("name", "?")
    seed = spec.get("seed", "?")
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


class JobTimeoutError(RuntimeError):
    """A job exceeded its wall-clock budget and its worker was killed."""


def timeout_budget(raw: Any) -> Optional[float]:
    """``raw`` as a per-job wall-clock budget, or :class:`ValueError`.

    ``None`` (no budget) or a positive finite number.  A zero, negative or
    NaN budget would time every job out at once — SIGKILLing the workers and
    rebuilding the pool under every other job — so it is refused up front,
    whether it is the daemon's default (``serve --timeout``) or one
    submission's ``timeout_s``.
    """
    if raw is None:
        return None
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            budget = float(raw)
        except OverflowError:
            budget = math.inf
        if 0 < budget < math.inf:
            return budget
    raise ValueError("timeout_s must be null or a positive finite number")


def _exit_with_parent(parent_pid: int) -> None:
    """End this worker process once ``parent_pid`` is no longer its parent."""
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(1)


def _init_worker() -> None:
    """Give a pool worker default signal handling, tied to its parent.

    A fork-started worker inherits the daemon's asyncio SIGTERM/SIGINT
    handlers and their wakeup socket, through which a signal sent to one
    worker would drain the whole daemon.  With the default handlers a
    signalled worker dies, and the pool's crash retry reruns its job.  A
    watcher thread ends the worker once the process that started it is gone
    (the daemon under fork, the forkserver otherwise, which exits with the
    daemon), so a SIGKILLed daemon leaves no orphan.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


class JobExecutor:
    """Run ``(kind, payload)`` jobs over one self-healing worker-process pool.

    The one retry loop, :meth:`run`, is awaited by the daemon's event loop
    and, through the synchronous :meth:`drive`, by :class:`ExperimentRunner`
    and :meth:`run_all`.  It owns the pool's failure handling:

    * **bounded retry on worker crash** — a worker that dies mid-job (OOM
      kill, native crash), or a ``submit`` on a pool another job's crash
      broke, is a crashed attempt: the pool is rebuilt (once per
      incarnation, however many jobs rode it) and the job resubmitted, up to
      ``retries`` times, before an actionable
      :class:`ExperimentExecutionError`.  Every job is a pure function of its
      payload, so a retried job returns exactly the bytes the crashed attempt
      would have;
    * **per-job timeout** — a job over its budget (``timeout_s`` by default,
      :func:`timeout_budget`) gets the workers SIGKILLed and the pool
      rebuilt, surfacing :class:`JobTimeoutError` instead of wedging a
      worker slot forever;
    * **admission control** — at most ``jobs`` jobs per event loop execute
      at once, behind a FIFO semaphore, so the queue a client sees is the
      daemon's, not an opaque pool backlog.

    ``worker`` defaults to :func:`run_job`; tests inject crashing stand-ins.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 2,
        timeout_s: Optional[float] = None,
        worker: Optional[Callable[[Tuple[str, str]], str]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.jobs = jobs
        self.retries = retries
        self.timeout_s = timeout_budget(timeout_s)
        self._worker = worker
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Monotonic pool incarnation: a failed job only tears down the pool
        #: it actually ran on, so concurrent failures rebuild exactly once.
        self._generation = 0
        #: True while :meth:`drive` runs a serial batch in this process.
        self._inline = False
        #: A semaphore serves one event loop, and each drive is a new one.
        self._loop: Any = None
        self._semaphore: Any = None
        self._running = 0
        #: High-water mark of jobs :meth:`run` executed at once (≤ ``jobs``).
        self.peak_running = 0
        #: Pools torn down after a crash or a timeout.
        self.restarts = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.retries_used = 0

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, initializer=_init_worker)
        return self._pool

    def _rebuild(self, generation: int, kill: bool = False) -> None:
        """Tear down the pool incarnation ``generation`` (at most once).

        ``kill`` additionally terminates the worker processes — required on
        a timeout, where the stuck worker would otherwise run (and hold its
        slot) forever.  A later caller whose pool already died sees a newer
        generation and skips the teardown.
        """
        if generation != self._generation:
            return
        self._generation += 1
        self.restarts += 1
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # SIGKILL: a stuck worker ends whatever it is running, and the
            # abandoned pool's management thread is not left waiting on it.
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.kill()
                except OSError:  # pragma: no cover - already-dead worker
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit(self, job: Tuple[str, str]) -> Tuple[Future, int]:
        """Start one attempt of ``job``: its future and the pool's generation.

        ``submit`` itself raises on a pool a concurrent job's crash broke but
        nobody has rebuilt yet; that is reported through the future, so a job
        that never started counts as a crashed attempt like any other.
        """
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        try:
            # Looked up per call, so tests can substitute ``run_job`` itself.
            future = pool.submit(self._worker or run_job, job)
        except BrokenProcessPool as exc:
            future = Future()
            future.set_exception(exc)
        return future, self._generation

    # ------------------------------------------------------------------
    def drive(self, work: Coroutine[Any, Any, Any], width: int) -> Any:
        """Run ``work``, a coroutine awaiting at most ``width`` jobs side by
        side, on an event loop of its own and return its value.

        A serial batch (``jobs == 1`` or ``width <= 1``) runs every job in
        this process, and a failing simulation's own exception propagates.
        A caller whose thread already runs a loop (a notebook, an async
        application) gets the batch's loop on a helper thread.
        """
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        self._inline = self.jobs == 1 or width <= 1
        try:
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                return asyncio.run(work)
            with ThreadPoolExecutor(max_workers=1) as helper:
                return helper.submit(asyncio.run, work).result()
        finally:
            self._inline = False

    def run_all(self, jobs: Sequence[Tuple[str, str]]) -> List[str]:
        """Execute every job, returning outputs in input order: a batch of
        :meth:`run` under :meth:`drive` (in-process for ``jobs == 1`` or one job)."""
        jobs = list(jobs)
        return self.drive(_gather(self.run(job) for job in jobs), len(jobs))

    async def run(
        self, job: Tuple[str, str], timeout_s: Optional[float] = None
    ) -> str:
        """Execute one job, in-process in a serial :meth:`drive` or else on the
        pool (counted in :meth:`stats`), and return its output; ``timeout_s``
        overrides the default budget."""
        if self._inline:
            return (self._worker or run_job)(job)
        import asyncio
        from concurrent.futures.process import BrokenProcessPool

        budget = self.timeout_s if timeout_s is None else timeout_s
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._loop, self._semaphore = loop, asyncio.Semaphore(self.jobs)
        async with self._semaphore:
            self._running += 1
            self.peak_running = max(self.peak_running, self._running)
            try:
                for attempt in itertools.count(1):
                    future, generation = self._submit(job)
                    waiter = asyncio.wrap_future(future)
                    try:
                        done, _ = await asyncio.wait({waiter}, timeout=budget)
                    finally:
                        # A no-op once done; otherwise (over budget, or this
                        # task cancelled) it detaches the worker's future from
                        # this loop, which may be closed when the future ends.
                        waiter.cancel()
                    if not done:
                        self._rebuild(generation, kill=True)
                        self.jobs_failed += 1
                        raise JobTimeoutError(
                            f"the {describe_job(job)} exceeded its {budget:g}s "
                            "budget; its worker was killed and the pool rebuilt"
                        )
                    try:
                        output = waiter.result()
                    except BrokenProcessPool:
                        self.retries_used += 1
                        self._rebuild(generation)
                        if attempt <= self.retries:
                            continue
                        self.jobs_failed += 1
                        raise ExperimentExecutionError(
                            _crash_message(job, attempt, self.retries)
                        ) from None
                    except Exception:
                        self.jobs_failed += 1
                        raise
                    self.jobs_completed += 1
                    return output
            finally:
                self._running -= 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Worker-health snapshot for ``/status`` (pool jobs only)."""
        return {
            "workers": self.jobs,
            "alive": self._pool is not None,
            "peak_running": self.peak_running,
            "restarts": self.restarts,
            "completed": self.jobs_completed,
            "failed": self.jobs_failed,
            "retries_used": self.retries_used,
        }

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()


#: The one spelling of a cache directory's names.  Each kind of entry is
#: ``<prefix><key><suffix>``, and :meth:`ResultCache._publish` writes it to a
#: ``<entry name>.<random>.tmp`` sibling first (:func:`tempfile.mkstemp`'s
#: alphabet).  Any other file sharing the directory (a ``run --out``
#: document, a user's notes) is not the store's.
_ENTRIES = {"results": ("", ".json"), "checkpoints": ("ck_", ".pkl")}
_KEY = re.compile(r"[0-9a-f]{64}")
_NAME = re.compile(
    "(?:"
    + "|".join(
        f"(?P<{kind}>{re.escape(prefix)}{_KEY.pattern}{re.escape(suffix)})"
        for kind, (prefix, suffix) in _ENTRIES.items()
    )
    + r")(?P<siblings>\.[a-z0-9_]+\.tmp)?"
)


class ResultCache:
    """The one store of a cache directory: result documents and prefix blobs.

    ``<key>.json`` holds the canonical result document of the spec whose
    :meth:`key` is ``key``; ``ck_<key>.pkl`` holds the
    :meth:`~repro.experiments.scenario.Scenario.checkpoint` of the prefix
    whose :meth:`~repro.experiments.warmstart.PrefixPlan.checkpoint_key` is
    ``key``.  Both keys start from :func:`repro.code_digest`.  This class
    alone names the entries, checks their keys, publishes them and reads
    them back, so the directory is safe to share between concurrent
    runners, the service daemon and its clients: an entry is published
    whole (per-call tmp sibling + :func:`os.replace`), and a torn, foreign
    or other-digest entry reads as a miss, never as state.  With no
    directory every result operation is a no-op/miss, so callers need no
    branching.
    """

    def __init__(self, directory: Optional[Path]) -> None:
        self.directory = Path(directory) if directory is not None else None

    @staticmethod
    def key(spec: ScenarioSpec) -> str:
        """SHA-256 over the code digest plus the effective spec's canonical JSON.

        The effective spec (:func:`~repro.experiments.warmstart.effective_spec`)
        is ``spec`` with every attack at the intensity its strategy acts on,
        so cells that differ only in an intensity no strategy reads — a
        ``collusion`` attack at 1 and at 4, an ``inflated-join`` at 2 and
        at 4 — share one key and one document.  Sound only because runs are
        byte-deterministic per effective spec (see ``docs/determinism.md``).
        With :func:`repro.code_digest` in the key, only the code that produced
        a result reuses it: no edit can serve stale documents from an old
        cache directory.
        """
        return hashlib.sha256(
            (code_digest() + ":" + effective_spec(spec).to_json()).encode("utf-8")
        ).hexdigest()

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Optional[Path]:
        """Where the ``kind`` entry under ``key`` lives (``None`` with no directory).

        Keys arrive in worker payloads and are joined into a path, so anything
        but a content address (64 lowercase hex characters) — an absolute
        path, ``..``, a NUL byte — raises :class:`ValueError` before it can
        name a file outside the store.
        """
        if not isinstance(key, str) or _KEY.fullmatch(key) is None:
            raise ValueError(
                f"invalid store key {key!r}: expected 64 lowercase hex characters"
            )
        if self.directory is None:
            return None
        prefix, suffix = _ENTRIES[kind]
        return self.directory / f"{prefix}{key}{suffix}"

    def _read(self, kind: str, key: str) -> Optional[bytes]:
        """The bytes of the ``kind`` entry under ``key``, or ``None``."""
        path = self._path(kind, key)
        try:
            return None if path is None else path.read_bytes()
        except OSError:
            return None

    def _publish(self, kind: str, key: str, data: bytes) -> None:
        """Write ``data`` as the ``kind`` entry under ``key``, all or nothing.

        The bytes go to a ``.tmp`` sibling of their own (so two threads of one
        process publishing one entry cannot share it) that is
        :func:`os.replace`-d into place: concurrent writers and interrupted
        runs leave the old entry or the whole new one under its name, nothing
        in between; whatever interrupts the write, the sibling is removed.
        """
        path = self._path(kind, key)
        if path is None:
            return
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

    def files(self) -> Iterator[Tuple[str, Path, os.stat_result]]:
        """``(kind, path, stat)`` of every file of the directory the store wrote.

        ``kind`` is ``"results"``, ``"checkpoints"`` or ``"siblings"`` (an
        unfinished or abandoned publish); a file removed meanwhile is skipped.
        """
        if self.directory is None:
            return
        for path in self.directory.glob("*"):
            match = _NAME.fullmatch(path.name)
            if match is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            yield match.lastgroup, path, stat

    # ------------------------------------------------------------------
    def load_key(self, key: str) -> Optional[RunResult]:
        """The result stored under ``key``, or ``None`` on a miss.

        An entry that does not parse back into a :class:`RunResult` (torn or
        truncated) is a miss, re-run and overwritten, so a shared cache
        directory cannot poison later runs.
        """
        data = self._read("results", key)
        try:
            return None if data is None else RunResult.from_json(data.decode("utf-8"))
        except (ValueError, KeyError, TypeError):
            return None

    def store_key(self, key: str, output: str) -> None:
        """Publish ``output`` as the result document under ``key``."""
        self._publish("results", key, output.encode("utf-8"))

    def load(self, spec: ScenarioSpec) -> Optional[RunResult]:
        """The cached result for ``spec`` (:meth:`load_key` of its key)."""
        return self.load_key(self.key(spec))

    def store(self, spec: ScenarioSpec, output: str) -> None:
        """Publish ``output`` for ``spec`` (:meth:`store_key` of its key)."""
        self.store_key(self.key(spec), output)

    # ------------------------------------------------------------------
    def has_blob(self, key: str) -> bool:
        """True when a prefix blob is published under ``key`` (not validated)."""
        path = self._path("checkpoints", key)
        return path is not None and path.exists()

    def load_blob(self, key: str) -> Optional[Scenario]:
        """The checkpointed scenario under ``key``, or ``None`` on a miss.

        A torn blob, one stamped by other code, or one naming a global the
        checkpoint unpickler refuses (:meth:`Scenario.restore`) is a miss.
        """
        blob = self._read("checkpoints", key)
        try:
            return None if blob is None else Scenario.restore(blob)
        except (ValueError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            return None

    def store_blob(self, key: str, scenario: Scenario) -> None:
        """Publish ``scenario``'s checkpoint as the prefix blob under ``key``."""
        self._publish("checkpoints", key, scenario.checkpoint())


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
@dataclass
class CellPlan:
    """The executable shape of one grid cell: jobs in, one result out.

    ``setup_jobs`` build missing prefix-checkpoint blobs and must finish
    before ``jobs`` start; ``jobs`` are the cell's main work (one spec/warm
    job, or one cold region job per distinct region sub-spec, with
    ``region_jobs`` naming the job that stands for each region of
    ``shard_plan``).  :meth:`merge` folds the outputs into the cell's
    :class:`RunResult`.  The batch runner and the daemon both run these
    steps through :func:`run_setup_jobs` and :func:`run_cell_jobs`.
    """

    spec: ScenarioSpec
    setup_jobs: List[Tuple[str, str]] = field(default_factory=list)
    jobs: List[Tuple[str, str]] = field(default_factory=list)
    shard_plan: Optional[ShardPlan] = None
    region_jobs: Tuple[int, ...] = ()
    warm: bool = False
    #: Blobs this cell found published / has ``setup_jobs`` building.  A
    #: blob shared by several cells of one batch is booked on the first.
    checkpoint_hits: int = 0
    checkpoint_misses: int = 0

    def merge(self, outputs: Sequence[str]) -> RunResult:
        """Fold the main jobs' outputs into this cell's result.

        A sharded cell is the deterministic region merge over one document
        per region, in region order: the output of the job standing for
        that region, renumbered to it.  Any other cell is its single output
        parsed.
        """
        if self.shard_plan is None:
            return RunResult.from_json(outputs[0])
        return merge_region_results(
            self.shard_plan,
            [
                {**json.loads(outputs[job]), "region": region.region}
                for job, region in zip(self.region_jobs, self.shard_plan.regions)
            ],
        )


def plan_cells(
    specs: Sequence[ScenarioSpec],
    checkpoint_dir: Optional[Path] = None,
    durable: bool = True,
    verify: bool = False,
) -> List[CellPlan]:
    """Plan the jobs realising a batch of cells — the one planner.

    Owns the whole warm-start policy.  Cells whose canonical prefix specs
    are byte-equal (:meth:`PrefixPlan.checkpoint_key`) form a group, and a
    group resumes from its ``ck_*.pkl`` blob under ``checkpoint_dir`` when
    at least two cells share the prefix, when its blob is already
    published, or when the directory is ``durable`` (the caller's lasting
    store): the prefix must be simulated anyway, so publishing the blob
    costs one pickle and seeds every later batch, from any client, that
    sweeps the same prefix.  A lone cell over a scratch directory stays
    cold — a blob nothing will ever share is pure overhead — as does every
    cell with no directory or no shareable prefix (sharded cells have none:
    :func:`~repro.experiments.warmstart.plan_prefix`).  Each missing blob is
    built by one ``checkpoint`` setup job, booked on the first cell that
    needs it; ``verify`` makes the first cell of each warm group re-run
    cold and compare bytes.  Sharded specs expand into one region job per
    *distinct* region sub-spec, keyed by the sub-spec's JSON without its
    ``region`` number.  Regions that differ only in that number run once,
    and :meth:`CellPlan.merge` hands the one output to each of them.  The
    key is exact because no region run reads its region number: the
    topology repeats the same links under region-numbered router names,
    every RNG stream and host name is region-local, and a region document
    names no router (:mod:`repro.experiments.shard`).  Every payload is one
    JSON document whose keys :func:`run_job` lists.
    """
    for spec in specs:
        spec.check_measures()
    plans = [CellPlan(spec=spec) for spec in specs]
    # checkpoint key -> (prefix plan, indices of the cells sharing it)
    groups: Dict[str, Tuple[PrefixPlan, List[int]]] = {}
    if checkpoint_dir is not None:
        for index, spec in enumerate(specs):
            prefix = plan_prefix(spec)
            if prefix is not None:
                key = prefix.checkpoint_key()
                groups.setdefault(key, (prefix, []))[1].append(index)

    blobs_of: Dict[int, Dict[str, Any]] = {}
    verified = set()
    store = ResultCache(Path(checkpoint_dir)) if groups else None
    for key, (prefix, members) in groups.items():
        published = store.has_blob(key)
        if len(members) < 2 and not published and not durable:
            continue
        blob = prefix.block(store.directory)
        blobs_of.update((index, blob) for index in members)
        if verify:
            verified.add(members[0])
        first = plans[members[0]]
        if published:
            first.checkpoint_hits += 1
        else:
            first.checkpoint_misses += 1
            first.setup_jobs.append(("checkpoint", canonical_json({"warm": blob})))

    for index, plan in enumerate(plans):
        spec = plan.spec
        blob = blobs_of.get(index)
        plan.warm = blob is not None
        if spec.shards is not None:
            shards = plan.shard_plan = plan_shards(spec)
            documents = []
            job_of: Dict[str, int] = {}  # sub-spec sans region number -> job
            for region in shards.regions:
                sub = region.spec.to_dict()
                params = dict(sub["topology_params"])
                del params["region"]
                key = canonical_json({**sub, "topology_params": params})
                if key not in job_of:
                    job_of[key] = len(documents)
                    documents.append(
                        ("region", {"spec": sub, "region": region.region,
                                    "onsets": shards.onsets})
                    )
                plan.region_jobs += (job_of[key],)
        elif blob is not None:
            documents = [
                ("warm", {"spec": spec.to_dict(), "warm": blob,
                          "verify": index in verified})
            ]
        else:
            documents = [("spec", {"spec": spec.to_dict()})]
        plan.jobs = [(kind, canonical_json(document)) for kind, document in documents]
    return plans


def plan_cell(spec: ScenarioSpec, checkpoint_dir: Optional[Path] = None) -> CellPlan:
    """:func:`plan_cells` of one, against a durable store (cold without one)."""
    return plan_cells([spec], checkpoint_dir)[0]


# ----------------------------------------------------------------------
# the cell steps (shared by the batch runner and the service daemon)
# ----------------------------------------------------------------------
async def _gather(work: Iterable[Awaitable[Any]]) -> List[Any]:
    """Await ``work`` side by side, outputs in input order."""
    import asyncio  # only a running batch or the daemon needs it

    return list(await asyncio.gather(*work))


async def run_setup_jobs(
    plan: CellPlan, executor: JobExecutor, timeout_s: Optional[float] = None
) -> None:
    """Build the plan's missing prefix blobs, before any cell resumes from them."""
    await _gather(executor.run(job, timeout_s) for job in plan.setup_jobs)


async def run_cell_jobs(
    plan: CellPlan,
    key: str,
    executor: JobExecutor,
    cache: ResultCache,
    timeout_s: Optional[float] = None,
) -> RunResult:
    """Run the plan's jobs side by side, merge them, store the result under
    ``key`` (the cell's :meth:`ResultCache.key`) and return it."""
    outputs = await _gather(executor.run(job, timeout_s) for job in plan.jobs)
    result = plan.merge(outputs)
    cache.store_key(key, result.to_json())
    return result


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

    A worker that dies mid-job is retried on a fresh pool up to ``retries``
    times before the batch fails with :class:`ExperimentExecutionError`.
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

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Execute every spec, preserving input order in the results.

        Each cell is hashed once (:meth:`ResultCache.key`, which covers the
        effective spec); cache lookups happen first, and pending specs with
        equal keys — identical, or differing only in an intensity no
        strategy reads — are deduplicated (one execution, one counted miss,
        the result fanned out to every occurrence).  The pending cells are
        planned as one batch by :func:`plan_cells` and run on one
        :class:`JobExecutor`, closed within this call so no worker outlives
        it: every cell's :func:`run_setup_jobs`, then every cell's
        :func:`run_cell_jobs`.  Prefix blobs live in the result cache, or,
        without a ``cache_dir``, in a scratch directory removed when the call
        returns, so cells still share prefixes within their own batch.
        """
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        #: cache key -> the pending spec / the indices it answers
        pending: Dict[str, ScenarioSpec] = {}
        occurrences: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            key = ResultCache.key(spec)
            cached = self._cache.load_key(key)
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
                continue
            if key not in pending:
                pending[key] = spec
                self.cache_misses += 1
            occurrences.setdefault(key, []).append(index)

        if pending:
            store = (
                tempfile.TemporaryDirectory(prefix="repro-warmstart-")
                if self.warm_start and self.cache_dir is None
                else contextlib.nullcontext(self.cache_dir)
            )
            with store as checkpoint_dir:
                plans = plan_cells(
                    list(pending.values()),
                    checkpoint_dir=Path(checkpoint_dir) if self.warm_start else None,
                    durable=self.cache_dir is not None,
                    verify=self.verify_warm_start,
                )
                for plan in plans:
                    self.checkpoint_hits += plan.checkpoint_hits
                    self.checkpoint_misses += plan.checkpoint_misses
                    self.warm_runs += plan.warm

                async def batch(executor: JobExecutor) -> List[RunResult]:
                    # A group's blob is booked on one of its cells, and all resume from it.
                    await _gather(run_setup_jobs(plan, executor) for plan in plans)
                    return await _gather(
                        run_cell_jobs(plan, key, executor, self._cache)
                        for key, plan in zip(pending, plans)
                    )

                width = max(
                    sum(len(p.setup_jobs) for p in plans), sum(len(p.jobs) for p in plans)
                )
                with JobExecutor(jobs=self.jobs, retries=self.retries) as executor:
                    executed = executor.drive(batch(executor), width)
            for key, result in zip(pending, executed):
                for duplicate in occurrences[key]:
                    results[duplicate] = result
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    def run_one(self, spec: ScenarioSpec) -> RunResult:
        """Execute a single spec (through the cache like any other run)."""
        return self.run([spec])[0]

    def run_seed_sweep(self, spec: ScenarioSpec, seeds: Iterable[int]) -> List[RunResult]:
        """Run the same spec under each seed."""
        return self.run([spec.with_seed(seed) for seed in seeds])


# ----------------------------------------------------------------------
# cache maintenance
# ----------------------------------------------------------------------
def cache_stats(cache_dir: Path) -> Dict[str, Any]:
    """Size and entry counts of one cache directory, by entry kind.

    ``results`` counts the runner's ``<sha256>.json`` result documents,
    ``checkpoints`` the warm-start ``ck_<sha256>.pkl`` prefix blobs
    (:meth:`ResultCache.files`).
    """
    directory = Path(cache_dir)
    tally = {kind: {"entries": 0, "bytes": 0} for kind in _ENTRIES}
    for kind, _path, stat in ResultCache(directory).files():
        if kind in tally:
            tally[kind]["entries"] += 1
            tally[kind]["bytes"] += stat.st_size
    return {
        "path": str(directory),
        "results": tally["results"],
        "checkpoints": tally["checkpoints"],
        "total_bytes": tally["results"]["bytes"] + tally["checkpoints"]["bytes"],
    }


def prune_cache(cache_dir: Path, max_bytes: int) -> Dict[str, Any]:
    """Evict cache entries, oldest first, until the store fits ``max_bytes``.

    Every file the store wrote (:meth:`ResultCache.files`: result documents,
    checkpoint blobs and leftover ``.tmp`` siblings of them) competes by
    modification time; no other file is touched.  Eviction is safe at any
    point because every reader treats a missing or torn entry as a miss.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    directory = Path(cache_dir)
    entries = sorted(
        (stat.st_mtime, path.name, path, stat.st_size)
        for _kind, path, stat in ResultCache(directory).files()
    )
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
