"""Async worker-pool layer: the daemon's bridge onto the runner's workers.

:class:`AsyncJobPool` schedules the same ``(kind, payload)`` jobs the batch
:class:`~repro.experiments.runner.JobExecutor` runs — through the same
module-level worker entry point (:func:`~repro.experiments.runner.run_job`)
— but from an asyncio event loop, with the service-grade failure semantics
the daemon needs:

* **bounded retry on worker crash** — a :class:`BrokenProcessPool` rebuilds
  the pool and resubmits the job (up to ``retries`` times); because jobs
  are pure functions of their payload, the retried attempt returns exactly
  the bytes the crashed one would have,
* **per-job timeout** — a job over budget gets its workers killed and the
  pool rebuilt, surfacing :class:`JobTimeoutError` instead of wedging a
  worker slot forever,
* **admission control** — at most ``jobs`` jobs execute at once (a
  semaphore, so the queue depth visible to clients is the server's, not an
  opaque pool backlog).

Concurrent jobs that were riding a pool which a crash or timeout tore down
observe :class:`BrokenProcessPool` too and take the same bounded-retry
path; the ``restarts`` counter surfaces every rebuild for ``/status``.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Tuple

from ..experiments.runner import (
    ExperimentExecutionError,
    _crash_message,
    describe_job,
    run_job,
)

__all__ = ["AsyncJobPool", "JobTimeoutError"]


class JobTimeoutError(RuntimeError):
    """A job exceeded its wall-clock budget and its worker was killed."""


class AsyncJobPool:
    """Awaitable execution of runner jobs over a self-healing process pool."""

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
        self.timeout_s = timeout_s
        self._worker = worker
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Monotonic pool incarnation: a failed job only tears down the pool
        #: it actually ran on, so concurrent failures rebuild exactly once.
        self._generation = 0
        self._semaphore = asyncio.Semaphore(jobs)
        self._running = 0
        #: High-water mark of jobs executing at once (never above ``jobs``).
        self.peak_running = 0
        self.restarts = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.retries_used = 0

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
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
            # SIGKILL, not SIGTERM: fork-started workers inherit the server's
            # asyncio SIGTERM handler, which would swallow a terminate() and
            # leave the worker running (and the abandoned pool's management
            # thread waiting on it) for the rest of the job.
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.kill()
                except OSError:  # pragma: no cover - already-dead worker
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    async def run(
        self, job: Tuple[str, str], timeout_s: Optional[float] = None
    ) -> str:
        """Execute one job, retrying crashed workers, and return its output."""
        budget = self.timeout_s if timeout_s is None else timeout_s
        attempts = 0
        async with self._semaphore:
            self._running += 1
            self.peak_running = max(self.peak_running, self._running)
            try:
                while True:
                    pool = self._ensure_pool()
                    generation = self._generation
                    worker = self._worker if self._worker is not None else run_job
                    try:
                        # submit() itself raises on a pool a concurrent job's
                        # crash broke but has not rebuilt yet: a job that never
                        # started counts as a crashed attempt like any other.
                        future = asyncio.wrap_future(pool.submit(worker, job))
                        output = await asyncio.wait_for(future, budget)
                        self.jobs_completed += 1
                        return output
                    except asyncio.TimeoutError:
                        self._rebuild(generation, kill=True)
                        self.jobs_failed += 1
                        raise JobTimeoutError(
                            f"the {describe_job(job)} exceeded its {budget:g}s "
                            "budget; its worker was killed and the pool rebuilt"
                        ) from None
                    except BrokenProcessPool:
                        attempts += 1
                        self.retries_used += 1
                        self._rebuild(generation)
                        if attempts > self.retries:
                            self.jobs_failed += 1
                            raise ExperimentExecutionError(
                                _crash_message(job, attempts, self.retries)
                            ) from None
            finally:
                self._running -= 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Worker-health snapshot for the service's ``/status`` document."""
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
        """Shut the pool down (idempotent; in-flight work is drained first
        by the server, so nothing is cancelled here in practice)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
