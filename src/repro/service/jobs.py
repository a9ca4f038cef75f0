"""Job admission, in-flight dedup and cell execution for the daemon.

The scheduler is the daemon's single point of truth for *what work exists*:
it admits submissions against a bounded queue, answers cells from the
shared :class:`~repro.experiments.runner.ResultCache` without touching the
pool, coalesces concurrent identical cells onto one execution (the
cross-connection extension of the batch runner's in-batch dedup), and runs
misses through :func:`~repro.experiments.runner.plan_cell` —
:func:`~repro.experiments.runner.plan_cells`, the batch runner's planner,
over a batch of one — and the runner's four steps over the
:class:`~repro.experiments.runner.CellPlan` (setup jobs, jobs, merge, cache
store), which is why service results are byte-identical to batch results.

Executions are detached :class:`asyncio.Task`s keyed by cache key: a
client that disconnects mid-stream never cancels the simulation — the
result still lands in the shared cache for the next submitter.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..experiments.runner import CellPlan, ResultCache, RunResult, plan_cell
from ..experiments.spec import ScenarioSpec
from .pool import AsyncJobPool

__all__ = [
    "CellOutcome",
    "ExperimentScheduler",
    "QueueFullError",
    "ServiceDrainingError",
]


class QueueFullError(RuntimeError):
    """A submission would push the pending-cell queue past its bound."""


class ServiceDrainingError(RuntimeError):
    """The service is draining and admits no new submissions."""


@dataclass
class CellOutcome:
    """How one cell was answered: the result and where it came from."""

    result: RunResult
    #: The cell's :meth:`ResultCache.key`, so the ``result`` event need not
    #: hash the spec again.
    key: str
    #: Served from the result store without touching the pool.
    cached: bool = False
    #: Coalesced onto another client's in-flight execution of the same spec.
    deduped: bool = False
    #: Resumed from a shared warm-start checkpoint blob.
    warm: bool = False


class ExperimentScheduler:
    """Admit, deduplicate and execute experiment cells for the service."""

    def __init__(
        self,
        pool: AsyncJobPool,
        cache: ResultCache,
        checkpoint_dir: Optional[Path],
        warm_start: bool = True,
        max_queue: int = 256,
    ) -> None:
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.pool = pool
        self.cache = cache
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.warm_start = warm_start
        self.max_queue = max_queue
        self.draining = False
        #: Cells admitted but not yet finished (the queue depth ``/status``
        #: reports; includes the cells currently executing on the pool).
        self.queued = 0
        self._inflight: Dict[str, "asyncio.Task[RunResult]"] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self.cells_executed = 0
        self.cells_failed = 0
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.warm_runs = 0

    # ------------------------------------------------------------------
    def admit(self, cells: int) -> None:
        """Reserve queue room for ``cells``, or refuse the submission.

        Raises :class:`ServiceDrainingError` once a drain has begun and
        :class:`QueueFullError` when the bound would be exceeded; the
        server maps both onto ``rejected`` events.
        """
        if self.draining:
            raise ServiceDrainingError(
                "the service is draining; it finishes in-flight jobs but "
                "accepts no new submissions"
            )
        if self.queued + cells > self.max_queue:
            raise QueueFullError(
                f"submitting {cells} cell(s) would exceed the queue bound "
                f"({self.queued} queued, {self.max_queue} max)"
            )
        self.queued += cells

    def release(self, cells: int = 1) -> None:
        """Return queue room reserved by :meth:`admit`."""
        self.queued = max(0, self.queued - cells)

    # ------------------------------------------------------------------
    async def run_cell(
        self, spec: ScenarioSpec, timeout_s: Optional[float] = None
    ) -> CellOutcome:
        """Answer one cell: cache first, then dedup, then the pool.

        The execution itself is a detached task shielded from this caller's
        cancellation — a client disconnect abandons the *stream*, never the
        simulation, so the result still publishes to the shared store.
        """
        key = self.cache.key(spec)
        cached = self.cache.load(spec)
        if cached is not None:
            self.cache_hits += 1
            return CellOutcome(cached, key, cached=True)
        self.cache_misses += 1
        task = self._inflight.get(key)
        if task is not None:
            self.dedup_hits += 1
            return CellOutcome(await asyncio.shield(task), key, deduped=True)
        plan = plan_cell(
            spec, checkpoint_dir=self.checkpoint_dir, warm_start=self.warm_start
        )
        self.checkpoint_hits += plan.checkpoint_hits
        self.checkpoint_misses += plan.checkpoint_misses
        task = asyncio.get_running_loop().create_task(
            self._execute_cell(plan, timeout_s)
        )
        self._inflight[key] = task
        task.add_done_callback(lambda done: self._finish(key, done))
        return CellOutcome(await asyncio.shield(task), key, warm=plan.warm)

    def _finish(self, key: str, task: "asyncio.Task[RunResult]") -> None:
        """Drop a finished execution from the in-flight table.

        The exception (if any) is consumed here so an execution every
        awaiter abandoned (all clients gone) never logs an unretrieved-
        exception warning; awaiters that are still around observe it
        through their shielded await.
        """
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if not task.cancelled() and task.exception() is not None:
            self.cells_failed += 1

    async def _execute_cell(
        self, plan: CellPlan, timeout_s: Optional[float]
    ) -> RunResult:
        """Run one planned cell on the pool and publish its result.

        The batch runner's four steps, per cell: setup jobs (a sharded
        cell's region blobs, side by side), jobs, merge, cache store.
        """
        await asyncio.gather(
            *(self.pool.run(job, timeout_s) for job in plan.setup_jobs)
        )
        outputs = await asyncio.gather(
            *(self.pool.run(job, timeout_s) for job in plan.jobs)
        )
        result = plan.merge(outputs)
        self.cache.store(plan.spec, result.to_json())
        self.cells_executed += 1
        if plan.warm:
            self.warm_runs += 1
        return result

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Scheduler counters for the service's ``/status`` document."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "queued": self.queued,
            "inflight": len(self._inflight),
            "max_queue": self.max_queue,
            "draining": self.draining,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "dedup_hits": self.dedup_hits,
            "cells_executed": self.cells_executed,
            "cells_failed": self.cells_failed,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_misses": self.checkpoint_misses,
            "warm_runs": self.warm_runs,
        }
