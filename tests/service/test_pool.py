"""Worker-crash and timeout semantics of the two job execution substrates.

Covers the PR's runner fix — a worker that dies mid-job no longer aborts a
grid with a raw :class:`BrokenProcessPool`; it is retried (bounded) on a
fresh pool and, when retries are exhausted, surfaces an actionable
:class:`~repro.experiments.ExperimentExecutionError` — plus the async
pool's per-job timeout (stuck worker killed, pool rebuilt, caller told).

Crash injection monkeypatches the module-level worker entry point; the
``fork`` start method propagates the patched binding into pool workers, so
the tests skip on platforms with ``spawn``/``forkserver`` defaults.
"""

import asyncio
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentExecutionError,
    ExperimentRunner,
    JobExecutor,
    PAPER_DEFAULTS,
    ScenarioSpec,
    SessionDecl,
)
from repro.experiments.runner import describe_job, run_job
from repro.service import AsyncJobPool, JobTimeoutError

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting monkeypatched workers",
)

#: Environment key naming the crash-once marker file (set per-test; read by
#: forked workers, which inherit the test process environment).
MARKER_ENV = "REPRO_TEST_CRASH_MARKER"


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="pool-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        config=PAPER_DEFAULTS.with_duration(6.0).with_seed(seed),
    )


def _jobs(seeds):
    return [("spec", fast_spec(seed).to_json()) for seed in seeds]


def crash_once_worker(job):
    """Die hard (uncatchable, like an OOM kill) on the first job ever seen."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(137)
    return run_job(job)


def always_crash_worker(job):
    os._exit(137)


def sleep_forever_worker(job):
    time.sleep(300.0)
    return run_job(job)


# ----------------------------------------------------------------------
# JobExecutor (the batch substrate)
# ----------------------------------------------------------------------
class TestJobExecutor:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="jobs"):
            JobExecutor(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            JobExecutor(retries=-1)

    def test_serial_equals_pooled(self):
        jobs = _jobs((0, 1))
        with JobExecutor(jobs=1) as serial, JobExecutor(jobs=2) as pooled:
            assert pooled.run_all(jobs) == serial.run_all(jobs)

    @fork_only
    def test_crashed_worker_is_retried_byte_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MARKER_ENV, str(tmp_path / "crash.marker"))
        jobs = _jobs((0, 1))
        expected = [run_job(job) for job in jobs]
        with JobExecutor(jobs=2, retries=2, worker=crash_once_worker) as executor:
            assert executor.run_all(jobs) == expected
            assert executor.restarts >= 1

    @fork_only
    def test_exhausted_retries_raise_actionable_error(self):
        with JobExecutor(jobs=2, retries=1, worker=always_crash_worker) as executor:
            with pytest.raises(ExperimentExecutionError) as excinfo:
                executor.run_all(_jobs((0, 1)))
        message = str(excinfo.value)
        assert "worker process crashed" in message
        assert "pool-fast" in message
        assert "jobs=1" in message

    def test_serial_path_propagates_real_exceptions(self):
        with JobExecutor(jobs=1) as executor:
            with pytest.raises(ValueError):
                executor.run_all([("spec", "this is not a spec document")])


# ----------------------------------------------------------------------
# ExperimentRunner regression: no more raw BrokenProcessPool grid loss
# ----------------------------------------------------------------------
class TestRunnerCrashRecovery:
    @fork_only
    def test_sweep_survives_one_worker_crash(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MARKER_ENV, str(tmp_path / "crash.marker"))
        expected = ExperimentRunner(jobs=1).run_seed_sweep(fast_spec(), (0, 1))
        # Patch only after the serial reference run: the serial path executes
        # the worker in-process, where the injected crash would kill pytest.
        monkeypatch.setattr(
            "repro.experiments.runner.run_job", crash_once_worker
        )
        results = ExperimentRunner(jobs=2).run_seed_sweep(fast_spec(), (0, 1))
        assert [r.to_json() for r in results] == [r.to_json() for r in expected]

    @fork_only
    def test_persistent_crash_raises_experiment_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.runner.run_job", always_crash_worker
        )
        runner = ExperimentRunner(jobs=2, retries=0)
        with pytest.raises(ExperimentExecutionError, match="did not recover"):
            runner.run_seed_sweep(fast_spec(), (0, 1))


# ----------------------------------------------------------------------
# AsyncJobPool (the service substrate)
# ----------------------------------------------------------------------
class TestAsyncJobPool:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="jobs"):
            AsyncJobPool(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            AsyncJobPool(retries=-1)

    def test_runs_jobs_and_counts_completions(self):
        async def scenario():
            pool = AsyncJobPool(jobs=2)
            try:
                jobs = _jobs((0, 1))
                outputs = await asyncio.gather(*(pool.run(job) for job in jobs))
                assert outputs == [run_job(job) for job in jobs]
                assert pool.stats()["completed"] == 2
                assert pool.stats()["restarts"] == 0
            finally:
                pool.close()

        asyncio.run(scenario())

    @fork_only
    def test_crashed_worker_retried_byte_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MARKER_ENV, str(tmp_path / "crash.marker"))

        async def scenario():
            pool = AsyncJobPool(jobs=2, retries=2, worker=crash_once_worker)
            try:
                job = _jobs((0,))[0]
                assert await pool.run(job) == run_job(job)
                stats = pool.stats()
                assert stats["restarts"] >= 1
                assert stats["retries_used"] >= 1
            finally:
                pool.close()

        asyncio.run(scenario())

    @fork_only
    def test_exhausted_retries_raise_actionable_error(self):
        async def scenario():
            pool = AsyncJobPool(jobs=1, retries=1, worker=always_crash_worker)
            try:
                with pytest.raises(ExperimentExecutionError, match="jobs=1"):
                    await pool.run(_jobs((0,))[0])
            finally:
                pool.close()

        asyncio.run(scenario())

    @fork_only
    def test_submit_on_a_broken_pool_counts_as_a_crashed_attempt(self):
        """A job admitted between another job's worker crash and its rebuild."""

        async def scenario():
            pool = AsyncJobPool(jobs=2, retries=2)
            try:
                job = _jobs((0,))[0]
                # The concurrent job: its worker dies and breaks the executor,
                # but nobody has reached _rebuild yet.
                crashed = pool._ensure_pool().submit(always_crash_worker, job)
                with pytest.raises(BrokenProcessPool):
                    crashed.result()
                assert await pool.run(job) == run_job(job)
                stats = pool.stats()
                assert (stats["restarts"], stats["retries_used"]) == (1, 1)
                assert (stats["completed"], stats["failed"]) == (1, 0)
            finally:
                pool.close()

        asyncio.run(scenario())

    @fork_only
    def test_submit_on_a_pool_that_stays_broken_exhausts_retries(self, monkeypatch):
        async def scenario():
            pool = AsyncJobPool(jobs=1, retries=1)
            broken = pool._ensure_pool()
            with pytest.raises(BrokenProcessPool):
                broken.submit(always_crash_worker, None).result()
            monkeypatch.setattr(pool, "_ensure_pool", lambda: broken)
            try:
                with pytest.raises(ExperimentExecutionError, match="jobs=1"):
                    await pool.run(_jobs((0,))[0])
                assert pool.stats()["failed"] == 1
                assert pool.stats()["retries_used"] == 2
            finally:
                broken.shutdown(wait=True, cancel_futures=True)

        asyncio.run(scenario())

    @fork_only
    def test_timeout_kills_worker_and_pool_recovers(self):
        async def scenario():
            pool = AsyncJobPool(jobs=1, worker=sleep_forever_worker)
            try:
                job = _jobs((0,))[0]
                with pytest.raises(JobTimeoutError, match="budget"):
                    await pool.run(job, timeout_s=0.5)
                assert pool.stats()["restarts"] == 1
                # The rebuilt pool is immediately usable with a sane worker.
                pool._worker = run_job
                assert await pool.run(job, timeout_s=120.0) == run_job(job)
            finally:
                pool.close()

        asyncio.run(scenario())


def test_describe_job_names_scenario_and_seed():
    description = describe_job(("spec", fast_spec(3).to_json()))
    assert "spec job" in description
    assert "'pool-fast'" in description
    assert "seed 3" in description


def test_describe_job_names_the_prefix_checkpoint_and_its_barrier():
    """The prefix spec's placeholder name says nothing; the barrier does."""
    from repro.experiments import plan_cell, scenario_spec

    spec = scenario_spec("attack-flapping", attack_start_s=6.0, duration_s=18.0)
    (job,) = plan_cell(spec.with_seed(4), checkpoint_dir="/nonexistent").setup_jobs
    description = describe_job(job)
    assert "prefix checkpoint" in description
    assert "6.0s barrier" in description
    assert "seed 4" in description
    assert "warm-prefix" not in description


def return_none_worker(job):
    return None


def test_run_all_keeps_one_slot_per_job():
    """Outputs align with jobs even for a worker that returns ``None``."""
    jobs = _jobs((0, 1, 2))
    with JobExecutor(jobs=2, worker=return_none_worker) as executor:
        assert executor.run_all(jobs) == [None, None, None]
