"""Cross-connection dedup: one simulation per distinct spec, daemon-wide.

Two clients racing the same spec must cost exactly one execution — the
second connection coalesces onto the first's in-flight task (or, if it
arrives after completion, reads the shared cache) and both receive
byte-identical results.  The in-process test pins the interleaving with a
slowed worker so the dedup path itself (not the cache) is exercised; the
subprocess test races two real clients through a real daemon and asserts
the daemon-wide invariant that only one cell was ever executed.

Within one submission the cells run on up to ``jobs`` workers at once and
are reported in seed order, and a sharded cell's distinct regions run side
by side.  Those tests pin the interleaving with cross-process gates
(:mod:`multiprocessing` barriers and events the ``fork``-started workers
inherit), never with sleeps, and assert counts and orders only.
"""

import asyncio
import concurrent.futures
import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.experiments import (
    ExperimentRunner,
    ScenarioSpec,
    SessionDecl,
    plan_cell,
)
from repro.experiments.runner import run_job

from _util import GATE_TIMEOUT_S, job_seed, wait_until, wire_json
from test_service_determinism import sharded_spec

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker slowdown relies on fork inheriting monkeypatched workers",
)


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="concurrency-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        seed=seed,
    )


def slow_worker(job):
    """Hold the job long enough for a second submission to arrive."""
    time.sleep(1.0)
    return run_job(job)


#: Cross-process gates, rebound per test *before* the pool forks workers.
BARRIER = None
LAST_SEED_DONE = None
GATE = None
STARTED = None


def paired_worker(job):
    """Run only once a second job is executing beside this one; a job
    nobody joins fails (``BrokenBarrierError``), and its cell with it."""
    BARRIER.wait(GATE_TIMEOUT_S)
    return run_job(job)


def paired_region_worker(job):
    """Pair up ``region`` jobs only; everything else runs freely."""
    return paired_worker(job) if job[0] == "region" else run_job(job)


def last_seed_first_worker(job):
    """Seed 0 may not start before seed 1 — the last one — has finished."""
    if job_seed(job) == 0:
        assert LAST_SEED_DONE.wait(GATE_TIMEOUT_S), "seed 1 never ran beside seed 0"
    output = run_job(job)
    if job_seed(job) == 1:
        LAST_SEED_DONE.set()
    return output


def logged_worker(job):
    """Log the order jobs reach a worker in; seed 0 waits for the gate."""
    STARTED.put(job_seed(job))
    if job_seed(job) == 0:
        assert GATE.wait(GATE_TIMEOUT_S), "the gate never opened"
    return run_job(job)


def results_of(events):
    return [e for e in events if e["event"] == "result"]


@fork_only
class TestOneSubmissionFillsThePool:
    @pytest.mark.parametrize("seeds", ([0, 1], [0, 1, 2, 3]))
    def test_cells_of_one_submission_run_side_by_side(
        self, seeds, service_loop, monkeypatch
    ):
        """Each job waits for a partner: only ``jobs`` workers busy at once
        with cells of *one* submission let any of them through."""
        monkeypatch.setattr("test_concurrency.BARRIER", multiprocessing.Barrier(2))
        monkeypatch.setattr("repro.experiments.runner.run_job", paired_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            conn = await loop.connect()
            events = await conn.submit(fast_spec(), seeds)
            conn.close()
            status = loop.service.status()
            await loop.stop()
            return events, status

        events, status = asyncio.run(scenario())
        assert [e["seed"] for e in results_of(events)] == seeds
        assert status["pool"]["peak_running"] == 2
        assert status["pool"]["completed"] == len(seeds)
        assert status["scheduler"]["queued"] == 0

    def test_answers_keep_seed_order_when_the_last_seed_finishes_first(
        self, service_loop, monkeypatch
    ):
        monkeypatch.setattr(
            "test_concurrency.LAST_SEED_DONE", multiprocessing.Event()
        )
        monkeypatch.setattr("repro.experiments.runner.run_job", last_seed_first_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            conn = await loop.connect()
            events = await conn.submit(fast_spec(), [0, 1])
            conn.close()
            await loop.stop()
            return events

        events = asyncio.run(scenario())
        assert [(e["event"], e.get("seed")) for e in events] == [
            ("accepted", None),
            ("result", 0),
            ("result", 1),
            ("done", None),
        ]
        assert events[-1]["completed"] == 2 and events[-1]["failed"] == 0

    def test_repeated_seed_in_one_submission_runs_once(self, service_loop):
        """Three cells outstanding at once: the repeat finds seed 0 in flight."""

        async def scenario():
            loop = await service_loop(jobs=3)
            conn = await loop.connect()
            events = await conn.submit(fast_spec(), [0, 1, 0])
            conn.close()
            status = loop.service.status()
            await loop.stop()
            return events, status

        events, status = asyncio.run(scenario())
        first, second, third = results_of(events)
        assert [r["seed"] for r in (first, second, third)] == [0, 1, 0]
        assert [r["deduped"] for r in (first, second, third)] == [False, False, True]
        assert third["result"] == first["result"] and third["key"] == first["key"]
        assert status["scheduler"]["cells_executed"] == 2
        assert status["scheduler"]["dedup_hits"] == 1
        assert status["pool"]["completed"] == 2


@fork_only
class TestSubmissionsInterleave:
    def test_a_single_cell_does_not_wait_out_a_sweep(self, service_loop, monkeypatch):
        """A sweep keeps ``jobs`` cells outstanding, not all of them: the
        other connection's cell takes the next free worker."""
        monkeypatch.setattr("test_concurrency.GATE", multiprocessing.Event())
        monkeypatch.setattr("test_concurrency.STARTED", multiprocessing.SimpleQueue())
        monkeypatch.setattr("repro.experiments.runner.run_job", logged_worker)

        async def scenario():
            loop = await service_loop(jobs=1)
            sweep, single = await loop.connect(), await loop.connect()
            for conn, seeds in ((sweep, [0, 1, 2, 3]), (single, [9])):
                await conn.send(
                    {"op": "submit", "id": "r", "spec": fast_spec().to_dict(), "seeds": seeds}
                )
                assert (await conn.recv())["event"] == "accepted"
            # Seed 0 holds the worker; seed 9 is planned and waits for it.
            await wait_until(lambda: loop.service.scheduler.stats()["inflight"] >= 2)
            GATE.set()
            for conn in (single, sweep):
                await conn.events_until("done")
                conn.close()
            await loop.stop()

        asyncio.run(scenario())
        assert [STARTED.get() for _ in range(5)] == [0, 9, 1, 2, 3]


@fork_only
class TestShardedSetup:
    def test_regions_of_a_sharded_cell_run_cold_side_by_side(
        self, service_loop, monkeypatch
    ):
        # 3 attacker rows over 2 regions: the region sub-specs differ, so
        # the cell runs two region jobs (identical regions would run once).
        spec = sharded_spec()
        (decl,) = spec.sessions
        audience, attackers = decl.population
        spec = replace(
            spec,
            sessions=(
                replace(decl, population=(audience, replace(attackers, cohorts=3))),
            ),
        )
        assert [kind for kind, _ in plan_cell(spec).jobs] == ["region", "region"]
        expected = ExperimentRunner(jobs=1).run_one(spec).to_json()
        monkeypatch.setattr("test_concurrency.BARRIER", multiprocessing.Barrier(2))
        monkeypatch.setattr("repro.experiments.runner.run_job", paired_region_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            conn = await loop.connect()
            events = await conn.submit(spec)
            conn.close()
            status = loop.service.status()
            blobs = list(loop.service.cache.directory.glob("ck_*.pkl"))
            await loop.stop()
            return events, status, blobs

        events, status, blobs = asyncio.run(scenario())
        (result,) = results_of(events)
        assert wire_json(result["result"]) == expected
        assert blobs == []
        # A region job runs only beside another one: both regions were on
        # workers before either could finish.  Neither resumed a prefix blob.
        assert status["pool"]["peak_running"] == 2
        assert result["warm"] is False
        assert status["scheduler"]["checkpoint_misses"] == 0
        assert status["scheduler"]["warm_runs"] == 0
        assert status["pool"]["completed"] == 2  # 2 regions, no checkpoint


class TestInProcessDedup:
    @fork_only
    def test_second_connection_coalesces_onto_inflight_cell(
        self, service_loop, monkeypatch
    ):
        spec = fast_spec()
        monkeypatch.setattr("repro.experiments.runner.run_job", slow_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            first = await loop.connect()
            second = await loop.connect()
            await first.send({"op": "submit", "id": "a", "spec": spec.to_dict()})
            assert (await first.recv())["event"] == "accepted"
            # The cell is now in flight (worker sleeps ~1s); race it.
            await second.send({"op": "submit", "id": "b", "spec": spec.to_dict()})
            events_a = await first.events_until("done", request_id="a")
            events_b = await second.events_until("done", request_id="b")
            first.close()
            second.close()
            stats = loop.service.scheduler.stats()
            pool_stats = loop.service.status()["pool"]
            await loop.stop()
            return events_a, events_b, stats, pool_stats

        events_a, events_b, stats, pool_stats = asyncio.run(scenario())
        result_a = next(e for e in events_a if e["event"] == "result")
        result_b = next(e for e in events_b if e["event"] == "result")
        assert result_a["result"] == result_b["result"]
        assert result_a["key"] == result_b["key"]
        # Exactly one execution; the racing submission took the dedup path.
        assert stats["cells_executed"] == 1
        assert stats["dedup_hits"] == 1
        assert pool_stats["completed"] == 1
        assert {result_a["deduped"], result_b["deduped"]} == {False, True}

    @fork_only
    def test_dedup_does_not_conflate_distinct_seeds(self, service_loop, monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.run_job", slow_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            first = await loop.connect()
            second = await loop.connect()
            await first.send(
                {"op": "submit", "id": "a", "spec": fast_spec(0).to_dict()}
            )
            await second.send(
                {"op": "submit", "id": "b", "spec": fast_spec(1).to_dict()}
            )
            events_a = await first.events_until("done", request_id="a")
            events_b = await second.events_until("done", request_id="b")
            first.close()
            second.close()
            stats = loop.service.scheduler.stats()
            await loop.stop()
            return events_a, events_b, stats

        events_a, events_b, stats = asyncio.run(scenario())
        result_a = next(e for e in events_a if e["event"] == "result")
        result_b = next(e for e in events_b if e["event"] == "result")
        assert result_a["key"] != result_b["key"]
        assert result_a["result"]["seed"] == 0
        assert result_b["result"]["seed"] == 1
        assert stats["cells_executed"] == 2
        assert stats["dedup_hits"] == 0


class TestDaemonWideDedup:
    def test_two_real_clients_one_cache_entry_one_simulation(self, daemon):
        handle = daemon(jobs=2)
        spec = fast_spec()

        def submit():
            with handle.client() as client:
                (result,) = client.run(spec, seeds=[0])
                return result.to_json()

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            outputs = list(pool.map(lambda _: submit(), range(2)))
        assert outputs[0] == outputs[1]
        with handle.client() as client:
            status = client.status()
        # However the race resolved (dedup or cache), exactly one simulation
        # ran and exactly one entry exists in the shared store.
        assert status["scheduler"]["cells_executed"] == 1
        assert (
            status["scheduler"]["dedup_hits"]
            + status["scheduler"]["cache_hits"]
        ) == 1
        assert len(list(handle.cache_dir.glob("*.json"))) == 1
