"""Fault injection: crashes, disconnects, drains and torn cache entries.

Each failure mode the service must absorb, proven deterministically:

* a worker killed mid-job is retried on a rebuilt pool and the streamed
  result is byte-identical to the no-fault run,
* a client that disconnects mid-stream abandons only its stream — the
  in-flight simulation completes and lands in the shared cache,
* ``SIGTERM`` drains: in-flight submissions finish and stream, new ones
  are refused with a ``draining`` notice, and the daemon exits 0,
* a torn/corrupt cache entry reads as a miss: the cell re-runs cold and
  the entry is atomically healed,
* a job over its wall-clock budget surfaces an in-band error and the
  pool recovers for the next submission — and, within one submission, for
  the sibling cells that were riding the pool the timeout tore down,
* a client that leaves after the first of four answers leaves all four
  cells to publish; each holds its queue room until its work is done and
  gives it back exactly once,
* a ``shutdown`` sent over a connection that stays open exits 0 with
  nothing on stderr.

Crash/slow workers are injected by monkeypatching the pool's worker entry
point (``repro.experiments.runner.run_job``); ``fork``-started pool workers
inherit the patched binding.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    scenario_spec,
)
from repro.experiments.runner import run_job
from repro.service import ServiceError

from _util import GATE_TIMEOUT_S, job_seed, wait_until, wire_json

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault injection relies on fork inheriting monkeypatched workers",
)

MARKER_ENV = "REPRO_TEST_FAULT_MARKER"


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="faults-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        seed=seed,
    )


def crash_once_worker(job):
    """Die hard (uncatchable, like an OOM kill) on the first job ever seen."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(137)
    return run_job(job)


def slow_worker(job):
    """Hold the job long enough for the test to act mid-flight."""
    time.sleep(1.5)
    return run_job(job)


def sleep_forever_worker(job):
    time.sleep(300.0)
    return run_job(job)


def one_seed_hangs_worker(job):
    """Seed 0 never returns; seed 2's first attempt lives until the pool
    it rides is killed under it, and its retry runs normally."""
    seed = job_seed(job)
    marker = Path(os.environ[MARKER_ENV])
    first_attempt = seed == 2 and not marker.exists()
    if first_attempt:
        marker.write_text("held")
    if seed == 0 or first_attempt:
        time.sleep(300.0)
    return run_job(job)


#: Opened by the test once the server has noticed its client leave.
GATE = None
HELD_SEEDS = (1, 2, 3)


def held_seeds_worker(job):
    if job_seed(job) in HELD_SEEDS:
        assert GATE.wait(GATE_TIMEOUT_S), "the gate never opened"
    return run_job(job)


async def _submit_and_collect(conn, spec, seeds=None, timeout_s=None):
    return await conn.submit(spec, seeds, timeout_s, request_id="f1")


class TestWorkerCrash:
    @fork_only
    def test_killed_worker_is_retried_byte_identically(
        self, service_loop, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(MARKER_ENV, str(tmp_path / "crash.marker"))
        spec = fast_spec()
        expected = execute_spec(spec).to_json()
        monkeypatch.setattr("repro.experiments.runner.run_job", crash_once_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            conn = await loop.connect()
            events = await _submit_and_collect(conn, spec)
            conn.close()
            stats = loop.service.status()["pool"]
            await loop.stop()
            return events, stats

        events, stats = asyncio.run(scenario())
        kinds = [e["event"] for e in events]
        assert kinds == ["accepted", "result", "done"]
        result = next(e for e in events if e["event"] == "result")
        assert (
            json.dumps(result["result"], sort_keys=True, separators=(",", ":"))
            == expected
        )
        assert stats["restarts"] >= 1
        assert stats["retries_used"] >= 1


class TestClientDisconnect:
    @fork_only
    def test_inflight_cell_completes_into_shared_cache(
        self, service_loop, monkeypatch
    ):
        spec = fast_spec()
        expected = execute_spec(spec).to_json()
        monkeypatch.setattr("repro.experiments.runner.run_job", slow_worker)

        async def scenario():
            loop = await service_loop(jobs=1)
            conn = await loop.connect()
            await conn.send(
                {"op": "submit", "id": "d1", "spec": spec.to_dict()}
            )
            accepted = await conn.recv()
            assert accepted["event"] == "accepted"
            # Vanish mid-execution: the worker holds the job for ~1.5s.
            conn.close()
            deadline = asyncio.get_running_loop().time() + 60.0
            while loop.service.scheduler.stats()["cells_executed"] < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)
            # The cell's room comes back a few loop steps after the count.
            await wait_until(lambda: loop.service.scheduler.queued == 0)
            cached = loop.service.cache.load(spec)
            stats = loop.service.scheduler.stats()
            await loop.stop()
            return cached, stats

        cached, stats = asyncio.run(scenario())
        assert cached is not None and cached.to_json() == expected
        assert stats["cells_executed"] == 1
        assert stats["queued"] == 0  # the abandoned stream released its slot

    @fork_only
    def test_leaving_after_the_first_answer_returns_each_cell_once(
        self, service_loop, monkeypatch
    ):
        seeds = [0, 1, 2, 3]
        monkeypatch.setattr("test_faults.GATE", multiprocessing.Event())
        monkeypatch.setattr("repro.experiments.runner.run_job", held_seeds_worker)
        over_released = []

        async def scenario():
            loop = await service_loop(jobs=1)
            scheduler = loop.service.scheduler
            release = scheduler.release

            def checked_release(cells=1):
                if cells > scheduler.queued:
                    over_released.append((cells, scheduler.queued))
                release(cells)

            scheduler.release = checked_release
            # Fork the workers first: a worker forked while the leaving
            # client's socket is open would hold a copy of it open.
            keeper = await loop.connect()
            await _submit_and_collect(keeper, fast_spec(100))
            leaver = await loop.connect()
            await leaver.send(
                {"op": "submit", "id": "g", "spec": fast_spec().to_dict(), "seeds": seeds}
            )
            assert (await leaver.recv())["event"] == "accepted"
            first = await leaver.recv()
            assert (first["event"], first["seed"]) == ("result", 0)
            leaver.close()
            await wait_until(lambda: loop.service.status()["connections"] == 1)
            abandoned = scheduler.stats()
            GATE.set()
            events = await _submit_and_collect(keeper, fast_spec(), seeds=seeds)
            keeper.close()
            # The leaver's cells may trail the keeper's answers.
            await wait_until(lambda: scheduler.queued == 0)
            stats = scheduler.stats()
            stored = [loop.service.cache.load(fast_spec(seed)) for seed in seeds]
            await loop.stop()
            return abandoned, events, stats, stored

        abandoned, events, stats, stored = asyncio.run(scenario())
        # The three unreported cells keep their room while their work is
        # pending (one on the worker, two behind it) ...
        assert abandoned["queued"] == 3
        assert abandoned["inflight"] == 1
        # ... and all run to completion: nothing is simulated a second time.
        assert [e["seed"] for e in events if e["event"] == "result"] == seeds
        assert stats["cells_executed"] == 5
        assert stats["queued"] == 0
        assert over_released == []
        assert [entry.to_json() for entry in stored] == [
            execute_spec(fast_spec(seed)).to_json() for seed in seeds
        ]


class TestSigtermDrain:
    def test_inflight_finish_new_refused_exit_zero(self, daemon):
        handle = daemon(jobs=1)
        # ~0.5s of simulation per cell: a wide-enough window to signal the
        # daemon and submit from a second connection while cells run.
        spec = scenario_spec("figure8-throughput", duration_s=30.0, count=8)
        streamer = handle.client()
        stream = streamer.stream(spec, seeds=[0, 1])
        assert next(stream)["event"] == "accepted"
        bystander = handle.client()
        handle.proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)
        with pytest.raises(ServiceError, match="draining"):
            bystander.run(fast_spec(), seeds=[0])
        events = list(stream)
        assert [e["event"] for e in events].count("result") == 2
        assert events[-1]["event"] == "done"
        assert events[-1]["completed"] == 2
        streamer.close()
        bystander.close()
        assert handle.wait() == 0
        assert not handle.socket.exists()

    def test_listener_is_closed_while_draining(self, daemon):
        handle = daemon()
        handle.proc.send_signal(signal.SIGTERM)
        assert handle.wait() == 0
        with pytest.raises((ConnectionError, FileNotFoundError, OSError)):
            handle.client()


class TestShutdownIsQuiet:
    def test_shutdown_over_a_held_connection_leaves_stderr_empty(self, daemon):
        """The drain ends the connection handlers itself; a handler left
        for the loop teardown to cancel is logged as a traceback."""
        for index in range(10):
            handle = daemon(name=f"quiet-{index}")
            client = handle.client()
            client.shutdown()
            assert handle.wait() == 0
            assert handle.proc.stderr.read() == b""
            client.close()


class TestTornCacheEntry:
    @pytest.mark.parametrize("garbage", [b"", b'{"scenario": "faults-f', b"\x00" * 64])
    def test_corrupt_entry_is_a_miss_and_heals(self, daemon, garbage):
        handle = daemon()
        spec = fast_spec()
        expected = execute_spec(spec).to_json()
        entry = handle.cache_dir / f"{ResultCache.key(spec)}.json"
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(garbage)
        with handle.client() as client:
            events = []
            (result,) = client.run(spec, seeds=[0], on_event=events.append)
        streamed = next(e for e in events if e["event"] == "result")
        assert streamed["cached"] is False  # the torn entry was not trusted
        assert result.to_json() == expected
        assert entry.read_text() == expected  # atomically healed on disk


class TestJobTimeout:
    @fork_only
    def test_budget_exceeded_answers_in_band_and_pool_recovers(
        self, service_loop, monkeypatch
    ):
        spec = fast_spec()
        monkeypatch.setattr("repro.experiments.runner.run_job", sleep_forever_worker)

        async def scenario():
            loop = await service_loop(jobs=1)
            conn = await loop.connect()
            events = await _submit_and_collect(conn, spec, timeout_s=0.5)
            # Un-wedge the worker binding and prove the rebuilt pool works.
            monkeypatch.setattr("repro.experiments.runner.run_job", run_job)
            healthy = await _submit_and_collect(conn, spec)
            conn.close()
            stats = loop.service.status()["pool"]
            await loop.stop()
            return events, healthy, stats

        events, healthy, stats = asyncio.run(scenario())
        error = next(e for e in events if e["event"] == "error")
        assert "budget" in error["message"]
        assert events[-1] == {
            "event": "done",
            "id": "f1",
            "completed": 0,
            "failed": 1,
            "cached": 0,
        }
        assert [e["event"] for e in healthy] == ["accepted", "result", "done"]
        assert stats["restarts"] >= 1

    @fork_only
    def test_one_seed_over_budget_fails_alone(
        self, service_loop, tmp_path, monkeypatch
    ):
        """Seeds 0 and 1 start together; seed 0 hangs.  Seed 2 takes seed
        1's worker and is mid-job when seed 0's timeout kills the pool."""
        monkeypatch.setenv(MARKER_ENV, str(tmp_path / "held.marker"))
        # ~0.2 s of simulation per cell: seed 2 starts that much later than
        # seed 0, so its own budget is still open when the pool dies.
        spec = scenario_spec("figure8-throughput", duration_s=30.0, count=8)
        expected = {
            seed: execute_spec(spec.with_seed(seed)).to_json() for seed in (1, 2)
        }
        monkeypatch.setattr("repro.experiments.runner.run_job", one_seed_hangs_worker)

        async def scenario():
            loop = await service_loop(jobs=2)
            conn = await loop.connect()
            events = await _submit_and_collect(
                conn, spec, seeds=[0, 1, 2], timeout_s=2.0
            )
            conn.close()
            status = loop.service.status()
            await loop.stop()
            return events, status

        events, status = asyncio.run(scenario())
        assert [(e["event"], e.get("seed")) for e in events] == [
            ("accepted", None),
            ("error", 0),
            ("result", 1),
            ("result", 2),
            ("done", None),
        ]
        assert "budget" in events[1]["message"]
        for event in events[2:4]:
            assert wire_json(event["result"]) == expected[event["seed"]]
        assert events[-1] == {
            "event": "done",
            "id": "f1",
            "completed": 2,
            "failed": 1,
            "cached": 0,
        }
        assert status["pool"]["restarts"] >= 1
        assert status["pool"]["retries_used"] >= 1  # seed 2, on the new pool
        assert status["pool"]["failed"] == 1
        assert status["scheduler"]["queued"] == 0
