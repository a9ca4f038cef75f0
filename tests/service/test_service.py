"""End-to-end daemon behaviour: handshake, streaming, caching, CLI surface.

Runs a real ``python -m repro serve`` subprocess on a Unix socket and
drives it with the blocking :class:`~repro.service.ServiceClient` (the same
path the ``submit``/``status`` subcommands use), plus raw protocol
conversations for the error-handling contract: a malformed line or unknown
op answers in-band and never kills the connection's other work.
"""

import asyncio
import hashlib
import json
import select
import subprocess
import sys

import pytest

from _util import AsyncConn, daemon_env

from repro.experiments import (
    PAPER_DEFAULTS,
    CohortDecl,
    ResultCache,
    RunResult,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    plan_prefix,
    scenario_spec,
)
from repro.service import PROTOCOL_VERSION, ServiceClient, ServiceError
from repro.service.jobs import (
    ExperimentScheduler,
    QueueFullError,
    ServiceDrainingError,
)
from repro.service.pool import AsyncJobPool


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="service-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        config=PAPER_DEFAULTS.with_duration(6.0).with_seed(seed),
    )


class TestEndToEnd:
    def test_hello_handshake(self, daemon):
        with daemon().client() as client:
            assert client.hello["protocol"] == PROTOCOL_VERSION
            assert isinstance(client.hello["version"], str)

    def test_submit_streams_results_in_seed_order(self, daemon):
        handle = daemon(jobs=2)
        events = []
        with handle.client() as client:
            results = client.run(fast_spec(), seeds=[0, 1], on_event=events.append)
        assert [e["event"] for e in events] == ["accepted", "result", "result", "done"]
        assert events[0]["cells"] == 2
        assert [e["seed"] for e in events[1:3]] == [0, 1]
        assert events[3] == {
            "event": "done",
            "id": events[3]["id"],
            "completed": 2,
            "failed": 0,
            "cached": 0,
        }
        for seed, result in zip((0, 1), results):
            assert result.to_json() == execute_spec(fast_spec(seed)).to_json()

    def test_result_events_carry_batch_cache_keys(self, daemon):
        handle = daemon()
        with handle.client() as client:
            events = list(client.stream(fast_spec(), seeds=[0]))
        result = next(e for e in events if e["event"] == "result")
        key = ResultCache.key(fast_spec(0))
        assert result["key"] == key
        assert (handle.cache_dir / f"{key}.json").exists()

    def test_resubmission_is_served_from_cache(self, daemon):
        handle = daemon()
        with handle.client() as client:
            client.run(fast_spec(), seeds=[0, 1])
        with handle.client() as client:
            events = list(client.stream(fast_spec(), seeds=[0, 1]))
            status = client.status()
        assert all(
            e["cached"] for e in events if e["event"] == "result"
        )
        # Cache hits are answered without touching the worker pool.
        assert status["pool"]["completed"] == 2
        assert status["scheduler"]["cache_hits"] == 2
        assert status["scheduler"]["cache_hit_rate"] == pytest.approx(0.5)

    def test_cache_get_round_trip_and_miss(self, daemon):
        handle = daemon()
        spec = fast_spec()
        with handle.client() as client:
            (result,) = client.run(spec, seeds=[0])
            assert client.cache_get(ResultCache.key(spec)) == result.to_dict()
            assert client.cache_get("0" * 64) is None

    def test_warm_start_blob_is_served_from_shared_store(self, daemon):
        spec = scenario_spec(
            "attack-flapping", attack_start_s=6.0, duration_s=18.0
        )
        plan = plan_prefix(spec)
        assert plan is not None
        handle = daemon()
        with handle.client() as client:
            events = list(client.stream(spec))
            result = next(e for e in events if e["event"] == "result")
            assert result["warm"] is True
            stat = client.blob_stat(plan.checkpoint_key())
        assert stat["exists"] is True
        assert stat["size"] > 0

    def test_status_document_shape(self, daemon):
        with daemon(jobs=2).client() as client:
            status = client.status()
        assert status["protocol"] == PROTOCOL_VERSION
        assert status["uptime_s"] >= 0
        assert status["connections"] == 1
        assert status["pool"]["workers"] == 2
        assert status["scheduler"]["draining"] is False
        assert status["scheduler"]["max_queue"] == 256

    def test_tcp_endpoint_serves_and_replays_from_cache(self, tmp_path):
        """``serve --host/--port`` and ``ServiceClient(host=, port=)``.

        Port 0 binds an ephemeral port; the ``listening`` line names it.
        """
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=daemon_env(),
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, "daemon never announced its endpoint"
            listening = json.loads(proc.stdout.readline())
            assert listening["event"] == "listening"
            assert listening["host"] == "127.0.0.1" and listening["port"] > 0
            endpoint = dict(host=listening["host"], port=listening["port"])
            with ServiceClient(timeout_s=120.0, **endpoint) as client:
                (first,) = client.run(fast_spec(), seeds=[0])
            with ServiceClient(timeout_s=120.0, **endpoint) as client:
                events = list(client.stream(fast_spec(), seeds=[0]))
                assert client.shutdown()["draining"] is True
            (replay,) = [e for e in events if e["event"] == "result"]
            assert replay["cached"] is True
            assert RunResult.from_dict(replay["result"]).to_json() == first.to_json()
            assert first.to_json() == execute_spec(fast_spec()).to_json()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_shutdown_op_drains_and_exits(self, daemon):
        handle = daemon()
        with handle.client() as client:
            bye = client.shutdown()
        assert bye["draining"] is True
        assert handle.wait() == 0
        assert not handle.socket.exists()


class TestProtocolErrorHandling:
    def _converse(self, handle, scenario):
        async def run():
            conn = await AsyncConn.open(handle.socket)
            try:
                return await scenario(conn)
            finally:
                conn.close()

        return asyncio.run(run())

    def test_malformed_line_answers_error_and_connection_survives(self, daemon):
        handle = daemon()

        async def scenario(conn):
            conn.writer.write(b"this is not json\n")
            await conn.writer.drain()
            error = await conn.recv()
            await conn.send({"op": "status", "id": "s1"})
            status = await conn.recv()
            return error, status

        error, status = self._converse(handle, scenario)
        assert error["event"] == "error"
        assert "undecodable" in error["message"]
        assert status["event"] == "status"

    def test_unknown_op_answers_error(self, daemon):
        async def scenario(conn):
            await conn.send({"op": "frobnicate", "id": "x"})
            return await conn.recv()

        event = self._converse(daemon(), scenario)
        assert event["event"] == "error"
        assert "unknown op 'frobnicate'" in event["message"]

    def test_invalid_spec_is_rejected(self, daemon):
        async def scenario(conn):
            await conn.send({"op": "submit", "id": "x", "spec": {"bogus": 1}})
            return await conn.recv()

        event = self._converse(daemon(), scenario)
        assert event["event"] == "rejected"
        assert "invalid spec" in event["reason"]

    #: (path into the spec document, wrongly-typed value) — each decoded
    #: before the typed codec (the first three were even ``accepted``) and
    #: died, if at all, inside a pool worker.
    WRONGLY_TYPED = (
        (("sessions", 0, "receivers"), 1.5),
        (("sessions", 0, "receivers"), True),
        (("duration_s",), "5"),
        (("sessions", 0, "population", 0, "count"), "7"),
        (("shards",), 2.0),
        (("sessions",), {}),
        (("topology_params",), ["hops", 3]),
    )

    def test_wrongly_typed_spec_is_rejected_before_admission(self, daemon):
        template = ScenarioSpec(
            name="service-hostile",
            protected=False,
            sessions=(SessionDecl("mc", population=(CohortDecl(5),)),),
            duration_s=6.0,
        ).to_json()

        async def scenario(conn):
            rejections = []
            for number, (path, value) in enumerate(self.WRONGLY_TYPED):
                document = json.loads(template)
                *parents, last = path
                target = document
                for key in parents:
                    target = target[key]
                target[last] = value
                await conn.send({"op": "submit", "id": f"h{number}", "spec": document})
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            status = await conn.recv()
            # The connection is still usable: the intact document runs.
            await conn.send({"op": "submit", "id": "ok", "spec": json.loads(template)})
            return rejections, status, await conn.events_until("done", "ok")

        rejections, status, events = self._converse(daemon(), scenario)
        assert len(rejections) == len(self.WRONGLY_TYPED)
        for rejected in rejections:
            assert rejected["event"] == "rejected", rejected
            assert rejected["reason"].startswith("invalid spec: "), rejected
        # Rejected at decode: no queue room reserved, no job started.
        assert status["scheduler"]["queued"] == 0
        pool = status["pool"]
        assert (pool["completed"], pool["failed"], pool["restarts"]) == (0, 0, 0)
        assert [e["event"] for e in events] == ["accepted", "result", "done"]
        assert events[-1]["completed"] == 1 and events[-1]["failed"] == 0

    def test_non_integer_seeds_are_rejected(self, daemon):
        async def scenario(conn):
            await conn.send(
                {
                    "op": "submit",
                    "id": "x",
                    "spec": fast_spec().to_dict(),
                    "seeds": [0, "one"],
                }
            )
            return await conn.recv()

        event = self._converse(daemon(), scenario)
        assert event["event"] == "rejected"
        assert "seeds" in event["reason"]


    #: Keys that are not a content address (64 lowercase hex characters).
    HOSTILE_KEYS = (
        "/etc/hostname",
        "../../etc/hostname",
        "",
        "0" * 65,
        "0" * 63 + "\x00",
        "A" * 64,
    )

    def test_hostile_store_keys_answer_error_in_band(self, daemon, tmp_path):
        """A key that could name a path outside the store opens no file."""
        handle = daemon()
        # A well-formed result document *outside* the store: a daemon that
        # joined the raw key into a path would serve it as a cache hit.
        outside = tmp_path / "outside"
        outside.with_suffix(".json").write_text(execute_spec(fast_spec()).to_json())
        (tmp_path / "ck_outside.pkl").write_bytes(b"not a blob")
        keys = self.HOSTILE_KEYS + (str(outside), f"../{outside.name}")

        async def scenario(conn):
            replies = []
            for op in ("cache-get", "blob-stat"):
                for number, key in enumerate(keys):
                    await conn.send({"op": op, "id": f"{op}{number}", "key": key})
                    replies.append(await conn.recv())
            await conn.send({"op": "cache-get", "id": "ok", "key": "0" * 64})
            miss = await conn.recv()
            await conn.send({"op": "status", "id": "s"})
            return replies, miss, await conn.recv()

        replies, miss, status = self._converse(handle, scenario)
        assert len(replies) == 2 * len(keys)
        for reply in replies:
            assert reply["event"] == "error", reply
            assert "invalid store key" in reply["message"]
            assert reply["id"] is not None
        # The connection and the daemon are still usable afterwards.
        assert (miss["event"], miss["hit"]) == ("cache", False)
        assert status["event"] == "status"

    def test_unusable_timeout_is_rejected(self, daemon):
        unusable = [0, -1, -0.5, True, "5", float("inf"), float("nan"), 10**400, [1]]

        async def scenario(conn):
            rejections = []
            for number, timeout_s in enumerate(unusable):
                await conn.send(
                    {
                        "op": "submit",
                        "id": f"x{number}",
                        "spec": fast_spec().to_dict(),
                        "timeout_s": timeout_s,
                    }
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        assert len(rejections) == len(unusable)
        for rejected in rejections:
            assert rejected["event"] == "rejected", rejected
            assert "timeout_s" in rejected["reason"]
        assert status["scheduler"]["queued"] == 0  # no queue room was reserved
        assert status["pool"]["restarts"] == 0

    def test_zero_timeout_kills_no_worker_under_a_bystander(self, daemon):
        """``timeout_s: 0`` used to SIGKILL the pool under other clients."""
        handle = daemon(jobs=2)

        async def scenario(conn):
            bystander = await AsyncConn.open(handle.socket)
            try:
                await bystander.send(
                    {"op": "submit", "id": "b", "spec": fast_spec().to_dict()}
                )
                accepted = await bystander.recv()
                assert accepted["event"] == "accepted"
                for number, timeout_s in enumerate((0, -3, 0.0)):
                    await conn.send(
                        {
                            "op": "submit",
                            "id": f"h{number}",
                            "spec": fast_spec(1).to_dict(),
                            "timeout_s": timeout_s,
                        }
                    )
                    assert (await conn.recv())["event"] == "rejected"
                events = await bystander.events_until("done", "b")
            finally:
                bystander.close()
            await conn.send({"op": "status", "id": "s"})
            return events, await conn.recv()

        events, status = self._converse(handle, scenario)
        assert status["pool"]["restarts"] == 0
        assert events[-1]["completed"] == 1 and events[-1]["failed"] == 0
        (result,) = [e for e in events if e["event"] == "result"]
        assert (
            json.dumps(result["result"], sort_keys=True, separators=(",", ":"))
            == execute_spec(fast_spec()).to_json()
        )


class TestSchedulerAdmission:
    def _scheduler(self, tmp_path, max_queue=2):
        return ExperimentScheduler(
            pool=AsyncJobPool(jobs=1),
            cache=ResultCache(tmp_path),
            checkpoint_dir=tmp_path,
            max_queue=max_queue,
        )

    def test_queue_bound_is_enforced(self, tmp_path):
        scheduler = self._scheduler(tmp_path, max_queue=2)
        scheduler.admit(2)
        with pytest.raises(QueueFullError, match="queue bound"):
            scheduler.admit(1)
        scheduler.release(1)
        scheduler.admit(1)

    def test_draining_rejects_admission(self, tmp_path):
        scheduler = self._scheduler(tmp_path)
        scheduler.draining = True
        with pytest.raises(ServiceDrainingError, match="draining"):
            scheduler.admit(1)

    def test_release_never_goes_negative(self, tmp_path):
        scheduler = self._scheduler(tmp_path)
        scheduler.release(5)
        assert scheduler.queued == 0

    def test_queue_full_submission_is_rejected_in_band(self, daemon):
        handle = daemon(extra_args=("--max-queue", "1"))
        with handle.client() as client:
            with pytest.raises(ServiceError, match="queue bound"):
                list(client.stream(fast_spec(), seeds=[0, 1]))
            # A submission that fits still goes through afterwards.
            (result,) = client.run(fast_spec(), seeds=[0])
            assert result.seed == 0


class TestCli:
    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env=daemon_env(),
        )

    def test_submit_prints_table_and_digest(self, daemon):
        handle = daemon()
        proc = self._cli(
            "submit",
            "figure8-throughput",
            "--socket",
            str(handle.socket),
            "--seeds",
            "1",
            "--duration",
            "8",
            "--digest",
        )
        assert proc.returncode == 0, proc.stderr
        assert "daemon answered 1 cell(s)" in proc.stdout
        assert "metrics_sha256 seed=0:" in proc.stdout
        spec = scenario_spec("figure8-throughput", duration_s=8.0)
        metrics = execute_spec(spec).metrics
        digest = hashlib.sha256(
            json.dumps(metrics, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert digest in proc.stdout

    def test_status_prints_json_snapshot(self, daemon):
        handle = daemon()
        proc = self._cli("status", "--socket", str(handle.socket))
        assert proc.returncode == 0, proc.stderr
        document = json.loads(proc.stdout)
        assert document["protocol"] == PROTOCOL_VERSION
        assert "scheduler" in document and "pool" in document

    def test_serve_requires_an_endpoint(self, tmp_path):
        proc = self._cli("serve", "--cache-dir", str(tmp_path))
        assert proc.returncode == 2
        assert "--socket" in proc.stderr

    def test_submit_to_missing_daemon_exits_2(self, tmp_path):
        proc = self._cli(
            "submit",
            "figure8-throughput",
            "--socket",
            str(tmp_path / "nope.sock"),
        )
        assert proc.returncode == 2
        assert "cannot reach the daemon" in proc.stderr
