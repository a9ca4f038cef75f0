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
import os
import select
import subprocess
import sys

import pytest

from _util import AsyncConn, daemon_env

from repro import code_digest
from repro.adversary import AttackSpec
from repro.experiments import (
    ChurnProcess,
    CohortDecl,
    ExperimentRunner,
    JobExecutor,
    ResultCache,
    RunResult,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    plan_prefix,
    scenario_spec,
)
from repro.experiments.spec import MAX_DURATION_S
from repro.service import PROTOCOL_VERSION, ServiceClient, ServiceError
from repro.service.server import ExperimentService, ServiceConfig
from repro.service.jobs import (
    ExperimentScheduler,
    QueueFullError,
    ServiceDrainingError,
)


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="service-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        seed=seed,
    )


class TestDefaultBudget:
    def test_default_configured_daemon_gives_every_job_a_finite_budget(self, tmp_path):
        """Without ``--timeout`` a stuck worker would hold its slot for as
        long as the daemon lives."""
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--socket", str(tmp_path / "d.sock"), "--cache-dir", str(tmp_path)]
        )
        assert args.timeout == MAX_DURATION_S
        service = ExperimentService(ServiceConfig(cache_dir=tmp_path))
        try:
            assert service.pool.timeout_s == MAX_DURATION_S
        finally:
            service.pool.close()


class TestFootprint:
    def test_the_daemon_loads_the_cell_pipeline_before_it_listens(self, daemon, monkeypatch):
        """Fork-started pool workers inherit what the daemon has loaded, so
        no request pays an import: the runner, the pool and the simulator
        are in before the ``listening`` line (which the factory waits for)."""
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
        handle = daemon()
        stderr = handle.proc.stderr.fileno()
        os.set_blocking(stderr, False)
        loaded = {
            line.rpartition("|")[2].strip()
            for line in os.read(stderr, 1 << 20).decode().splitlines()
            if line.startswith("import time:")
        }
        assert {"repro.experiments.runner", "concurrent.futures.process"} <= loaded
        assert any(module.startswith("repro.simulator.") for module in loaded)


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
        blob = handle.cache_dir / f"ck_{plan.checkpoint_key()}.pkl"
        assert blob.stat().st_size > 0

    def test_status_document_shape(self, daemon):
        with daemon(jobs=2).client() as client:
            status = client.status()
        assert status["protocol"] == PROTOCOL_VERSION
        assert status["code"] == code_digest()
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

    def test_non_integer_topology_size_is_rejected(self, daemon):
        """``edges: true`` used to build a one-edge dumbbell in silence."""
        hostile = [
            ("multi-edge-dumbbell", {"edges": True}, "edges"),
            ("multi-edge-dumbbell", {"edges": 1.5}, "edges"),
            ("binary-tree", {"depth": 2.0}, "depth"),
        ]

        async def scenario(conn):
            rejections = []
            for number, (kind, params, _name) in enumerate(hostile):
                document = fast_spec().to_dict()
                document.update(topology=kind, topology_params=params)
                await conn.send({"op": "submit", "id": f"t{number}", "spec": document})
                rejections.append(await conn.recv())
            return rejections

        rejections = self._converse(daemon(), scenario)
        for rejected, (_kind, _params, name) in zip(rejections, hostile):
            assert rejected["event"] == "rejected", rejected
            assert f"{name} must be an integer" in rejected["reason"], rejected

    def test_unusable_duration_is_rejected_before_admission(self, daemon):
        """A NaN horizon used to hold a worker until its timeout killed it,
        and a 1e9-s one for as long as the daemon lived."""
        unusable = [float("nan"), float("inf"), -5.0, 0.0, 1e9]

        async def scenario(conn):
            rejections = []
            for number, duration_s in enumerate(unusable):
                document = fast_spec().to_dict()
                document["duration_s"] = duration_s
                # The budget bounds a daemon that admits the spec anyway.
                await conn.send(
                    {"op": "submit", "id": f"d{number}", "spec": document,
                     "timeout_s": 5}
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        for rejected in rejections:
            assert rejected["event"] == "rejected", rejected
            assert "ScenarioSpec.duration_s" in rejected["reason"]
        assert status["scheduler"]["queued"] == 0
        assert (status["pool"]["completed"], status["pool"]["restarts"]) == (0, 0)

    def _assert_rejected_before_admission(self, daemon, template, unusable):
        """Submit ``template`` with each ``(field, mutate)`` of ``unusable``
        applied: every one is rejected naming ``field``, and none reaches
        the pool."""

        async def scenario(conn):
            rejections = []
            for number, (_field, mutate) in enumerate(unusable):
                document = json.loads(template)
                mutate(document)
                await conn.send(
                    {"op": "submit", "id": f"a{number}", "spec": document,
                     "timeout_s": 5}
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        for (field, _), rejected in zip(unusable, rejections):
            assert rejected["event"] == "rejected", rejected
            assert field in rejected["reason"]
        assert status["scheduler"]["queued"] == 0
        assert (status["pool"]["completed"], status["pool"]["restarts"]) == (0, 0)

    def test_unusable_attack_is_rejected_before_admission(self, daemon):
        """An unknown strategy used to be admitted and fail on a worker, a
        non-finite intensity or a string period to crash one mid-run, and a
        misspelt parameter or an unknown mode to run the defaults."""
        template = ScenarioSpec(
            name="service-attack",
            protected=False,
            sessions=(SessionDecl("mc", attacks=(AttackSpec("inflated-join"),)),),
            duration_s=6.0,
        ).to_json()

        def attack(**fields):
            return lambda document: document["sessions"][0]["attacks"][0].update(fields)

        unusable = [
            ("AttackSpec.strategy", attack(strategy="no-such-strategy")),
            ("AttackSpec.intensity", attack(intensity=float("nan"))),
            ("AttackSpec.intensity", attack(intensity=float("inf"))),
            ("AttackSpec.start_s", attack(start_s=float("nan"))),
            ("AttackSpec.stop_s", attack(stop_s=float("nan"))),
            ("AttackSpec.params", attack(strategy="churn", params={"perod_s": 1})),
            ("AttackSpec.params", attack(strategy="churn", params={"period_s": "x"})),
            ("AttackSpec.params", attack(strategy="churn", params={"period_s": float("nan")})),
            ("AttackSpec.params", attack(strategy="ignore-congestion", params={"mode": "off"})),
        ]
        self._assert_rejected_before_admission(daemon, template, unusable)

    def test_unusable_churn_is_rejected_before_admission(self, daemon):
        """``Infinity`` and ``NaN`` are JSON to ``json.loads``: a cohort churn
        carrying either used to be admitted and fail mid-run."""
        template = ScenarioSpec(
            name="service-churn",
            protected=False,
            sessions=(
                SessionDecl(
                    "mc",
                    receivers=0,
                    population=(CohortDecl(10, churn=ChurnProcess(arrival_rate=1.0)),),
                ),
            ),
            duration_s=6.0,
        ).to_json()

        def churn(**fields):
            return lambda document: document["sessions"][0]["population"][0]["churn"].update(
                fields
            )

        unusable = [
            ("ChurnProcess.arrival_rate", churn(arrival_rate=float("inf"))),
            ("ChurnProcess.departure_rate", churn(departure_rate=float("nan"))),
            ("ChurnProcess.burst", churn(burst=[[float("inf"), 5]])),
        ]
        self._assert_rejected_before_admission(daemon, template, unusable)

    def test_unusable_layering_is_rejected_before_admission(self, daemon):
        """Each of these layering values used to be admitted and fail on a
        worker; 36 groups held one for over 50 s of a 2-s cell."""
        unusable = [
            ("group_count", 0),
            ("group_count", 36),
            ("key_bits", 0),
            ("key_bits", -3),
            ("key_bits", 64),
        ]

        async def scenario(conn):
            rejections = []
            for number, (field, value) in enumerate(unusable):
                document = fast_spec().to_dict()
                document["sessions"][0][field] = value
                await conn.send(
                    {"op": "submit", "id": f"c{number}", "spec": document,
                     "timeout_s": 5}
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        for (field, _), rejected in zip(unusable, rejections):
            assert rejected["event"] == "rejected", rejected
            assert f"SessionDecl.{field} must be" in rejected["reason"], rejected
        assert status["scheduler"]["queued"] == 0
        assert (status["pool"]["completed"], status["pool"]["restarts"]) == (0, 0)

    def test_unusable_topology_or_unknown_key_is_rejected_before_admission(self, daemon):
        """A topology mistake used to be admitted and fail on a worker, and a
        misspelt or retired key to be dropped: ``"durration_s"`` ran the
        default 200 s, a retired session-count key silently ran a 250 kbps
        bottleneck.  An oversized topology is refused before the event loop
        allocates it, and a bandwidth past the float range by name.  So are
        unusable traffic times and rates: an infinite CBR rate used to hang
        a worker, a NaN TCP start to run without the flow.  A spec with no
        session or flow used to run an idle network and cache ``{"multicast":
        {}}``."""
        template = ScenarioSpec(
            name="service-topology", protected=False, sessions=(SessionDecl("mc"),),
            duration_s=6.0,
        ).to_json()
        # Shardable but for the TCP flow, which used to be admitted and then
        # fail every cell.
        sharded = ScenarioSpec(
            name="service-sharded", protected=False, topology="sharded-dumbbell",
            topology_params={"regions": 2, "edges_per_region": 2}, shards=2,
            sessions=(
                SessionDecl(
                    "mc", receivers=0, population=(CohortDecl(100, model="vector"),)
                ),
            ),
            duration_s=6.0,
        ).to_dict()
        unusable = [
            ({"topology": "nope"}, "unknown topology 'nope'"),
            ({"topology": "parking-lot", "topology_params": {"hopz": 3}}, "hopz"),
            (
                {"topology_params": {"bottleneck_bandwidth_bps": float("nan")}},
                "bandwidth_bps must be a finite number > 0",
            ),
            (
                {"topology": "sharded-dumbbell", "shards": 2},
                "spec declares shards=2 but topology 'sharded-dumbbell' annotates 4 regions",
            ),
            ({"topology_params": {"seed": 7}}, "seed"),
            (
                {"topology": "binary-tree", "topology_params": {"depth": 40}},
                "binary tree of depth 40 would exceed",
            ),
            (
                {"topology_params": {"bottleneck_bandwidth_bps": 10**400}},
                "bottleneck_bandwidth_bps is past the float range",
            ),
            (
                {"cbr": [{"rate_bps": float("inf")}]},
                "CbrDecl.rate_bps must be a finite number > 0",
            ),
            (
                {"cbr": [{"active_window": [float("nan"), 5.0]}]},
                "CbrDecl.active_window must be two finite numbers of seconds >= 0",
            ),
            ({"tcp": [{"name": "t", "start_s": float("nan")}]}, "TcpDecl.start_s must be"),
            ({"tcp": [{"name": "t", "start_s": -1.0}]}, "TcpDecl.start_s must be"),
            (
                {"sessions": [{"session_id": "mc", "attacks": [
                    {"strategy": "inflated-join", "start_s": -1.0}
                ]}]},
                "AttackSpec.start_s must be a finite number of seconds >= 0",
            ),
            (
                {**sharded, "tcp": [{"name": "t"}]},
                "TCP/CBR cross traffic couples regions; cannot shard",
            ),
            ({"durration_s": 5}, "unknown keys ['durration_s']"),
            ({"sessions": []}, "measures nothing: ScenarioSpec.sessions"),
            # Moved: the seed is the spec's own, the layering a session's.
            ({"seed": 1.5}, "ScenarioSpec.seed: expected int, got float 1.5"),
            ({"seed": True}, "ScenarioSpec.seed: expected int, got bool True"),
            (
                {"sessions": [{"session_id": "mc", "group_count": 0}]},
                "SessionDecl.group_count must be an integer in 1..20",
            ),
            (
                {"sessions": [{"session_id": "mc", "group_count": 21}]},
                "SessionDecl.group_count must be an integer in 1..20",
            ),
            (
                {"sessions": [{"session_id": "mc", "group_count": True}]},
                "SessionDecl.group_count: expected int, got bool True",
            ),
            (
                {"sessions": [{"session_id": "mc", "key_bits": 0}]},
                "SessionDecl.key_bits must be an integer in 1..60",
            ),
            (
                {"sessions": [{"session_id": "mc", "key_bits": 61}]},
                "SessionDecl.key_bits must be an integer in 1..60",
            ),
            # Retired: the attacker shorthand and a protocol-4 spec's config.
            (
                {"sessions": [{"session_id": "mc", "misbehaving": [0]}]},
                "SessionDecl got unknown keys ['misbehaving']",
            ),
            (
                {"sessions": [{"session_id": "mc", "attack_start_s": 10.0}]},
                "SessionDecl got unknown keys ['attack_start_s']",
            ),
            (
                {"config": {
                    "base_rate_bps": 100_000.0, "fair_share_bps": 250_000.0,
                    "flid_dl_" "slot_s": 0.5, "flid_ds_" "slot_s": 0.25, "group_count": 10,
                    "key_bits": 16, "packet_bytes": 576, "rate_factor": 1.5, "seed": 0,
                    "warmup_s": 5.0,
                }},
                "ScenarioSpec got unknown keys ['config']",
            ),
            ({"expected_" "sessions": 4}, "unknown keys ['expected_" "sessions']"),
        ]

        async def scenario(conn):
            rejections = []
            for number, (fields, _) in enumerate(unusable):
                document = {**json.loads(template), **fields}
                await conn.send(
                    {"op": "submit", "id": f"t{number}", "spec": document,
                     "timeout_s": 5}
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        for (_, message), rejected in zip(unusable, rejections):
            assert rejected["event"] == "rejected", rejected
            assert message in rejected["reason"], rejected
        assert status["scheduler"]["queued"] == 0
        assert (status["pool"]["completed"], status["pool"]["restarts"]) == (0, 0)

    def test_misplaced_receiver_is_rejected_before_admission(self, daemon):
        """A receiver pinned off the receiver edges, or starting at a time
        the engine cannot schedule, used to be admitted and crash the build
        on a worker."""
        template = ScenarioSpec(
            name="service-placement",
            protected=True,
            sessions=(SessionDecl("mc", receivers=0, population=(CohortDecl(5),)),),
            duration_s=6.0,
        ).to_json()
        unusable = [
            ("router", "nope", "CohortDecl.router 'nope'"),
            ("router", "left", "CohortDecl.router 'left'"),
            ("start_s", float("nan"), "CohortDecl.start_s must be a finite"),
            ("start_s", -1.0, "CohortDecl.start_s must be a finite"),
        ]

        async def scenario(conn):
            rejections = []
            for number, (field, value, _) in enumerate(unusable):
                document = json.loads(template)
                document["sessions"][0]["population"][0][field] = value
                await conn.send(
                    {"op": "submit", "id": f"p{number}", "spec": document,
                     "timeout_s": 5}
                )
                rejections.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return rejections, await conn.recv()

        rejections, status = self._converse(daemon(), scenario)
        for (_, _, message), rejected in zip(unusable, rejections):
            assert rejected["event"] == "rejected", rejected
            assert message in rejected["reason"], rejected
        assert status["scheduler"]["queued"] == 0
        assert (status["pool"]["completed"], status["pool"]["restarts"]) == (0, 0)

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


    def test_removed_store_ops_answer_unknown_op_in_band(self, daemon):
        """Protocol 3 dropped the two store-inspection ops: each is an
        unknown op, answered in-band, and touches neither store nor pool."""

        async def scenario(conn):
            replies = []
            for op in ("cache-get", "blob-stat"):
                for key in ("0" * 64, "/etc/hostname"):
                    await conn.send({"op": op, "id": op, "key": key})
                    replies.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return replies, await conn.recv()

        replies, status = self._converse(daemon(), scenario)
        assert len(replies) == 4
        for reply in replies:
            assert reply["event"] == "error", reply
            assert reply["message"] == f"unknown op {reply['id']!r}"
        # The connection and the daemon are still usable afterwards.
        assert status["event"] == "status"
        assert status["pool"]["restarts"] == 0

    @pytest.mark.smoke
    def test_hostile_input_answers_in_band_and_kills_no_worker(self, daemon):
        """One connection sends, in turn, an op protocol 3 removed (its key
        names a path outside the store), a zero job budget, a spec whose
        receiver count is a float, one whose CBR rate is infinite and a
        sharded spec with a TCP flow: each is refused in-band, and the
        connection, the pool and the daemon stay usable."""
        spec = scenario_spec("attack-flapping", attack_start_s=6.0, duration_s=18.0)
        mistyped = spec.to_dict()
        mistyped["sessions"][0]["receivers"] = 1.5
        endless = spec.to_dict()
        endless["cbr"] = [{"rate_bps": float("inf")}]
        coupled = scenario_spec("scale-dumbbell-10m", regions=2, duration_s=4.0).to_dict()
        coupled["tcp"] = [{"name": "t"}]
        hostile = [
            ({"op": "cache-get", "key": "/etc/hostname"}, "error", "unknown op 'cache-get'"),
            ({"op": "submit", "spec": spec.to_dict(), "timeout_s": 0}, "rejected", "timeout_s"),
            ({"op": "submit", "spec": mistyped}, "rejected", "invalid spec"),
            ({"op": "submit", "spec": endless}, "rejected", "CbrDecl.rate_bps"),
            ({"op": "submit", "spec": coupled}, "rejected", "cannot shard"),
        ]

        async def scenario(conn):
            replies = []
            for number, (message, _, _) in enumerate(hostile):
                await conn.send({**message, "id": f"h{number}"})
                replies.append(await conn.recv())
            await conn.send({"op": "status", "id": "s"})
            return replies, await conn.recv()

        replies, status = self._converse(daemon(), scenario)
        for reply, (_, event, text) in zip(replies, hostile):
            assert reply["event"] == event, reply
            assert text in reply.get("message", reply.get("reason")), reply
        assert status["event"] == "status"
        assert status["pool"]["restarts"] == 0
        assert status["scheduler"]["draining"] is False

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
            pool=JobExecutor(jobs=1),
            cache=ResultCache(tmp_path),
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


class TestOneHashPerCell:
    """A cell's spec is hashed once (``ResultCache.key``), batch or served:
    the key serves the lookup, the dedup and the store."""

    @pytest.fixture
    def hashed_seeds(self, monkeypatch):
        seeds = []
        real_key = ResultCache.key

        def counting_key(spec):
            seeds.append(spec.seed)
            return real_key(spec)

        monkeypatch.setattr(ResultCache, "key", staticmethod(counting_key))
        return seeds

    def test_batch_miss(self, tmp_path, hashed_seeds):
        ExperimentRunner(jobs=1, cache_dir=tmp_path).run([fast_spec(0), fast_spec(1)])
        assert sorted(hashed_seeds) == [0, 1]

    def test_daemon_miss_and_hit(self, service_loop, hashed_seeds):
        async def scenario():
            loop = await service_loop(jobs=1)
            conn = await loop.connect()
            missed = await conn.submit(fast_spec(), [0, 1], request_id="miss")
            on_miss = sorted(hashed_seeds)
            hit = await conn.submit(fast_spec(), [0, 1], request_id="hit")
            conn.close()
            await loop.stop()
            return missed, on_miss, hit

        missed, on_miss, hit = asyncio.run(scenario())
        cached = [
            [e["cached"] for e in events if e["event"] == "result"]
            for events in (missed, hit)
        ]
        assert cached == [[False, False], [True, True]]
        assert on_miss == [0, 1]
        assert sorted(hashed_seeds) == [0, 0, 1, 1]


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

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_unusable_default_budget_exits_2_promptly(self, tmp_path, timeout):
        """``serve --timeout 0`` used to start a daemon that SIGKILLed every
        job's worker and rebuilt its pool."""
        proc = subprocess.run(
            # ``--timeout=-1``: argparse reads a bare ``-1`` as an option.
            [sys.executable, "-m", "repro", "serve", "--socket",
             str(tmp_path / "d.sock"), "--cache-dir", str(tmp_path / "cache"),
             f"--timeout={timeout}"],
            capture_output=True,
            text=True,
            timeout=10,
            env=daemon_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "timeout_s" in proc.stderr
        assert not (tmp_path / "d.sock").exists()

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_port_outside_0_to_65535_exits_2(self, tmp_path, port, capsys):
        """Refused at parse time: ``serve --port 99999`` used to crash with
        an ``OverflowError`` traceback from ``bind()``."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", f"--port={port}", "--cache-dir", str(tmp_path / "cache")])
        assert exit_info.value.code == 2
        assert "error: argument --port" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["status"], ["submit", "figure8-throughput"]], ids=["status", "submit"]
    )
    def test_connect_timeout_must_be_finite_and_positive(
        self, tmp_path, command, seconds, capsys
    ):
        """Refused at parse time: a negative, NaN or infinite timeout used to
        crash in ``settimeout`` and ``0`` to leave the socket non-blocking."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--socket", str(tmp_path / "d.sock"),
                  f"--connect-timeout={seconds}"])
        assert exit_info.value.code == 2
        assert "error: argument --connect-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
    def test_submit_budget_must_be_finite_and_positive(self, tmp_path, seconds, capsys):
        """Refused at parse time: the daemon refuses such a budget, and with
        no daemon running the command used to report only that it could not
        reach one."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["submit", "figure8-throughput", "--socket", str(tmp_path / "d.sock"),
                  f"--timeout={seconds}"])
        assert exit_info.value.code == 2
        assert "error: argument --timeout" in capsys.readouterr().err

    def test_directory_that_names_a_file_exits_2_promptly(self, tmp_path):
        """``serve --cache-dir <regular file>`` used to print ``listening``
        and then fail every cell with ``[Errno 17] File exists``."""
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--socket",
             str(tmp_path / "d.sock"), "--cache-dir", str(blocker)],
            capture_output=True,
            text=True,
            timeout=10,
            env=daemon_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --cache-dir")
        assert "listening" not in proc.stdout
        assert not (tmp_path / "d.sock").exists()

    def test_submit_to_missing_daemon_exits_2(self, tmp_path):
        proc = self._cli(
            "submit",
            "figure8-throughput",
            "--socket",
            str(tmp_path / "nope.sock"),
        )
        assert proc.returncode == 2
        assert "cannot reach the daemon" in proc.stderr
