"""Shared harness code for the service suite (imported by conftest fixtures).

Keeps the subprocess-daemon plumbing (:class:`DaemonHandle`,
:func:`spawn_daemon`) and the in-process protocol conversation helpers
(:class:`AsyncConn`, :class:`ServiceLoop`) in one importable module, so
test files and ``conftest.py`` use literally the same harness.
"""

import asyncio
import json
import os
import select
import subprocess
import sys
from pathlib import Path

from repro.service import ExperimentService, ServiceClient, ServiceConfig
from repro.service.protocol import decode_line, encode_message

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: How long a gated test worker waits for its gate before giving up (a gate
#: that never opens is the failure under test, not a hang).
GATE_TIMEOUT_S = 20.0


def job_seed(job):
    """The seed of a ``spec`` job's cell (for seed-selective test workers)."""
    return json.loads(job[1])["config"]["seed"]


def wire_json(document):
    """A streamed result document in the canonical form ``to_json`` writes."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


async def wait_until(predicate, timeout_s=GATE_TIMEOUT_S):
    """Poll ``predicate`` on the running loop; a state never reached fails."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "state never reached"
        await asyncio.sleep(0.01)


def daemon_env(backend=None):
    """Subprocess environment with ``src/`` importable and an optional
    population-backend override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    if backend is not None:
        env["REPRO_POPULATION_BACKEND"] = backend
    return env


class DaemonHandle:
    """A running ``repro serve`` subprocess plus its endpoint and stores."""

    def __init__(self, proc, socket_path, cache_dir):
        self.proc = proc
        self.socket = socket_path
        self.cache_dir = cache_dir

    def client(self, timeout_s=120.0):
        """A fresh blocking client connected to this daemon."""
        return ServiceClient(socket_path=self.socket, timeout_s=timeout_s)

    def wait(self, timeout=60.0):
        """Wait for the daemon process to exit; returns its exit code."""
        return self.proc.wait(timeout=timeout)


def _wait_for_listening(proc, timeout_s=60.0):
    """Block until the daemon announces its endpoint (or fails to start)."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    if not ready:
        proc.kill()
        raise AssertionError("daemon never announced its endpoint")
    line = proc.stdout.readline()
    assert b'"listening"' in line, (
        f"unexpected daemon announcement: {line!r}; stderr: {proc.stderr.read()!r}"
    )


def spawn_daemon(base, started, jobs=1, backend=None, cache_dir=None,
                 extra_args=(), name="d"):
    """Start a ``repro serve`` subprocess and wait for it to listen."""
    cache = Path(cache_dir) if cache_dir else base / f"{name}-cache"
    socket_path = base / f"{name}.sock"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            str(socket_path),
            "--cache-dir",
            str(cache),
            "--jobs",
            str(jobs),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=daemon_env(backend),
    )
    started.append(proc)
    _wait_for_listening(proc)
    return DaemonHandle(proc, socket_path, cache)


def reap_daemons(started):
    """Terminate (then kill) every daemon a factory fixture started."""
    for proc in started:
        if proc.poll() is None:
            proc.terminate()
    for proc in started:
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


class AsyncConn:
    """One protocol conversation over asyncio streams (in-process tests)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, socket_path):
        """Connect and consume the ``hello`` handshake."""
        reader, writer = await asyncio.open_unix_connection(str(socket_path))
        conn = cls(reader, writer)
        hello = await conn.recv()
        assert hello["event"] == "hello"
        return conn

    async def send(self, document):
        self.writer.write(encode_message(document))
        await self.writer.drain()

    async def recv(self):
        line = await self.reader.readline()
        assert line, "service closed the connection"
        return decode_line(line)

    async def events_until(self, kind, request_id=None):
        """Collect events through the first of kind ``kind`` (inclusive)."""
        events = []
        while True:
            event = await self.recv()
            if request_id is not None and event.get("id") != request_id:
                continue
            events.append(event)
            if event.get("event") == kind:
                return events

    async def submit(self, spec, seeds=None, timeout_s=None, request_id="r"):
        """Send one submission and return its events through ``done``."""
        request = {"op": "submit", "id": request_id, "spec": spec.to_dict()}
        if seeds is not None:
            request["seeds"] = seeds
        if timeout_s is not None:
            request["timeout_s"] = timeout_s
        await self.send(request)
        return await self.events_until("done", request_id=request_id)

    def close(self):
        self.writer.close()


class ServiceLoop:
    """An in-process service bound to a Unix socket inside the test's loop."""

    def __init__(self, service, task):
        self.service = service
        self.task = task

    async def connect(self):
        return await AsyncConn.open(self.service.endpoint[1])

    async def stop(self):
        """Drain the service and wait for its serve task to finish."""
        self.service.request_drain()
        await self.task


async def start_service_loop(**overrides):
    """Start an in-process :class:`ExperimentService` in the running loop."""
    service = ExperimentService(ServiceConfig(**overrides))
    task = asyncio.get_running_loop().create_task(service.serve(announce=False))
    while service.endpoint is None:
        assert not task.done(), task.exception()
        await asyncio.sleep(0.01)
    return ServiceLoop(service, task)
