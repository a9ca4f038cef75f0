"""A pool worker answers signals for itself and does not outlive its daemon.

Workers fork from a daemon that has installed asyncio's SIGTERM/SIGINT
handlers.  A worker must not act on them: a SIGTERM or SIGINT sent to one
worker ends that worker (the pool is rebuilt, and a cell it was running is
retried) and leaves the daemon serving.  And a worker whose daemon is gone —
SIGKILLed in the middle of a cell — exits within seconds instead of
simulating on as an orphan.
"""

import os
import signal
import time

from _util import live, worker_pids

from repro.experiments import ScenarioSpec, SessionDecl
from test_service import fast_spec

#: How long a worker may take to notice that its daemon is gone.
ORPHAN_GRACE_S = 10.0


def wait_for(predicate, timeout_s=ORPHAN_GRACE_S):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_sigterm_to_a_worker_leaves_the_daemon_serving(daemon):
    handle = daemon()
    with handle.client() as client:
        client.run(fast_spec(), seeds=[0])
    (worker,) = worker_pids(handle.proc.pid)
    os.kill(worker, signal.SIGTERM)
    assert wait_for(lambda: not live(worker)), "the worker ignored SIGTERM"
    time.sleep(0.5)
    assert handle.proc.poll() is None, "a worker's SIGTERM stopped the daemon"
    with handle.client() as client:
        status = client.status()
        assert status["scheduler"]["draining"] is False
        # The next job runs on a rebuilt pool.
        (result,) = client.run(fast_spec(1), seeds=[1])
    assert result.seed == 1


def long_cell(duration_s=3600.0):
    """A cell of seconds of wall time: its worker is still inside it when signalled."""
    return ScenarioSpec(
        name="long-cell", protected=False, sessions=(SessionDecl("mc"),), duration_s=duration_s
    )


def test_sigint_to_a_worker_mid_cell_retries_the_cell(daemon):
    handle = daemon()
    with handle.client() as client:
        events = client.stream(long_cell(2000.0), seeds=[0])
        assert next(events)["event"] == "accepted"
        assert wait_for(lambda: len(worker_pids(handle.proc.pid)) == 1)
        (worker,) = worker_pids(handle.proc.pid)
        time.sleep(0.5)
        os.kill(worker, signal.SIGINT)
        assert wait_for(lambda: not live(worker)), "the worker ignored SIGINT"
        with handle.client() as other:
            status = other.status()
        assert status["scheduler"]["draining"] is False
        rest = list(events)
    assert [event["event"] for event in rest] == ["result", "done"]
    assert rest[0]["seed"] == 0
    assert handle.proc.poll() is None, "a worker's SIGINT stopped the daemon"
    with handle.client() as client:
        assert client.status()["pool"]["retries_used"] == 1


def test_worker_exits_once_its_daemon_is_killed_mid_cell(daemon):
    handle = daemon()
    with handle.client() as client:
        events = client.stream(long_cell(), seeds=[0])
        assert next(events)["event"] == "accepted"
        assert wait_for(lambda: len(worker_pids(handle.proc.pid)) == 1)
        (worker,) = worker_pids(handle.proc.pid)
        time.sleep(0.5)
        handle.proc.kill()
        handle.proc.wait(timeout=10)
    try:
        assert wait_for(lambda: not live(worker)), "the worker outlived its daemon"
    finally:
        if live(worker):
            os.kill(worker, signal.SIGKILL)
