"""Fixtures for the service suite: real daemons and in-process services.

Two harnesses, used by different tests (both implemented in ``_util.py``):

* ``daemon`` / ``shared_daemon`` — a *real* ``python -m repro serve``
  subprocess on a Unix socket, for end-to-end behaviour, SIGTERM drain and
  the CLI surface.  The factories wait for the daemon's ``listening``
  announcement before returning and guarantee teardown.
* ``service_loop`` — an in-process
  :class:`~repro.service.server.ExperimentService` inside a test-owned event
  loop, for fault injection (the pool's worker entry point can be
  monkeypatched, which ``fork``-started workers inherit) and for
  deterministic cross-connection concurrency tests.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import reap_daemons, spawn_daemon, start_service_loop


@pytest.fixture
def daemon(tmp_path):
    """Factory: start a real daemon subprocess; all started daemons are
    terminated (and reaped) at teardown regardless of test outcome."""
    started = []
    yield lambda **kwargs: spawn_daemon(tmp_path, started, **kwargs)
    reap_daemons(started)


@pytest.fixture(scope="module")
def shared_daemon(tmp_path_factory):
    """Module-scoped daemon factory, for suites that amortise one daemon
    across a parametrised set of cases."""
    started = []
    base = tmp_path_factory.mktemp("service-daemons")
    yield lambda **kwargs: spawn_daemon(base, started, **kwargs)
    reap_daemons(started)


@pytest.fixture
def service_loop(tmp_path):
    """Factory usable *inside* a test-owned event loop::

        async def scenario():
            loop = await service_loop(jobs=2)
            ...
            await loop.stop()
        asyncio.run(scenario())
    """

    async def start(**overrides):
        overrides.setdefault("cache_dir", tmp_path / "svc-cache")
        overrides.setdefault("socket", tmp_path / "svc.sock")
        return await start_service_loop(**overrides)

    return start
