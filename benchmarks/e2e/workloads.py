"""The four workloads of the e2e benchmark, as a user of the system runs them.

Every workload is a closed loop — each caller of this system waits for its
result — driven from this one process through public entry points only.
One *round* does the workload's whole job once and hands back the result
documents it produced; the caller times rounds and checks the bytes.

``figures``  four of the paper's figures, in-process, individual receivers.
``scale``    eight cohort/vector scale scenarios, in-process.
``sweep``    one 45-cell batch through a fresh ``ExperimentRunner``.
``served``   the same 42 grid cells through a fresh ``repro serve`` daemon,
             then replayed twenty times from its cache.

Every time a round reports is in reference seconds (see :mod:`calibrate`),
except the cache-hit latencies of ``served``, which are a per-layer number
and stay as measured.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.adversary import ADVERSARIES
from repro.experiments import (
    ExperimentRunner,
    JobExecutor,
    RunResult,
    ScenarioSpec,
    execute_spec,
    scale_dumbbell_spec,
    scale_protection_spec,
    scenario_spec,
)
from repro.service import ServiceClient
from repro.service.protocol import decode_line

from calibrate import SpeedMeter

#: End-to-end metric names and units, in report order.  ``failed_frac`` is
#: reported beside them but is not a bounded metric: it is expected to be 0.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "wall_per_sim_s": "s/sim_s",
    "cells_per_s": "cells/s",
    "request_p50_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Times ``served`` asks its 21 requests again once the cache holds them.
REPLAYS = 20

#: Grid cells re-run in-process as the reference when no committed digest
#: covers the seed (check (c) on a sample; the default seed checks them all).
REFERENCE_SAMPLE = 6


@dataclass(frozen=True)
class Cell:
    """One result document the workload must produce, under a stable name."""

    name: str
    spec: ScenarioSpec


@dataclass
class Context:
    """What one benchmark process knows: seed, size, parallelism, scratch."""

    seed: int
    jobs: int
    #: Turns the seconds a round measures into reference seconds.
    meter: SpeedMeter
    #: The run's one temporary directory; everything written lives under it.
    workdir: Path
    #: The checkout's ``src/``, which the sampler maps frames against.
    src: Path
    #: 1.0, or 0.1 under ``--quick``: every simulated duration is scaled.
    time_scale: float = 1.0
    #: Environment of every child process (``PYTHONPATH``, ``TMPDIR``).
    env: Dict[str, str] = field(default_factory=lambda: dict(os.environ))

    @contextmanager
    def scratch(self, prefix: str) -> Iterator[Path]:
        """A fresh directory under the run's one temporary directory, removed
        on the way out so no round sees another round's cache."""
        with tempfile.TemporaryDirectory(prefix=prefix, dir=self.workdir) as path:
            yield Path(path)


@dataclass
class Round:
    """What one round produced."""

    #: First call → last result document in hand, in reference seconds.
    wall_s: float
    #: Machine speed while ``wall_s`` was measured: raw wall = wall_s ÷ speed.
    speed: float
    #: Submit → done of each request a caller waited for, in reference seconds.
    request_s: List[float]
    #: Cell name → canonical result JSON.
    outputs: Dict[str, str]
    #: ``served``: the same requests answered again from the cache, as measured.
    hit_ms: List[float] = field(default_factory=list)
    #: Cells refused, failed, or replayed with different bytes — by name.
    problems: List[str] = field(default_factory=list)
    #: The daemon's ``status`` document (``served`` only).
    status: Optional[Dict[str, Any]] = None


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
def _registered(name: str, time_scale: float) -> ScenarioSpec:
    """The registry's spec at its default duration, scaled under --quick."""
    spec = scenario_spec(name)
    if time_scale != 1.0:
        spec = scenario_spec(name, duration_s=spec.effective_duration_s * time_scale)
    return spec


def _figures_cells(ctx: Context) -> List[Cell]:
    names = ("figure1-attack", "figure7-defence", "figure8-throughput", "parking-lot-attack")
    return [
        Cell(name, _registered(name, ctx.time_scale).with_seed(ctx.seed + index))
        for index, name in enumerate(names)
    ]


def _scale_cells(ctx: Context) -> List[Cell]:
    names = (
        "scale-dumbbell-1m",
        "attack-inflated-100k",
        "attack-keys-100k",
        "attack-collusion-100k",
        "attack-churn-flash-crowd",
        "scale-overhead-100k",
    )
    cells = [Cell(name, _registered(name, ctx.time_scale)) for name in names]
    for model, cohorts in (("cohort", 100), ("vector", 10_000)):
        cells.append(
            Cell(
                f"scale-dumbbell-100k-{model}",
                scale_dumbbell_spec(
                    receivers=100_000,
                    model=model,
                    cohorts=cohorts,
                    duration_s=30.0 * ctx.time_scale,
                ),
            )
        )
    return [
        Cell(cell.name, cell.spec.with_seed(ctx.seed + index))
        for index, cell in enumerate(cells)
    ]


def grid_specs(ctx: Context) -> List[Tuple[str, ScenarioSpec]]:
    """The 7-strategy × 3-intensity protection grid (seed not yet applied)."""
    return [
        (
            f"grid-{strategy}-x{intensity:g}",
            scale_protection_spec(
                audience=1_000,
                attacker_fraction=0.01,
                strategy=strategy,
                intensity=intensity,
                attack_start_s=24.0 * ctx.time_scale,
                duration_s=30.0 * ctx.time_scale,
            ),
        )
        for strategy in sorted(ADVERSARIES)
        for intensity in (1.0, 2.0, 4.0)
    ]


def _grid_cells(ctx: Context) -> List[Cell]:
    return [
        Cell(f"{name}-s{offset}", spec.with_seed(ctx.seed + offset))
        for name, spec in grid_specs(ctx)
        for offset in (0, 1)
    ]


def _sweep_cells(ctx: Context) -> List[Cell]:
    figure8 = _registered("figure8-throughput", ctx.time_scale)
    return (
        _grid_cells(ctx)
        + [
            Cell(f"figure8-throughput-s{offset}", figure8.with_seed(ctx.seed + offset))
            for offset in (0, 1)
        ]
        + [
            Cell(
                "scale-dumbbell-10m",
                _registered("scale-dumbbell-10m", ctx.time_scale).with_seed(ctx.seed),
            )
        ]
    )


# ----------------------------------------------------------------------
# reference path and processes
# ----------------------------------------------------------------------
def reference_outputs(cells: Sequence[Cell]) -> Dict[str, str]:
    """Each cell's bytes by the plainest path: in-process, serial, cold.

    A sharded spec has no unsharded meaning, so its reference is the serial
    runner without warm-start.
    """
    outputs = {}
    for cell in cells:
        if cell.spec.shards is None:
            outputs[cell.name] = execute_spec(cell.spec).to_json()
        else:
            runner = ExperimentRunner(jobs=1, warm_start=False)
            outputs[cell.name] = runner.run([cell.spec])[0].to_json()
    return outputs


def reference_sample(ctx: Context, cells: Sequence[Cell]) -> List[Cell]:
    """The grid cells re-run in-process for check (c), chosen by the seed."""
    grid = [cell for cell in cells if cell.name.startswith("grid-")]
    return random.Random(ctx.seed).sample(grid, min(REFERENCE_SAMPLE, len(grid)))


def noop_job(_job: Tuple[str, str]) -> str:
    """A job of no size: what a fresh pool costs before it does any work."""
    return ""


def reap(proc: subprocess.Popen) -> None:
    """Make sure ``proc`` has ended: terminate, then kill."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


@contextmanager
def serve_daemon(ctx: Context, directory: Path) -> Iterator[Tuple[subprocess.Popen, str]]:
    """A fresh ``python -m repro serve`` on a socket under ``directory``.

    Yields once the daemon has announced ``listening``; always reaps it.
    The socket path is handed over relative to the working directory, which
    keeps it under the 108-byte ``sun_path`` limit wherever the checkout is.
    """
    socket_path = os.path.relpath(directory / "daemon.sock")
    with open(directory / "daemon.stderr", "w+b") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", socket_path,
                "--cache-dir", str(directory / "cache"),
                "--jobs", str(ctx.jobs),
            ],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=ctx.env,
        )
        try:
            announcement = proc.stdout.readline()
            if not announcement or decode_line(announcement).get("event") != "listening":
                raise RuntimeError(f"daemon did not come up: {announcement!r}")
            yield proc, socket_path
        finally:
            reap(proc)
            if proc.returncode != 0:
                stderr.seek(0)
                sys.stderr.write(stderr.read().decode("utf-8", "replace"))


def stray_processes(marker: str) -> List[int]:
    """Live processes this run left behind: our children, or anything whose
    command line names the run's temporary directory (the daemon and the
    workers it forked)."""
    me = os.getpid()
    strays = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state == "Z":
            continue
        if int(ppid) == me or marker.encode() in cmdline:
            strays.append(int(entry))
    return strays


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def inprocess_round(ctx: Context, cells: Sequence[Cell]) -> Round:
    """``figures`` / ``scale``: one ``execute_spec(...).to_json()`` per cell."""
    outputs: Dict[str, str] = {}
    request_s: List[float] = []
    started = submitted = time.perf_counter()
    for cell in cells:
        outputs[cell.name] = execute_spec(cell.spec).to_json()
        answered = time.perf_counter()
        request_s.append(ctx.meter.seconds(submitted, answered))
        submitted = answered
    window = (started, answered)
    return Round(ctx.meter.seconds(*window), ctx.meter.speed(*window), request_s, outputs)


def sweep_round(ctx: Context, cells: Sequence[Cell]) -> Round:
    """``sweep``: the whole batch through a fresh runner and a fresh cache."""
    specs = [cell.spec for cell in cells]
    with ctx.scratch("cache") as cache_dir:
        started = time.perf_counter()
        results = ExperimentRunner(jobs=ctx.jobs, cache_dir=cache_dir).run(specs)
        outputs = {cell.name: result.to_json() for cell, result in zip(cells, results)}
        window = (started, time.perf_counter())
    wall_s = ctx.meter.seconds(*window)
    return Round(wall_s, ctx.meter.speed(*window), [wall_s], outputs)


class ServedAnswers:
    """What the daemon answered: cold results by cell name, and what was wrong."""

    def __init__(self, ctx: Context, cells: Sequence[Cell]) -> None:
        self._seed = ctx.seed
        self._expected = {cell.name for cell in cells}
        self.outputs: Dict[str, str] = {}
        self.problems: List[str] = []

    def absorb(self, name: str, events: Sequence[Dict[str, Any]], replay: bool) -> None:
        """Take one request's events; a replay must repeat the cold bytes
        and be marked ``cached``."""
        for event in events:
            kind = event.get("event")
            if kind in ("error", "rejected"):
                why = event.get("message") or event.get("reason")
                self.problems.append(f"{name}: seed {event.get('seed')}: {why}")
            elif kind == "result":
                cell = f"{name}-s{event['seed'] - self._seed}"
                document = RunResult.from_dict(event["result"]).to_json()
                if cell not in self._expected:
                    self.problems.append(f"{cell}: an answer nobody asked for")
                elif not replay:
                    self.outputs[cell] = document
                elif self.outputs.get(cell) != document or not event.get("cached"):
                    self.problems.append(f"{cell}: replay differs from the cold answer")


def served_round(ctx: Context, cells: Sequence[Cell]) -> Round:
    """``served``: 21 cold requests, 420 replays, status, shutdown, exit 0."""
    requests = grid_specs(ctx)
    seeds = [ctx.seed, ctx.seed + 1]
    answers = ServedAnswers(ctx, cells)
    request_s: List[float] = []
    hit_ms: List[float] = []

    with ctx.scratch("served") as directory, serve_daemon(ctx, directory) as (proc, socket_path):
        with ServiceClient(socket_path=socket_path, timeout_s=170.0) as client:
            started = time.perf_counter()
            for name, spec in requests:
                submitted = time.perf_counter()
                events = list(client.stream(spec, seeds=seeds))
                request_s.append(time.perf_counter() - submitted)
                answers.absorb(name, events, replay=False)
            cold = (started, time.perf_counter())
            for _ in range(REPLAYS):
                for name, spec in requests:
                    submitted = time.perf_counter()
                    events = list(client.stream(spec, seeds=seeds))
                    hit_ms.append((time.perf_counter() - submitted) * 1e3)
                    answers.absorb(name, events, replay=True)
            status = client.status()
            client.shutdown()
        code = proc.wait(timeout=60)
        if code != 0:
            answers.problems.append(f"daemon exited with code {code}")
    return Round(
        ctx.meter.seconds(*cold), ctx.meter.speed(*cold), ctx.meter.scaled(request_s, cold),
        answers.outputs, hit_ms, answers.problems, status,
    )


# ----------------------------------------------------------------------
# set-up: what must exist before the first unit of work
# ----------------------------------------------------------------------
@contextmanager
def _ready_inprocess(_ctx: Context) -> Iterator[None]:
    yield


@contextmanager
def _ready_sweep(ctx: Context) -> Iterator[None]:
    with JobExecutor(jobs=ctx.jobs, worker=noop_job) as executor:
        executor.run_all([("noop", "")] * ctx.jobs)
        yield


@contextmanager
def _ready_served(ctx: Context) -> Iterator[None]:
    with ctx.scratch("probe") as directory, serve_daemon(ctx, directory) as (_proc, socket_path):
        with ServiceClient(socket_path=socket_path, timeout_s=60.0):
            yield


@dataclass(frozen=True)
class Workload:
    """A workload: its cells, one round of it, and its set-up."""

    cells: Callable[[Context], List[Cell]]
    round: Callable[[Context, Sequence[Cell]], Round]
    ready: Callable[[Context], Any]


WORKLOADS: Dict[str, Workload] = {
    "figures": Workload(_figures_cells, inprocess_round, _ready_inprocess),
    "scale": Workload(_scale_cells, inprocess_round, _ready_inprocess),
    "sweep": Workload(_sweep_cells, sweep_round, _ready_sweep),
    "served": Workload(_grid_cells, served_round, _ready_served),
}
