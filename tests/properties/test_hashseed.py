"""Regression: multicast replication must not depend on PYTHONHASHSEED.

PR 1 fixed two sources of cross-process nondeterminism: the forwarding plane
iterated a ``Set[Host]`` (id-ordered) to list a router's replicas, and TCP
jitter was seeded from the salted built-in ``hash()``.  The in-process
determinism tests cannot catch a regression there — all objects share one
hash salt — so this test executes the same spec in subprocesses pinned to
*different* ``PYTHONHASHSEED`` values and requires byte-identical result
documents.

The spec fans one session out to several receivers across multiple routers
(maximising replication points) and adds a TCP flow (covering the jitter
seeding).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import ScenarioSpec, SessionDecl, TcpDecl

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

WORKER = (
    "import sys\n"
    "from repro.experiments import ScenarioSpec, plan_cell\n"
    "from repro.experiments.runner import run_job\n"
    "(job,) = plan_cell(ScenarioSpec.from_json(sys.stdin.read())).jobs\n"
    "sys.stdout.write(run_job(job))\n"
)


def replication_heavy_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="hashseed-replication",
        protected=False,
        topology="parking-lot",
        topology_params={"hops": 2, "bottleneck_bandwidth_bps": 600_000.0},
        sessions=(
            SessionDecl(
                "mc",
                receivers=4,
                receiver_routers=("r1", "r1", "r2", "r2"),
            ),
        ),
        tcp=(TcpDecl("t1"),),
        duration_s=6.0,
        record_series=True,
    )


def run_in_subprocess(spec_json: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=spec_json,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout


def test_replication_is_stable_under_differing_hash_seeds():
    spec_json = replication_heavy_spec().to_json()
    first = run_in_subprocess(spec_json, "0")
    second = run_in_subprocess(spec_json, "1")
    third = run_in_subprocess(spec_json, "424242")
    assert first == second == third
    # Sanity: the run produced real traffic, not an empty document.
    metrics = json.loads(first)["metrics"]
    assert metrics["multicast"]["mc"]["average_kbps"] > 0
