"""Regression tests: result-cache and checkpoint keys name the code.

The original cache key was the SHA-256 of the spec's canonical JSON alone,
so a refactor that changed behaviour (but not the spec) would happily serve
stale cached results forever.  Both keys now mix in :func:`repro.code_digest`,
the SHA-256 of the package's modules; these tests pin that down.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import code_digest
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    ScenarioSpec,
    SessionDecl,
    plan_prefix,
    scenario_spec,
)
from repro.experiments.metrics import RunResult

#: Prints the digest, a result key and a checkpoint key for one fixed spec.
KEYS = """
import json, repro
from repro.experiments import ResultCache, plan_prefix, scenario_spec
spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
print(json.dumps([repro.__file__, repro.code_digest(), ResultCache.key(spec),
                  plan_prefix(spec).checkpoint_key()]))
"""


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cache-test",
        protected=False,
        sessions=(SessionDecl("s", receivers=1),),
        duration_s=3.0,
    )


def _keys_of(package: Path):
    """``(digest, result key, checkpoint key)`` computed by the copy of the
    package at ``package``, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", KEYS],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=package.parent,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    origin, *keys = json.loads(proc.stdout)
    assert Path(origin).parent == package
    return tuple(keys)


def test_every_key_names_the_code_that_computes_it(tmp_path):
    """An unchanged copy of the package computes this process's digest, result
    key and checkpoint key; one byte appended to one module changes all three."""
    package = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__")
    )
    spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    here = (code_digest(), ResultCache.key(spec), plan_prefix(spec).checkpoint_key())
    assert _keys_of(package) == here
    with (package / "experiments" / "metrics.py").open("ab") as module:
        module.write(b"\n")
    edited = _keys_of(package)
    assert all(theirs != ours for theirs, ours in zip(edited, here))


def test_stale_legacy_cache_entries_are_ignored(tmp_path, spec):
    """A cache file under the old unversioned key must not be served.

    This is the original bug: a pre-refactor cache directory full of results
    keyed only by spec JSON would survive any code change.  The poisoned
    legacy entry below must be treated as a miss and the spec re-executed.
    """
    legacy_key = hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()
    assert ResultCache.key(spec) != legacy_key
    poisoned = RunResult(
        scenario="stale", seed=-1, protected=True, duration_s=0.0, metrics={}
    )
    (tmp_path / f"{legacy_key}.json").write_text(poisoned.to_json())

    runner = ExperimentRunner(cache_dir=tmp_path)
    result = runner.run_one(spec)
    assert runner.cache_hits == 0
    assert runner.cache_misses == 1
    assert result.scenario == "cache-test"
    assert result.seed == spec.seed


def test_same_version_cache_round_trip(tmp_path, spec):
    """Within one version the cache still hits, byte-identically."""
    runner = ExperimentRunner(cache_dir=tmp_path)
    first = runner.run_one(spec)
    again = ExperimentRunner(cache_dir=tmp_path)
    second = again.run_one(spec)
    assert again.cache_hits == 1
    assert first.to_json() == second.to_json()
    cached = tmp_path / f"{ResultCache.key(spec)}.json"
    assert cached.exists()
    assert json.loads(cached.read_text()) == first.to_dict()
