"""Regression tests: result-cache keys are versioned.

The original cache key was the SHA-256 of the spec's canonical JSON alone,
so a refactor that changed behaviour (but not the spec) would happily serve
stale cached results forever.  The key now mixes in the package version and
the cache schema tag; these tests pin that down.
"""

import hashlib
import json

import pytest

import repro
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    ScenarioSpec,
    SessionDecl,
)
from repro.experiments.metrics import CACHE_SCHEMA_VERSION, RunResult


@pytest.fixture
def spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cache-test",
        protected=False,
        sessions=(SessionDecl("s", receivers=1),),
        duration_s=3.0,
    )


def test_cache_key_includes_package_version(monkeypatch, spec):
    """Bumping the package version must invalidate every cached result."""
    before = ResultCache.key(spec)
    monkeypatch.setattr(repro, "__version__", "999.0.0")
    after = ResultCache.key(spec)
    assert before != after


def test_cache_key_includes_schema_tag(spec):
    """The key is exactly sha256 of the versioned tag + canonical JSON."""
    expected = hashlib.sha256(
        (
            f"{repro.__version__}:{CACHE_SCHEMA_VERSION}:" + spec.to_json()
        ).encode("utf-8")
    ).hexdigest()
    assert ResultCache.key(spec) == expected
    # In particular it is NOT the legacy unversioned key.
    legacy = hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()
    assert ResultCache.key(spec) != legacy


def test_stale_legacy_cache_entries_are_ignored(tmp_path, spec):
    """A cache file under the old unversioned key must not be served.

    This is the original bug: a pre-refactor cache directory full of results
    keyed only by spec JSON would survive any code change.  The poisoned
    legacy entry below must be treated as a miss and the spec re-executed.
    """
    legacy_key = hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()
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
