"""Service results are byte-identical to batch results — the PR's core bar.

The daemon executes cells through the same planner
(:func:`~repro.experiments.runner.plan_cell`), worker entry point and
canonical serialisation the batch :class:`ExperimentRunner` uses, so a
result obtained over the wire must equal the batch result byte for byte —
for every golden scenario, on both population backends, through the serial
and pooled daemon, for sharded specs, and with identical SHA-256 cache
keys on disk.  One daemon per backend is shared across the parametrised
cases (that sharing *is* the service's cache model).
"""

import pytest

from repro.adversary import AttackSpec
from repro.experiments import (
    CohortDecl,
    ExperimentRunner,
    PAPER_DEFAULTS,
    ResultCache,
    RunResult,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    scenario_spec,
)
from repro.multicast_cc.population import BACKEND_ENV_VAR

#: Same golden scenarios (and shortened overrides) as ``tests/golden`` and
#: the warm-start byte-identity suite.
GOLDEN_CASES = {
    "figure1-attack": dict(attack_start_s=12.0, duration_s=30.0),
    "figure7-defence": dict(attack_start_s=12.0, duration_s=30.0),
    "attack-flapping": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-key-guessing": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-key-replay": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-join-storm": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-ignore-congestion": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-composite": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-collusion-parking-lot": dict(attack_start_s=6.0, duration_s=18.0),
    "attack-inflated-100k": dict(
        receivers=2000, attackers=5, attack_start_s=6.0, duration_s=18.0
    ),
    "attack-keys-100k": dict(
        receivers=2000, replayers=5, guessers=5, attack_start_s=6.0, duration_s=18.0
    ),
    "attack-collusion-100k": dict(
        receivers=2000, publishers=5, exploiters=5, attack_start_s=6.0, duration_s=18.0
    ),
    "attack-churn-flash-crowd": dict(
        initial=50, surge=1950, surge_at_s=8.0, attack_start_s=6.0, duration_s=18.0
    ),
    "scale-protection": dict(
        audience=1000, attacker_fraction=0.01, attack_start_s=6.0, duration_s=18.0
    ),
}


@pytest.fixture(params=sorted(GOLDEN_CASES))
def name(request):
    """Each golden scenario (a fixture so it leads the ``backend`` id)."""
    return request.param


@pytest.fixture(scope="module")
def daemon_for(shared_daemon):
    """One pooled daemon per backend, started lazily and shared module-wide."""
    handles = {}

    def get(backend):
        if backend not in handles:
            handles[backend] = shared_daemon(
                jobs=2, backend=backend, name=f"det-{backend}"
            )
        return handles[backend]

    return get


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="determinism-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        config=PAPER_DEFAULTS.with_duration(6.0).with_seed(seed),
    )


def sharded_spec() -> ScenarioSpec:
    """A small 2-region sharded scenario with an adversarial cohort."""
    return ScenarioSpec(
        name="determinism-sharded",
        protected=True,
        topology="sharded-dumbbell",
        topology_params={"regions": 2, "edges_per_region": 2},
        shards=2,
        duration_s=10.0,
        sessions=(
            SessionDecl(
                "mc",
                receivers=0,
                population=(
                    CohortDecl(200, model="vector", cohorts=8),
                    CohortDecl(
                        40,
                        model="vector",
                        cohorts=4,
                        attack=AttackSpec("inflated-join", start_s=6.0),
                    ),
                ),
            ),
        ),
        config=PAPER_DEFAULTS,
    )


def _service_results(handle, spec, seeds):
    """Run ``spec`` over ``seeds`` through a daemon; returns (results, events)."""
    with handle.client() as client:
        events = []
        results = client.run(spec, seeds=seeds, on_event=events.append)
    return results, [e for e in events if e["event"] == "result"]


def test_golden_service_equals_batch(name, backend, daemon_for, monkeypatch):
    """Every golden scenario, both backends: wire bytes == batch bytes."""
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    spec = scenario_spec(name, **GOLDEN_CASES[name])
    batch = execute_spec(spec).to_json()
    handle = daemon_for(backend)
    results, events = _service_results(handle, spec, [spec.seed])
    assert results[0].to_json() == batch
    # The streamed document round-trips to the same bytes, and the daemon
    # filed it under the exact cache key a batch runner would use.
    assert RunResult.from_dict(events[0]["result"]).to_json() == batch
    key = ResultCache.key(spec)
    assert events[0]["key"] == key
    assert (handle.cache_dir / f"{key}.json").read_text() == batch


@pytest.mark.parametrize("jobs", (1, 2))
def test_grid_equals_batch_serial_and_pooled(jobs, daemon, tmp_path):
    """A spec × seed grid through the daemon == the batch runner: result
    bytes and the cache directory's key set, serial and pooled."""
    seeds = [0, 1, 2]
    batch_cache = tmp_path / f"batch-cache-{jobs}"
    runner = ExperimentRunner(jobs=jobs, cache_dir=batch_cache)
    batch = [r.to_json() for r in runner.run_seed_sweep(fast_spec(), seeds)]
    handle = daemon(jobs=jobs, name=f"grid-{jobs}")
    results, events = _service_results(handle, fast_spec(), seeds)
    assert [r.to_json() for r in results] == batch
    service_keys = {p.name for p in handle.cache_dir.glob("*.json")}
    batch_keys = {p.name for p in batch_cache.glob("*.json")}
    assert service_keys == batch_keys == {
        f"{ResultCache.key(fast_spec(seed))}.json" for seed in seeds
    }


def test_event_sequence_is_the_same_serial_and_pooled(daemon):
    """Cells of one submission finish in any order on two workers; the
    stream a client reads is the one-worker stream, event for event — only
    the provenance flags may tell the two daemons apart."""
    spec = scenario_spec("scale-protection", **GOLDEN_CASES["scale-protection"])
    seeds = [3, 1, 2, 0]
    streams = []
    for jobs in (1, 2):
        with daemon(jobs=jobs, name=f"order-{jobs}").client() as client:
            streams.append(list(client.stream(spec, seeds=seeds)))
    for events in streams:
        assert [e.get("seed") for e in events] == [None, *seeds, None]
        for event in events:
            for flag in ("cached", "deduped", "warm"):
                event.pop(flag, None)
    assert streams[0] == streams[1]


def test_sharded_spec_service_equals_batch(daemon):
    """Region-sharded specs take the same fan-out + merge path either way."""
    spec = sharded_spec()
    batch = ExperimentRunner(jobs=1).run_one(spec).to_json()
    results, events = _service_results(daemon(jobs=2), spec, [spec.seed])
    assert results[0].to_json() == batch
    assert events[0]["key"] == ResultCache.key(spec)


def test_repeated_submission_bytes_stable_across_cold_and_cached(daemon):
    """Cold execution, cache hit and a fresh daemon on the same store all
    stream identical bytes."""
    handle = daemon(name="stable-a")
    spec = fast_spec()
    cold, _ = _service_results(handle, spec, [0])
    warm, warm_events = _service_results(handle, spec, [0])
    assert warm_events[0]["cached"] is True
    second = daemon(name="stable-b", cache_dir=handle.cache_dir)
    reread, reread_events = _service_results(second, spec, [0])
    assert reread_events[0]["cached"] is True
    assert cold[0].to_json() == warm[0].to_json() == reread[0].to_json()
