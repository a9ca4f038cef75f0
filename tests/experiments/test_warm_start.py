"""Byte-identity and safety of slot-barrier warm starts (``docs/performance.md``).

The warm-start pipeline promises that resuming a grid cell from a shared
prefix checkpoint is **indistinguishable** from running it cold: for every
golden scenario, on both column backends, through the serial and pooled
runner paths, the warm result document must equal the cold one byte for
byte.  This suite holds the pipeline to that bar and to its safety rails:

* a prefix is only shared when the swept fields are provably inert before
  the divergence slot — a churn burst inside the prefix splits the key,
* torn or corrupt checkpoint blobs read as misses and degrade to cold
  prefixes, never wrong state,
* ``verify=True`` re-runs a warm cell cold and raises on any divergence,
* the engine's exclusive barrier cut leaves events scheduled at exactly the
  barrier queued for the resumed run.
"""

import asyncio
import json
import os
import pickle

import pytest

from repro.experiments import (
    CheckpointStore,
    ExperimentRunner,
    PrefixPlan,
    execute_spec,
    plan_prefix,
    scale_dumbbell_10m_spec,
    scale_protection_spec,
    scenario_spec,
)
from repro.experiments.runner import (
    ResultCache,
    cache_stats,
    plan_cells,
    prune_cache,
    run_job,
)
from repro.experiments.scenario import CHECKPOINT_VERSION
from repro.experiments.warmstart import PREFIX_NAME, run_checkpoint_json, run_warm_json
from repro.multicast_cc.population import BACKEND_ENV_VAR, numpy_available
from repro.simulator.engine import Simulator

#: The golden-trace scenarios (same shortened overrides as ``tests/golden``),
#: every one of which must warm-start byte-identically.
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


def _warm_via_worker(spec, tmp_path, verify=False):
    """Run ``spec`` through the pool worker's warm path; returns result JSON."""
    plan = plan_prefix(spec)
    assert plan is not None, f"{spec.name} must be warm-startable"
    payload = {
        "spec": spec.to_dict(),
        "prefix": plan.spec.to_dict(),
        "barrier_s": plan.barrier_s,
        "dir": str(tmp_path),
        "key": plan.checkpoint_key(),
        "verify": verify,
    }
    return run_warm_json(json.dumps(payload))


def test_golden_warm_equals_cold(name, backend, tmp_path, monkeypatch):
    """Checkpoint at the barrier, run to end == cold run, on both backends."""
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    spec = scenario_spec(name, **GOLDEN_CASES[name])
    cold = execute_spec(spec).to_json()
    warm = _warm_via_worker(spec, tmp_path)
    assert warm == cold
    # The second warm run restores the published blob instead of rebuilding.
    plan = plan_prefix(spec)
    reused = json.loads(
        run_checkpoint_json(
            json.dumps(
                {
                    "prefix": plan.spec.to_dict(),
                    "barrier_s": plan.barrier_s,
                    "dir": str(tmp_path),
                    "key": plan.checkpoint_key(),
                }
            )
        )
    )
    assert reused["reused"] is True
    assert _warm_via_worker(spec, tmp_path) == cold


@pytest.mark.parametrize("scenario", ["figure1-attack", "figure7-defence"])
def test_barrier_falls_while_sender_ticks_are_parked(scenario, tmp_path):
    """Parked ticks live in the sender, not the engine: the blob must carry them.

    At the barrier the idle top layers of every sender sit in its parked
    heap with firing times on both sides of the cut; the resumed run has to
    replay them exactly as the cold run does.
    """
    spec = scenario_spec(scenario, **GOLDEN_CASES[scenario])
    cold = execute_spec(spec).to_json()
    assert _warm_via_worker(spec, tmp_path) == cold  # publishes the blob
    plan = plan_prefix(spec)
    restored = CheckpointStore(tmp_path).load(plan.checkpoint_key())
    for session in restored.sessions:
        parked = session.sender._parked
        assert parked
        assert any(time < plan.barrier_s for time, _ in parked)
    assert _warm_via_worker(spec, tmp_path) == cold  # resumes from the blob


def _protection_grid():
    return [
        scale_protection_spec(
            audience=400,
            attacker_fraction=0.01,
            strategy=strategy,
            attack_start_s=12.0,
            duration_s=18.0,
        )
        for strategy in ("inflated-join", "key-replay", "join-storm")
    ]


def test_runner_serial_equals_pool_equals_cold(tmp_path):
    """Warm grids agree byte-for-byte across serial, pooled and cold paths."""
    grid = _protection_grid()
    cold = [r.to_json() for r in ExperimentRunner(jobs=1, warm_start=False).run(grid)]
    serial = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
    assert [r.to_json() for r in serial.run(grid)] == cold
    assert serial.warm_runs == len(grid)
    assert serial.checkpoint_misses == 1  # one shared prefix blob built
    assert serial.checkpoint_hits == 0
    pooled = ExperimentRunner(jobs=2, cache_dir=tmp_path / "pool")
    assert [r.to_json() for r in pooled.run(grid)] == cold
    assert pooled.warm_runs == len(grid)
    # Published blobs count as checkpoint reuses on the next runner.
    again = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
    results = again.run([spec.with_seed(7) for spec in grid])
    assert again.checkpoint_hits in (0, 1)  # seed is part of the prefix key
    assert len(results) == len(grid)


def test_runner_verify_warm_start_passes(tmp_path):
    grid = _protection_grid()
    cold = [r.to_json() for r in ExperimentRunner(jobs=1, warm_start=False).run(grid)]
    verified = ExperimentRunner(jobs=1, cache_dir=tmp_path, verify_warm_start=True)
    assert [r.to_json() for r in verified.run(grid)] == cold
    assert verified.warm_runs == len(grid)


def test_lone_cell_warms_only_with_durable_cache(tmp_path):
    """Without a cache_dir a lone cell stays cold; with one it publishes."""
    spec = _protection_grid()[0]
    cold = execute_spec(spec).to_json()
    scratch = ExperimentRunner(jobs=1)
    assert scratch.run([spec])[0].to_json() == cold
    assert scratch.warm_runs == 0  # a blob nothing shares is pure overhead
    durable = ExperimentRunner(jobs=1, cache_dir=tmp_path)
    assert durable.run([spec])[0].to_json() == cold
    assert durable.warm_runs == 1
    assert durable.checkpoint_misses == 1
    # A later invocation sweeping the same prefix reuses the published blob.
    later = ExperimentRunner(jobs=1, cache_dir=tmp_path)
    later.run([scale_protection_spec(
        audience=400, attacker_fraction=0.01, strategy="key-guessing",
        attack_start_s=12.0, duration_s=18.0)])
    assert later.checkpoint_hits == 1
    assert later.warm_runs == 1


def test_runner_warm_start_disabled(tmp_path):
    runner = ExperimentRunner(jobs=1, cache_dir=tmp_path, warm_start=False)
    runner.run(_protection_grid())
    assert runner.warm_runs == 0
    assert runner.checkpoint_hits == runner.checkpoint_misses == 0
    assert not list(tmp_path.glob("ck_*.pkl"))


def _tiny_sharded(intensity):
    return scale_dumbbell_10m_spec(
        receivers=4000,
        cohorts=32,
        attackers=200,
        attacker_cohorts=8,
        regions=4,
        edges_per_region=2,
        shards=4,
        attack_start_s=8.0,
        intensity=intensity,
        duration_s=12.0,
    )


def test_sharded_warm_equals_cold(tmp_path):
    """Region checkpoints compose with the sharded merge, serial and pooled."""
    grid = [_tiny_sharded(1.0), _tiny_sharded(2.0)]
    cold = [r.to_json() for r in ExperimentRunner(jobs=1, warm_start=False).run(grid)]
    warm = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
    assert [r.to_json() for r in warm.run(grid)] == cold
    assert warm.warm_runs == len(grid)
    assert warm.checkpoint_misses == grid[0].shards  # one blob per region
    pooled = ExperimentRunner(jobs=2, cache_dir=tmp_path / "pool", verify_warm_start=True)
    assert [r.to_json() for r in pooled.run(grid)] == cold


def test_sharded_verify_jobs_catch_divergence(tmp_path):
    """The cold re-run rides the plan as ``verify_jobs``; ``merge`` compares."""
    (plan,) = plan_cells([_tiny_sharded(1.0)], checkpoint_dir=tmp_path, verify=True)
    assert plan.warm and len(plan.verify_jobs) == len(plan.jobs) == 4
    assert all('"warm"' in payload for _kind, payload in plan.jobs)
    assert not any('"warm"' in payload for _kind, payload in plan.verify_jobs)
    for job in plan.setup_jobs:
        run_job(job)
    outputs = [run_job(job) for job in plan.jobs]
    cold = [run_job(job) for job in plan.verify_jobs]
    assert plan.merge(outputs, cold).to_json() == plan.merge(outputs).to_json()
    (other,) = plan_cells([_tiny_sharded(1.0).with_seed(99)], warm_start=False)
    diverged = [run_job(job) for job in other.jobs]
    with pytest.raises(RuntimeError, match="warm-start divergence"):
        plan.merge(outputs, diverged)


class _RecordingPool:
    """Stands in for the daemon's ``AsyncJobPool``: runs jobs in-process."""

    def __init__(self):
        self.jobs = []

    async def run(self, job, timeout_s=None):
        self.jobs.append(job)
        return run_job(job)


def test_runner_and_scheduler_plan_identical_jobs(tmp_path, monkeypatch):
    """A lone durable cell: batch and service execute byte-identical jobs,
    cold and with the prefix blob already published."""
    import repro.experiments.runner as runner_module
    from repro.service.jobs import ExperimentScheduler

    spec = _protection_grid()[0]

    def forget(pattern):
        for path in tmp_path.glob(pattern):
            path.unlink()

    def batch_jobs():
        executed = []

        def recording(job):
            executed.append(job)
            return run_job(job)

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "run_job", recording)
            ExperimentRunner(jobs=1, cache_dir=tmp_path).run([spec])
        return executed

    def served_jobs():
        pool = _RecordingPool()
        scheduler = ExperimentScheduler(pool, ResultCache(tmp_path), tmp_path)
        outcome = asyncio.run(scheduler.run_cell(spec))
        assert outcome.warm and not outcome.cached
        return pool.jobs

    cold = batch_jobs()
    assert [kind for kind, _payload in cold] == ["checkpoint", "warm"]
    forget("*")
    assert served_jobs() == cold
    forget("*.json")  # keep the published blob, drop the cached result
    published = batch_jobs()
    assert [kind for kind, _payload in published] == ["warm"]
    forget("*.json")
    assert served_jobs() == published


def test_checkpoint_store_refuses_keys_that_are_not_content_addresses(tmp_path):
    store = CheckpointStore(tmp_path / "store")
    (tmp_path / "ck_outside.pkl").write_bytes(b"outside the store")
    for key in (str(tmp_path / "outside"), "../outside", "", "f" * 65, "f" * 63 + "\x00"):
        with pytest.raises(ValueError, match="invalid store key"):
            store.path(key)
        with pytest.raises(ValueError, match="invalid store key"):
            store.exists(key)
    assert store.path("f" * 64).parent == store.directory


def test_prefix_shared_across_swept_fields():
    """Strategy, intensity and name sweeps collapse to one canonical prefix."""
    keys = {
        plan_prefix(
            scale_protection_spec(
                audience=400,
                strategy=strategy,
                intensity=intensity,
                attack_start_s=12.0,
                duration_s=18.0,
            )
        ).checkpoint_key()
        for strategy in ("inflated-join", "key-replay", "key-guessing")
        for intensity in (1.0, 4.0)
    }
    assert len(keys) == 1
    plan = plan_prefix(
        scale_protection_spec(audience=400, attack_start_s=12.0, duration_s=18.0)
    )
    assert plan.spec.name == PREFIX_NAME
    assert plan.barrier_s == 12.0
    # Fields that shape the prefix itself split the key.
    other = plan_prefix(
        scale_protection_spec(audience=500, attack_start_s=12.0, duration_s=18.0)
    )
    assert other.checkpoint_key() != plan.checkpoint_key()


def test_active_churn_before_divergence_never_shared():
    """A churn burst inside the prefix keeps the swept field in the key."""

    def flash(surge, surge_at_s):
        return scenario_spec(
            "attack-churn-flash-crowd",
            initial=50,
            surge=surge,
            surge_at_s=surge_at_s,
            attack_start_s=6.0,
            duration_s=18.0,
        )

    # Burst after the barrier: inert, canonicalized away, keys collapse.
    inert = {plan_prefix(flash(s, 8.0)).checkpoint_key() for s in (500, 1500)}
    assert len(inert) == 1
    # Burst before the barrier: the swept surge stays in the canonical spec.
    active = {plan_prefix(flash(s, 3.0)).checkpoint_key() for s in (500, 1500)}
    assert len(active) == 2
    assert not (active & inert)


def test_plan_prefix_refuses_unplannable_specs():
    no_attack = scenario_spec("figure8-throughput")
    assert plan_prefix(no_attack) is None
    early = scale_protection_spec(audience=400, attack_start_s=0.1, duration_s=18.0)
    assert plan_prefix(early) is None  # less than one full slot of prefix
    late = scale_protection_spec(audience=400, attack_start_s=18.0, duration_s=18.0)
    assert plan_prefix(late) is None  # barrier would not land inside the run


def test_corrupt_checkpoint_blob_is_a_miss(tmp_path):
    spec = scale_protection_spec(audience=300, attack_start_s=12.0, duration_s=18.0)
    cold = execute_spec(spec).to_json()
    plan = plan_prefix(spec)
    store = CheckpointStore(tmp_path)
    assert _warm_via_worker(spec, tmp_path) == cold
    blob_path = store.path(plan.checkpoint_key())
    assert blob_path.exists()
    for garbage in (b"", b"torn", blob_path.read_bytes()[:40]):
        blob_path.write_bytes(garbage)
        assert store.load(plan.checkpoint_key()) is None
        # The warm worker degrades to rebuilding the prefix, never to error.
        assert _warm_via_worker(spec, tmp_path) == cold


class _StaleBoundMethod:
    """Pickles the way ``link._transmission_complete`` did before version 5."""

    def __init__(self, link):
        self.link = link

    def __reduce__(self):
        return getattr, (self.link, "_transmission_complete")


def test_version_4_checkpoint_blob_is_a_miss(tmp_path):
    """Version 4 heaps hold bound methods of a link callback that is gone."""
    assert CHECKPOINT_VERSION == 5
    spec = scale_protection_spec(audience=300, attack_start_s=12.0, duration_s=18.0)
    cold = execute_spec(spec).to_json()
    plan = plan_prefix(spec)
    store = CheckpointStore(tmp_path)
    assert _warm_via_worker(spec, tmp_path) == cold
    key = plan.checkpoint_key()
    scenario = store.load(key)
    blob_path = store.path(key)
    # Right layout, wrong stamp: refused by the version check.
    blob_path.write_bytes(pickle.dumps((4, scenario), protocol=pickle.HIGHEST_PROTOCOL))
    assert store.load(key) is None
    # A real version 4 blob does not even unpickle.
    sim = scenario.network.sim
    link = scenario.network.links[0]
    sim.call_at(sim.now, _StaleBoundMethod(link), None)
    blob_path.write_bytes(pickle.dumps((4, scenario), protocol=pickle.HIGHEST_PROTOCOL))
    with pytest.raises(AttributeError, match="_transmission_complete"):
        pickle.loads(blob_path.read_bytes())
    assert store.load(key) is None
    assert _warm_via_worker(spec, tmp_path) == cold
    assert store.load(key) is not None  # republished by the worker


def test_verify_catches_forced_divergence(tmp_path):
    """A wrong blob planted under the cell's key trips the runtime check."""
    spec = scale_protection_spec(audience=300, attack_start_s=12.0, duration_s=18.0)
    plan = plan_prefix(spec)
    wrong = plan_prefix(spec.with_seed(99))
    payload = {
        "prefix": wrong.spec.to_dict(),
        "barrier_s": wrong.barrier_s,
        "dir": str(tmp_path),
        "key": plan.checkpoint_key(),  # published under the *wrong* key
        "membership_log": False,
    }
    run_checkpoint_json(json.dumps(payload))
    with pytest.raises(RuntimeError, match="warm-start divergence"):
        _warm_via_worker(spec, tmp_path, verify=True)


def test_checkpoint_key_is_backend_scoped(monkeypatch):
    spec = scale_protection_spec(audience=300, attack_start_s=12.0, duration_s=18.0)
    monkeypatch.setenv(BACKEND_ENV_VAR, "fallback")
    fallback_key = plan_prefix(spec).checkpoint_key()
    if not numpy_available():
        pytest.skip("numpy not importable; cannot compare backend keys")
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert plan_prefix(spec).checkpoint_key() != fallback_key


def test_cache_stats_and_prune(tmp_path):
    grid = _protection_grid()
    ExperimentRunner(jobs=1, cache_dir=tmp_path).run(grid)
    stats = cache_stats(tmp_path)
    assert stats["results"]["entries"] == len(grid)
    assert stats["checkpoints"]["entries"] == 1
    assert stats["total_bytes"] == stats["results"]["bytes"] + stats["checkpoints"]["bytes"]
    with pytest.raises(ValueError):
        prune_cache(tmp_path, -1)
    report = prune_cache(tmp_path, stats["total_bytes"])  # already fits
    assert report["deleted"] == 0
    report = prune_cache(tmp_path, 0)
    assert report["deleted"] == len(grid) + 1
    assert report["remaining_bytes"] == 0
    assert cache_stats(tmp_path)["total_bytes"] == 0


def test_engine_exclusive_barrier_cut():
    """``inclusive=False`` leaves events at exactly ``until`` queued."""
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0, 2.0, 3.0):
        sim.schedule(when, fired.append, when)
    sim.run(until=2.0, inclusive=False)
    assert fired == [1.0]
    assert sim.now == 2.0  # the clock still advances to the barrier
    # The resumed run executes the barrier events first, in original order.
    sim.run(until=3.0)
    assert fired == [1.0, 2.0, 2.0, 3.0]


def test_engine_inclusive_default_unchanged():
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0):
        sim.schedule(when, fired.append, when)
    sim.run(until=2.0)
    assert fired == [1.0, 2.0]
