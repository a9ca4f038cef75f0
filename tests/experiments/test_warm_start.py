"""Byte-identity and safety of slot-barrier warm starts (``docs/performance.md``).

The warm-start pipeline promises that resuming a grid cell from a shared
prefix checkpoint is **indistinguishable** from running it cold: for every
golden scenario, through the serial and pooled runner paths, the warm
result document must equal the cold one byte for byte.  This suite holds
the pipeline to that bar and to its safety rails:

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
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.experiments import (
    CbrDecl,
    ExperimentRunner,
    PrefixPlan,
    execute_spec,
    plan_prefix,
    scenario_spec,
)
from repro.experiments.runner import (
    ResultCache,
    cache_stats,
    plan_cell,
    prune_cache,
    run_job,
)
from repro.experiments.metrics import WARMUP_S
from repro.experiments.scenario import Scenario
from repro.experiments.warmstart import PREFIX_NAME
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.transport import CbrSource

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


def _warm_via_worker(spec, tmp_path, verify=False):
    """Run ``spec`` through the pool worker's warm path; returns result JSON."""
    plan = plan_prefix(spec)
    assert plan is not None, f"{spec.name} must be warm-startable"
    document = {"spec": spec.to_dict(), "warm": plan.block(tmp_path), "verify": verify}
    return run_job(("warm", json.dumps(document)))


def _checkpoint_job(block):
    """Run the ``checkpoint`` job for ``block``; its ``{key, reused}`` report."""
    return json.loads(run_job(("checkpoint", json.dumps({"warm": block}))))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_warm_equals_cold(name, tmp_path):
    """Checkpoint at the barrier, run to end == cold run."""
    spec = scenario_spec(name, **GOLDEN_CASES[name])
    cold = execute_spec(spec).to_json()
    warm = _warm_via_worker(spec, tmp_path)
    assert warm == cold
    # The second warm run restores the published blob instead of rebuilding.
    assert _checkpoint_job(plan_prefix(spec).block(tmp_path))["reused"] is True
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
    restored = ResultCache(tmp_path).load_blob(plan.checkpoint_key())
    for session in restored.sessions:
        parked = session.sender._parked
        assert parked
        assert any(time < plan.barrier_s for time, _ in parked)
    assert _warm_via_worker(spec, tmp_path) == cold  # resumes from the blob


def _protection_grid():
    return [
        scenario_spec(
            "scale-protection",
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


def test_scratch_blobs_are_removed_when_the_batch_returns(tmp_path, monkeypatch):
    """Without a cache_dir the shared prefix lives in a scratch directory
    that is gone once ``run`` returns, not when the runner is collected."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runner = ExperimentRunner(jobs=1)
    results = runner.run(_protection_grid()[:2])
    assert len(results) == 2
    assert runner.warm_runs == 2 and runner.checkpoint_misses == 1
    assert not list(tmp_path.glob("repro-warmstart-*"))


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
    later.run([scenario_spec(
        "scale-protection",
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
    return scenario_spec(
        "scale-dumbbell-10m",
        receivers=4000,
        cohorts=32,
        attackers=200,
        attacker_cohorts=8,
        regions=4,
        edges_per_region=2,
        attack_start_s=8.0,
        intensity=intensity,
        duration_s=12.0,
    )


def test_sharded_cells_run_cold(tmp_path):
    """A sharded cell has no shareable prefix: it builds no blob and its
    regions run from ``t=0``, even under a durable store and runtime verify."""
    grid = [_tiny_sharded(1.0), _tiny_sharded(2.0)]
    cold = [r.to_json() for r in ExperimentRunner(jobs=1, warm_start=False).run(grid)]
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path, verify_warm_start=True)
    assert [r.to_json() for r in runner.run(grid)] == cold
    assert runner.warm_runs == runner.checkpoint_misses == 0
    assert not list(tmp_path.glob("ck_*.pkl"))
    assert plan_prefix(grid[0]) is None
    plan = plan_cell(grid[0], checkpoint_dir=tmp_path)
    assert plan.setup_jobs == [] and not plan.warm
    assert not any('"warm"' in payload for _kind, payload in plan.jobs)

    from repro.service.jobs import ExperimentScheduler

    pool = _RecordingPool()
    scheduler = ExperimentScheduler(pool, ResultCache(tmp_path / "served"))
    outcome = asyncio.run(scheduler.run_cell(grid[0]))
    assert outcome.result.to_json() == cold[0] and not outcome.warm
    assert scheduler.warm_runs == scheduler.checkpoint_misses == 0
    assert [kind for kind, _payload in pool.jobs] == ["region"] * len(plan.jobs)
    assert not list((tmp_path / "served").glob("ck_*.pkl"))


class _RecordingPool:
    """Stands in for the daemon's ``JobExecutor``: runs jobs in-process."""

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
        scheduler = ExperimentScheduler(pool, ResultCache(tmp_path))
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


def test_blob_store_refuses_keys_that_are_not_content_addresses(tmp_path):
    store = ResultCache(tmp_path / "store")
    (tmp_path / "ck_outside.pkl").write_bytes(b"outside the store")
    scenario = Scenario.from_spec(scenario_spec("scale-protection", audience=300))
    for key in (str(tmp_path / "outside"), "../outside", "", "f" * 65, "f" * 63 + "\x00"):
        with pytest.raises(ValueError, match="invalid store key"):
            store.has_blob(key)
        with pytest.raises(ValueError, match="invalid store key"):
            store.load_blob(key)
        with pytest.raises(ValueError, match="invalid store key"):
            store.store_blob(key, scenario)
    assert not (tmp_path / "store").exists()
    store.store_blob("f" * 64, scenario)
    assert [path.name for path in (tmp_path / "store").iterdir()] == [f"ck_{'f' * 64}.pkl"]


def test_prefix_planning_does_no_io():
    """Warm-start planning is pure: the cache directory's one store
    (``ResultCache``) reads and writes its blobs, and the worker half of a
    warm start lives beside ``run_job``."""
    import ast

    import repro.experiments.warmstart as warmstart

    tree = ast.parse(Path(warmstart.__file__).read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert imported.isdisjoint({"io", "os", "pickle", "re", "shutil", "tempfile"})
    assert not hasattr(warmstart, "run_scenario")


def test_prefix_shared_across_swept_fields():
    """Strategy, intensity and name sweeps collapse to one canonical prefix."""
    keys = {
        plan_prefix(
            scenario_spec(
                "scale-protection",
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
        scenario_spec("scale-protection", audience=400, attack_start_s=12.0, duration_s=18.0)
    )
    assert plan.spec.name == PREFIX_NAME
    assert plan.barrier_s == 12.0
    # Fields that shape the prefix itself split the key.
    other = plan_prefix(
        scenario_spec("scale-protection", audience=500, attack_start_s=12.0, duration_s=18.0)
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
    early = scenario_spec("scale-protection", audience=400, attack_start_s=0.1, duration_s=18.0)
    assert plan_prefix(early) is None  # less than one full slot of prefix
    late = scenario_spec("scale-protection", audience=400, attack_start_s=18.0, duration_s=18.0)
    assert plan_prefix(late) is None  # barrier would not land inside the run


def test_corrupt_checkpoint_blob_is_a_miss(tmp_path):
    spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    cold = execute_spec(spec).to_json()
    plan = plan_prefix(spec)
    store = ResultCache(tmp_path)
    assert _warm_via_worker(spec, tmp_path) == cold
    blob_path = tmp_path / f"ck_{plan.checkpoint_key()}.pkl"
    assert blob_path.exists()
    scenario = store.load_blob(plan.checkpoint_key())
    unloadable = {
        "empty": b"",
        "torn": b"torn",
        "truncated": blob_path.read_bytes()[:40],
        # Right layout, stamped by other code: a worker started after a
        # source edit, or a blob stamped with a hand-kept layout number.
        "other code": pickle.dumps(("0" * 64, scenario), protocol=pickle.HIGHEST_PROTOCOL),
        "layout number": pickle.dumps((18, scenario), protocol=pickle.HIGHEST_PROTOCOL),
        # A bound method of a callback the code no longer has.
        "missing attribute": (
            b"cbuiltins\ngetattr\n(crepro.simulator.link\nLink\n"
            b"S'_transmission_complete'\ntR."
        ),
        # A class, and a module, the code no longer has (spelled in pieces, since
        # tests/docs/test_deleted_code.py searches the tests for both names).
        "retired class": b"(I8\ncrepro.simulator.topology\nDumbbell" b"Network\n)Rt.",
        "retired module": b"(I17\ncrepro.experiments." b"config\nExperiment" b"Config\n)Rt.",
    }
    for name, garbage in unloadable.items():
        blob_path.write_bytes(garbage)
        assert store.load_blob(plan.checkpoint_key()) is None, name
        # The warm worker degrades to rebuilding the prefix, never to error.
        assert _warm_via_worker(spec, tmp_path) == cold
        assert store.load_blob(plan.checkpoint_key()) is not None  # republished


def _checkpointed(spec, tmp_path):
    """(plan, the scenario its checkpoint job publishes and the store restores)."""
    plan = plan_prefix(spec)
    _checkpoint_job(plan.block(tmp_path))
    return plan, ResultCache(tmp_path).load_blob(plan.checkpoint_key())


def test_checkpoint_holds_the_current_state_only(tmp_path):
    """A blob holds the live state a resumed run reads and nothing a run no
    longer keeps: no config, no per-receiver guard, no stop flag, restart
    epoch or wakeup handle, no slot origin or bin width, no packet ids or
    packet pool.  A split honest cohort block is one receiver, and a
    scenario carries its edge classes and the declared hosts each receiver
    stands for."""
    plan, scenario = _checkpointed(
        scenario_spec("figure7-defence", **GOLDEN_CASES["figure7-defence"]), tmp_path
    )
    assert scenario.duration_s == plan.barrier_s
    assert not hasattr(scenario, "config")
    assert scenario.slot_duration_s == 0.25
    sim = scenario.network.sim
    assert set(vars(sim)) == {"_heap", "_timer_groups", "_seq", "_now", "_events_executed"}
    ticks = [entry[3] for entry in sim._heap if entry[2].__name__ == "_transmit_group"]
    assert ticks and all(len(args) == 1 for args in ticks)  # the group, nothing else
    assert scenario.sigma_agents
    assert not any(hasattr(agent, "config") for agent in scenario.sigma_agents)
    assert set(vars(scenario.slot_clock)) == {"sim", "duration_s", "_callbacks", "_started"}
    session = scenario.sessions[0]
    assert not hasattr(session.receivers[0], "guard_s")
    assert set(vars(session.receivers[0].monitor)) == {
        "_clock", "name", "_bins", "_open_index", "_open_bytes",
        "total_bytes", "total_packets", "first_time", "last_time",
    }
    assert [f.name for f in fields(session.spec)] == [
        "session_id", "group_count", "base_rate_bps", "rate_factor",
        "packet_bytes", "slot_duration_s", "group_addresses",
    ]
    in_flight = [
        entry[3][0] for entry in sim._heap
        if getattr(entry[2], "__name__", None) == "_deliver"
    ]
    assert in_flight and all(type(packet) is Packet for packet in in_flight)
    assert Packet.__slots__ == (
        "source", "destination", "size_bytes", "protocol", "headers",
        "overhead_bits", "dest_key", "multicast",
    )
    assert "packet_pool" not in vars(scenario.network.multicast)

    _plan, scenario = _checkpointed(
        scenario_spec("scale-dumbbell-10k", receivers=300, cohorts=3, duration_s=18.0), tmp_path
    )
    assert len(scenario.sessions[0].receivers) == 1
    plan, scenario = _checkpointed(
        replace(scenario_spec(
            "scale-dumbbell-10m",
            receivers=2000, cohorts=16, attackers=20, attacker_cohorts=4,
            attack_start_s=6.0, duration_s=9.0,
        ), shards=None),
        tmp_path,
    )
    assert plan.edge_classes
    assert set(scenario.edge_classes) == {members[0] for members in plan.edge_classes}
    assert all(session.declared for session in scenario.sessions)


def test_verify_catches_forced_divergence(tmp_path):
    """A wrong blob planted under the cell's key trips the runtime check."""
    spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    plan = plan_prefix(spec)
    wrong = plan_prefix(spec.with_seed(99))
    # Published under the *wrong* key.
    _checkpoint_job({**wrong.block(tmp_path), "key": plan.checkpoint_key()})
    with pytest.raises(RuntimeError, match="warm-start divergence"):
        _warm_via_worker(spec, tmp_path, verify=True)


def _cbr_across_the_barrier():
    """``figure1-attack`` plus a slow on-off CBR source whose off period
    spans the 12-s barrier: the send it scheduled before stopping at 11.6 s
    is due at 13.824 s, after the barrier and after the 12.6-s restart."""
    spec = scenario_spec("figure1-attack", **GOLDEN_CASES["figure1-attack"])
    return replace(spec, cbr=(CbrDecl("slow", rate_bps=2_000.0, on_s=11.6, off_s=1.0),))


def test_stale_cbr_send_in_the_checkpoint_warm_equals_cold(tmp_path):
    spec = _cbr_across_the_barrier()
    cold = execute_spec(spec).to_json()
    assert _warm_via_worker(spec, tmp_path) == cold  # publishes the blob
    plan = plan_prefix(spec)
    assert plan.barrier_s == 12.0
    restored = ResultCache(tmp_path).load_blob(plan.checkpoint_key())
    [source] = restored.cbr_sources
    sends = [
        (entry[0], entry[3][0])
        for entry in restored.network.sim._heap
        if getattr(entry[2], "__func__", None) is CbrSource._send_next
    ]
    # The source is off; its pending send carries the generation it stopped.
    assert not source.source._running
    assert source.source._generation == 1  # stopped once, at 11.6 s
    assert sends == [(pytest.approx(13.824), source.source._generation - 1)]
    assert _warm_via_worker(spec, tmp_path) == cold  # resumes from the blob


def test_rebound_checkpoint_runs_to_the_cells_duration(tmp_path):
    """A prefix stops at its barrier; rebinding a cell onto it moves the
    default end of :meth:`Scenario.run` to the cell's duration, so the
    resumed scenario reads like a cold one."""
    spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    plan = plan_prefix(spec)
    key = plan.checkpoint_key()
    _checkpoint_job(plan.block(tmp_path))
    warm = ResultCache(tmp_path).load_blob(key)
    assert warm.duration_s == plan.barrier_s == 12.0
    warm.rebind_spec(spec)
    assert warm.duration_s == spec.duration_s == 18.0
    warm.run()
    cold = Scenario.from_spec(spec)
    cold.run()
    assert warm.network.sim.now == cold.network.sim.now == 18.0
    assert [s.receiver.average_rate_kbps(WARMUP_S, 18.0) for s in warm.sessions] == [
        s.receiver.average_rate_kbps(WARMUP_S, 18.0) for s in cold.sessions
    ]


#: Hand-written protocol-0 blobs.  Under a plain ``pickle.loads`` the first
#: two run ``touch {marker}`` and the third hands back a module's globals.
HOSTILE_BLOBS = {
    # The stdlib gadget itself.
    "os.system": "cos\nsystem\n(S'touch {marker}'\ntR.",
    # The same function, reached through a module a repro module imports.
    "repro re-export": (
        "cbuiltins\ngetattr\n(crepro.experiments.runner\nos\nS'system'\ntR"
        "(S'touch {marker}'\ntR."
    ),
    # From a repro function to its module's globals, and on to ``os``.
    "dunder attribute": (
        "cbuiltins\ngetattr\n(crepro.experiments.runner\nrun_scenario\n"
        "S'__globals__'\ntR."
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_BLOBS))
def test_blob_naming_a_disallowed_global_is_a_miss_and_runs_nothing(name, tmp_path):
    marker = tmp_path / "ran"
    blob = HOSTILE_BLOBS[name].format(marker=marker).encode()
    with pytest.raises(pickle.UnpicklingError):
        Scenario.restore(blob)
    key = plan_prefix(
        scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    ).checkpoint_key()
    (tmp_path / f"ck_{key}.pkl").write_bytes(blob)
    assert ResultCache(tmp_path).load_blob(key) is None  # a miss, like a torn blob
    assert not marker.exists()


def test_checkpoint_key_is_the_same_in_every_interpreter():
    """The client, the daemon and every pool worker name one blob alike:
    the key depends on the prefix and the code alone, not on the process
    computing it (nor on its string-hash seed)."""
    spec = scenario_spec("scale-protection", audience=300, attack_start_s=12.0, duration_s=18.0)
    code = (
        "from repro.experiments import plan_prefix, scenario_spec; "
        "print(plan_prefix(scenario_spec('scale-protection', "
        "audience=300, attack_start_s=12.0, duration_s=18.0)).checkpoint_key())"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == plan_prefix(spec).checkpoint_key()


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


_KEY = "0123456789abcdef" * 4


def test_cache_stats_and_prune_touch_only_the_stores_files(tmp_path):
    """A ``run --out`` document or a user's file beside the cache is neither
    counted nor evicted; a publish's leftover ``.tmp`` sibling is evicted."""
    foreign = ["figure1-attack-runs.json", "notes.tmp"]
    for name in foreign:
        (tmp_path / name).write_text("not a cache entry")
    assert cache_stats(tmp_path)["results"]["entries"] == 0
    assert cache_stats(tmp_path)["total_bytes"] == 0
    assert prune_cache(tmp_path, 0)["deleted"] == 0
    key = _KEY
    (tmp_path / f"{key}.json").write_text("{}")
    (tmp_path / f"ck_{key}.pkl").write_bytes(b"blob")
    for name in (f"{key}.json", f"ck_{key}.pkl"):
        fd, _ = tempfile.mkstemp(dir=tmp_path, prefix=f"{name}.", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"torn")
    stats = cache_stats(tmp_path)
    assert stats["results"]["entries"] == 1
    assert stats["checkpoints"]["entries"] == 1
    assert prune_cache(tmp_path, 0)["deleted"] == 4
    assert sorted(path.name for path in tmp_path.iterdir()) == foreign


@pytest.mark.parametrize(
    "name",
    [
        f"{_KEY[:63]}.json",  # one hex digit short of a content address
        f"{_KEY.upper()}.json",  # digests are written in lower case
        f"ck_{_KEY}.json",  # a checkpoint prefix on a result suffix
        f"{_KEY}.pkl",  # a checkpoint suffix without its prefix
        f"{_KEY}.json.tmp",  # no random part: not a publish sibling
        f"{_KEY}.json.bak",
    ],
)
def test_cache_leaves_names_the_stores_never_write(name, tmp_path):
    (tmp_path / name).write_text("not a cache entry")
    stats = cache_stats(tmp_path)
    assert (stats["results"]["entries"], stats["checkpoints"]["entries"]) == (0, 0)
    assert prune_cache(tmp_path, 0)["deleted"] == 0
    assert (tmp_path / name).exists()


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

