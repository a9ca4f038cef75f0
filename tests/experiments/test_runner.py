"""Tests of the parallel experiment runner: caching, grids, aggregation, CLI."""

import json

import pytest

from repro.analysis import aggregate_metrics, flatten_metrics
from repro.experiments import (
    ExperimentRunner,
    PAPER_DEFAULTS,
    RunResult,
    ScenarioSpec,
    SessionDecl,
    execute_spec,
    run_spec_json,
    scenario_spec,
    throughput_vs_sessions_spec,
)

FAST_CONFIG = PAPER_DEFAULTS.with_duration(6.0)


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="runner-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        config=FAST_CONFIG.with_seed(seed),
    )


class TestExecution:
    def test_execute_spec_produces_metrics(self):
        result = execute_spec(fast_spec())
        assert result.scenario == "runner-fast"
        assert result.metrics["multicast"]["mc"]["average_kbps"] > 50.0
        assert result.metrics["multicast"]["mc"]["final_levels"][0] >= 1

    def test_run_result_json_roundtrip(self):
        result = execute_spec(fast_spec())
        assert RunResult.from_json(result.to_json()).to_json() == result.to_json()

    def test_run_spec_json_worker_contract(self):
        payload = run_spec_json(fast_spec().to_json())
        document = json.loads(payload)
        assert document["scenario"] == "runner-fast"
        assert document["seed"] == 0

    def test_record_series_included_when_requested(self):
        from dataclasses import replace

        result = execute_spec(replace(fast_spec(), record_series=True))
        series = result.metrics["multicast"]["mc"]["series"]
        assert series and all(len(point) == 2 for point in series)


class TestRunner:
    def test_seed_sweep_orders_results_by_seed(self):
        results = ExperimentRunner(jobs=1).run_seed_sweep(fast_spec(), (0, 1, 2))
        assert [result.seed for result in results] == [0, 1, 2]

    def test_grid_crosses_overrides_and_seeds(self):
        results = ExperimentRunner(jobs=1).run_grid(
            fast_spec(),
            seeds=(0, 1),
            overrides=[{"duration_s": 5.0}, {"duration_s": 6.0}],
        )
        assert [(round(r.duration_s, 1), r.seed) for r in results] == [
            (5.0, 0),
            (5.0, 1),
            (6.0, 0),
            (6.0, 1),
        ]

    def test_cache_hit_skips_execution(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run_one(fast_spec())
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)

        again = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        second = again.run_one(fast_spec())
        assert (again.cache_hits, again.cache_misses) == (1, 0)
        assert second.to_json() == first.to_json()

    def test_cache_key_depends_on_seed(self):
        assert ExperimentRunner.cache_key(fast_spec(0)) != ExperimentRunner.cache_key(
            fast_spec(1)
        )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)


class TestFigure8OnRunner:
    def test_throughput_sweep_uses_runner_and_caches(self, tmp_path):
        from repro.experiments import run_throughput_vs_sessions

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = run_throughput_vs_sessions(
            protected=False,
            session_counts=(1, 2),
            config=FAST_CONFIG,
            duration_s=6.0,
            runner=runner,
        )
        assert set(first.average_kbps) == {1, 2}
        assert runner.cache_misses == 2

        cached_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        second = run_throughput_vs_sessions(
            protected=False,
            session_counts=(1, 2),
            config=FAST_CONFIG,
            duration_s=6.0,
            runner=cached_runner,
        )
        assert cached_runner.cache_hits == 2
        assert second.average_kbps == first.average_kbps
        assert second.individual_kbps == first.individual_kbps


class TestAggregation:
    def test_flatten_skips_non_numeric_leaves(self):
        flat = flatten_metrics(
            {"a": {"b": [1.0, 2.0]}, "label": "text", "none": None, "flag": True}
        )
        assert flat == {"a.b[0]": 1.0, "a.b[1]": 2.0}

    def test_aggregate_mean_min_max(self):
        aggregate = aggregate_metrics([{"x": 1.0}, {"x": 3.0}])
        assert aggregate["x"] == {"mean": 2.0, "min": 1.0, "max": 3.0, "count": 2}

    def test_aggregate_over_seed_sweep(self):
        results = ExperimentRunner(jobs=1).run_seed_sweep(fast_spec(), (0, 1))
        aggregate = aggregate_metrics([result.metrics for result in results])
        key = "multicast.mc.average_kbps"
        assert aggregate[key]["count"] == 2
        assert aggregate[key]["min"] <= aggregate[key]["mean"] <= aggregate[key]["max"]


class TestCli:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure8-throughput" in out
        assert "parking-lot-attack" in out

    def test_topologies_command(self, capsys):
        from repro.__main__ import main

        assert main(["topologies"]) == 0
        assert "binary-tree" in capsys.readouterr().out

    def test_run_command_writes_results(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run",
                "figure8-throughput",
                "--seeds",
                "2",
                "--duration",
                "5",
                "--param",
                "count=1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg goodput" in out
        runs = json.loads((tmp_path / "figure8-throughput-runs.json").read_text())
        assert [run["seed"] for run in runs] == [0, 1]
        aggregate = json.loads(
            (tmp_path / "figure8-throughput-aggregate.json").read_text()
        )
        assert "multicast.mc1.average_kbps" in aggregate


class TestCacheHardening:
    """Torn/corrupt/concurrent cache entries must never poison a run."""

    def _cache_file(self, tmp_path, spec):
        return tmp_path / f"{ExperimentRunner.cache_key(spec)}.json"

    def test_truncated_cache_entry_is_a_miss_and_is_repaired(self, tmp_path):
        spec = fast_spec()
        reference = ExperimentRunner(jobs=1, cache_dir=tmp_path).run_one(spec)
        path = self._cache_file(tmp_path, spec)
        valid = path.read_text()
        path.write_text(valid[: len(valid) // 2])  # torn by a crash mid-write

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        result = runner.run_one(spec)
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        assert result.to_json() == reference.to_json()
        assert path.read_text() == valid  # entry atomically repaired

    def test_garbage_cache_entry_is_a_miss(self, tmp_path):
        spec = fast_spec()
        path = self._cache_file(tmp_path, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all {{{")

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        result = runner.run_one(spec)
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        assert RunResult.from_json(path.read_text()).to_json() == result.to_json()

    def test_wrong_schema_cache_entry_is_a_miss(self, tmp_path):
        spec = fast_spec()
        path = self._cache_file(tmp_path, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"scenario": "x"}))  # parses, wrong shape

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run_one(spec)
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)

    def test_crash_mid_write_leaves_no_torn_entry(self, tmp_path, monkeypatch):
        """A crash between tmp write and replace leaves no (partial) entry."""
        import repro.experiments.warmstart as store_module

        spec = fast_spec()
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)

        def crash(src, dst):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(store_module.os, "replace", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            runner.run_one(spec)
        assert not self._cache_file(tmp_path, spec).exists()
        assert list(tmp_path.glob("*.tmp")) == []  # tmp sibling cleaned up

        monkeypatch.undo()
        fresh = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        result = fresh.run_one(spec)
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)
        assert self._cache_file(tmp_path, spec).exists()
        assert result.to_json()

    def test_concurrent_runners_share_one_cache_file(self, tmp_path):
        """Two runners racing one cache_dir: one valid entry, identical bytes."""
        from concurrent.futures import ThreadPoolExecutor

        spec = fast_spec()

        def race(_):
            return ExperimentRunner(jobs=1, cache_dir=tmp_path).run_one(spec)

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = list(pool.map(race, range(2)))

        assert first.to_json() == second.to_json()
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        assert list(tmp_path.glob("*.tmp")) == []
        assert RunResult.from_json(entries[0].read_text()).to_json() == first.to_json()

    def test_two_threads_publishing_one_path_do_not_share_a_tmp_sibling(
        self, tmp_path, monkeypatch
    ):
        """Both threads have written before either renames: neither may lose its file."""
        import os
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.experiments.warmstart import publish_atomically

        both_written = threading.Barrier(2)
        replace = os.replace

        def replace_once_both_wrote(source, target):
            both_written.wait(timeout=10)
            replace(source, target)

        monkeypatch.setattr(os, "replace", replace_once_both_wrote)
        target = tmp_path / "entry.json"
        payloads = [b"first" * 1000, b"second" * 1000]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda data: publish_atomically(target, data), payloads))

        assert target.read_bytes() in payloads
        assert list(tmp_path.glob("*.tmp")) == []

    def test_load_key_refuses_keys_that_are_not_content_addresses(self, tmp_path):
        from repro.experiments import ResultCache

        outside = tmp_path / "outside"
        outside.with_suffix(".json").write_text(execute_spec(fast_spec()).to_json())
        cache = ResultCache(tmp_path / "store")
        for key in (str(outside), "../outside", "", "0" * 65, "0" * 63 + "\x00"):
            with pytest.raises(ValueError, match="invalid store key"):
                cache.load_key(key)
        assert cache.load_key("0" * 64) is None


class TestOnePipeline:
    """Plan → run → assemble exists once; the runner only walks the plan."""

    PROTECTION_FORMULAS = (
        "weighted_honest_baseline_kbps",
        "excess_goodput_kbps",
        "weighted_excess_goodput_kbps",
        "time_to_containment_s",
        "goodput_containment_s",
        "combined_containment_s",
    )

    def test_each_protection_formula_has_one_caller_module(self):
        import re
        from pathlib import Path

        import repro.experiments

        sources = {
            path.name: path.read_text()
            for path in Path(repro.experiments.__file__).parent.glob("*.py")
        }
        for formula in self.PROTECTION_FORMULAS:
            users = [
                name
                for name, text in sources.items()
                if re.search(rf"\b{formula}\b", text)
            ]
            assert users == ["runner.py"], (formula, users)

    def test_runner_has_no_planner_of_its_own(self, tmp_path, monkeypatch):
        """One ``plan_cells`` call per run; the jobs executed are its jobs."""
        import repro.experiments.runner as runner_module
        from repro.experiments import scale_dumbbell_10m_spec, scale_protection_spec

        assert not [name for name in vars(ExperimentRunner) if "plan" in name]

        group = [
            scale_protection_spec(
                audience=200, strategy=strategy, attack_start_s=6.0, duration_s=9.0
            )
            for strategy in ("inflated-join", "key-replay", "join-storm")
        ]
        sharded = scale_dumbbell_10m_spec(
            receivers=400, cohorts=8, attackers=40, attacker_cohorts=4, regions=2,
            edges_per_region=2, shards=2, attack_start_s=6.0, duration_s=9.0,
        )
        batch = [fast_spec(), *group, sharded]
        # Planning writes nothing, so the runner below plans against the
        # same (empty) store and must arrive at the very same jobs.
        expected = runner_module.plan_cells(batch, checkpoint_dir=tmp_path)
        assert [plan.warm for plan in expected] == [False, True, True, True, True]
        assert len(expected[1].setup_jobs) == 1 and not expected[2].setup_jobs
        assert len(expected[4].setup_jobs) == len(expected[4].jobs) == 2

        cold = ExperimentRunner(jobs=1, warm_start=False).run(batch)
        planned, executed = [], []
        real_plan_cells, real_run_job = runner_module.plan_cells, runner_module.run_job

        def spying_plan_cells(*args, **kwargs):
            planned.append(real_plan_cells(*args, **kwargs))
            return planned[-1]

        def recording_run_job(job):
            executed.append(job)
            return real_run_job(job)

        monkeypatch.setattr(runner_module, "plan_cells", spying_plan_cells)
        monkeypatch.setattr(runner_module, "run_job", recording_run_job)
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        results = runner.run(batch)
        assert len(planned) == 1
        assert executed == (
            [job for plan in expected for job in plan.setup_jobs]
            + [job for plan in expected for job in plan.jobs]
        )
        assert (runner.warm_runs, runner.checkpoint_misses) == (4, 3)
        assert [r.to_json() for r in results] == [r.to_json() for r in cold]
        runner.run(batch)  # all cached: nothing left to plan
        assert len(planned) == 1


class TestPendingDeduplication:
    """Identical pending specs in one batch run once and fan the result out."""

    def test_duplicates_run_once_serially(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []
        original = runner_module.run_spec_json

        def counting(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(runner_module, "run_spec_json", counting)
        runner = ExperimentRunner(jobs=1)
        results = runner.run([fast_spec(), fast_spec(), fast_spec(1)])
        assert len(results) == 3
        assert len(calls) == 2  # the duplicate pair simulated once
        assert (runner.cache_hits, runner.cache_misses) == (0, 2)
        assert results[0].to_json() == results[1].to_json()
        assert results[0].seed != results[2].seed

    def test_duplicates_write_cache_once(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        results = runner.run([fast_spec(), fast_spec()])
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        assert len(results) == 2
        assert results[0].to_json() == results[1].to_json()
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_duplicates_on_the_pool(self):
        runner = ExperimentRunner(jobs=2)
        results = runner.run([fast_spec(), fast_spec()])
        assert runner.cache_misses == 1
        assert results[0].to_json() == results[1].to_json()
