"""Tests of the parallel experiment runner: caching, grids, aggregation, CLI."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import aggregate_metrics, flatten_metrics
from repro.experiments import (
    ExperimentRunner,
    ResultCache,
    RunResult,
    ScenarioSpec,
    SessionDecl,
    TcpDecl,
    execute_spec,
    figure,
    plan_cell,
    run_figure,
    scenario_spec,
)
from repro.experiments.runner import run_job


SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def fast_spec(seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec(
        name="runner-fast",
        protected=False,
        sessions=(SessionDecl("mc"),),
        duration_s=6.0,
        seed=seed,
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

    def test_run_job_worker_contract(self):
        (job,) = plan_cell(fast_spec()).jobs
        assert job[0] == "spec"
        document = json.loads(run_job(job))
        assert document["scenario"] == "runner-fast"
        assert document["seed"] == 0

    def test_record_series_included_when_requested(self):
        """Every receiver's and connection's bins cover the whole run, and
        every receiver's level history rides along."""
        spec = replace(
            fast_spec(), sessions=(SessionDecl("mc", receivers=2),), tcp=(TcpDecl("t"),),
            record_series=True,
        )
        metrics = execute_spec(spec).metrics
        series = metrics["multicast"]["mc"]["series"]
        for bins in [*series["bins"], metrics["tcp_series"]["t"]]:
            assert [index for index, _ in bins] == list(range(6))
        assert [len(history) > 0 for history in series["levels"]] == [True, True]

    def test_reducers_read_documents_the_same_as_results(self):
        """A ``record_series`` document reduces to the same table whether it
        was read back from its JSON or taken straight from the run."""
        for name, axes in (
            ("figure1_flid_dl_attack", dict(attack_start_s=4.0, duration_s=8.0)),
            ("figure8gh_convergence", dict(join_times_s=(0.0, 2.0), duration_s=8.0)),
            ("figure8e_responsiveness", dict(burst_window=(2.0, 4.0), duration_s=16.0)),
        ):
            decl = figure(name)
            cells = [replace(spec, record_series=True) for spec in decl.cells(**axes)]
            in_memory = [execute_spec(spec) for spec in cells]
            read_back = [RunResult.from_json(result.to_json()) for result in in_memory]
            assert decl.reduce(cells, read_back) == decl.reduce(cells, in_memory)
            assert decl.reduce(cells, in_memory) == run_figure(decl, **axes)

    def test_duel_table_refuses_an_empty_attack_window(self):
        """An onset at or past the run's end used to reduce to "during" 0 for
        every flow and a perfect fairness of 1.000."""
        for name in ("figure1_flid_dl_attack", "figure7_flid_ds_protection"):
            with pytest.raises(
                ValueError, match=r"attack onset 6\.0 s leaves no attack window in a 6\.0 s run"
            ):
                run_figure(figure(name), attack_start_s=40.0, duration_s=6.0)


class TestRunner:
    def test_seed_sweep_orders_results_by_seed(self):
        results = ExperimentRunner(jobs=1).run_seed_sweep(fast_spec(), (0, 1, 2))
        assert [result.seed for result in results] == [0, 1, 2]

    def test_cache_hit_skips_execution(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run_one(fast_spec())
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)

        again = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        second = again.run_one(fast_spec())
        assert (again.cache_hits, again.cache_misses) == (1, 0)
        assert second.to_json() == first.to_json()

    def test_cache_key_depends_on_seed(self):
        assert ResultCache.key(fast_spec(0)) != ResultCache.key(fast_spec(1))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)


class TestFigure8OnRunner:
    def test_throughput_sweep_uses_runner_and_caches(self, tmp_path):
        throughput = figure("figure8abc_throughput_without_cross_traffic")
        axes = dict(counts=(1, 2), duration_s=6.0)
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = run_figure(throughput, runner, **axes)
        assert set(first["flid_dl_avg_kbps"]) == set(first["flid_ds_avg_kbps"]) == {1, 2}
        assert runner.cache_misses == 4

        cached_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        assert run_figure(throughput, cached_runner, **axes) == first
        assert cached_runner.cache_hits == 4


class TestAggregation:
    def test_flatten_skips_non_numeric_leaves(self):
        flat = flatten_metrics(
            {"a": {"b": [1.0, 2.0]}, "label": "text", "none": None, "flag": True}
        )
        assert flat == {"a.b[0]": 1.0, "a.b[1]": 2.0}

    def test_aggregate_mean_min_max(self):
        aggregate = aggregate_metrics([{"x": 1.0}, {"x": 3.0}])
        assert aggregate["x"] == {"mean": 2.0, "min": 1.0, "max": 3.0, "count": 2}

    def test_series_stay_out_of_the_aggregate(self):
        spec = replace(fast_spec(), tcp=(TcpDecl("t"),))
        plain, recorded = (
            aggregate_metrics([execute_spec(replace(spec, record_series=flag)).metrics])
            for flag in (False, True)
        )
        assert recorded.keys() == plain.keys()

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

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-5", "0"])
    def test_unusable_duration_exits_2_promptly(self, duration):
        """A NaN or infinite horizon used to run forever, a non-positive one
        to exit 0 with an all-zero table (a timeout fails, never hangs)."""
        proc = subprocess.run(
            # ``--duration=-inf``: argparse reads a bare ``-inf`` as an option.
            [sys.executable, "-m", "repro", "run", "figure1-attack",
             f"--duration={duration}"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "ScenarioSpec.duration_s" in proc.stderr

    @pytest.mark.parametrize(
        "param, field",
        [
            ("strategy=no-such-strategy", "AttackSpec.strategy"),
            ("intensity=nan", "AttackSpec.intensity"),
            ("intensity=inf", "AttackSpec.intensity"),
            ("attack_start_s=nan", "AttackSpec.start_s"),
        ],
    )
    def test_unusable_attack_exits_2_promptly(self, param, field):
        """An unknown strategy or a non-finite attack parameter used to exit 1
        with a traceback once the run had started."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "scale-protection",
             "--param", param, "--param", "audience=100", "--duration", "12"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert field in proc.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scale-dumbbell-1m", "--param", "edges=0"], "at least one edge router"),
            # The builder sized its leaves as 2 ** -1 before the topology refused.
            (["tree-convergence", "--param", "depth=0"], "binary tree needs depth >= 2"),
            (
                # The shard count is the region count, not a second parameter.
                ["scale-dumbbell-10m", "--param", "shards=4", "--duration", "2"],
                "unexpected keyword argument 'shards'",
            ),
            (
                ["figure8-responsiveness", "--param", "bottleneck_bandwidth_bps=nan"],
                "bandwidth_bps must be a finite number > 0, got nan",
            ),
            (
                ["figure8-responsiveness", "--param", "burst_rate_bps=inf", "--duration", "12"],
                "CbrDecl.rate_bps must be a finite number > 0 (cbr 'burst'), got inf",
            ),
            (
                ["figure8-responsiveness", "--param", "burst_rate_bps=nan", "--duration", "12"],
                "CbrDecl.rate_bps must be a finite number > 0 (cbr 'burst'), got nan",
            ),
            (
                ["figure8-responsiveness", "--param", "burst_rate_bps=0", "--duration", "12"],
                "CbrDecl.rate_bps must be a finite number > 0 (cbr 'burst'), got 0",
            ),
            (
                ["figure1-attack", "--param", "attack_start_s=nan", "--duration", "12"],
                "AttackSpec.start_s must be a finite number of seconds >= 0",
            ),
            (
                ["figure1-attack", "--param", "attack_start_s=-1", "--duration", "12"],
                "AttackSpec.start_s must be a finite number of seconds >= 0, got -1",
            ),
        ],
    )
    def test_unusable_topology_exits_2_promptly(self, argv, message):
        """A topology mistake used to exit 1 with a traceback from inside
        the run (or from the shard planner, or the tree builder).  So did a NaN attack start;
        an infinite CBR rate hung the run in a zero-delay send loop."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", *argv],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_flagship_shards_follow_its_regions(self):
        """``--param regions=4`` used to be refused: a second parameter
        restated the shard count as 8."""
        spec = scenario_spec("scale-dumbbell-10m", regions=4)
        assert spec.shards == len(spec.network_topology.regions) == 4

    @staticmethod
    def _modules_after(modules, prefix="numpy"):
        """The modules a fresh interpreter holds after importing ``modules``
        that are ``prefix`` (a dotted module name) or lie below it."""
        code = (
            f"import sys, {', '.join(modules)}; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix!r} + '.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_and_daemon_start_without_numpy(self):
        """Every CLI call, daemon and pool worker pays its imports; none of
        them needs numpy (whether or not it is installed)."""
        assert self._modules_after(["repro.__main__", "repro.service.server"]) == "[]"

    @pytest.mark.parametrize(
        "package",
        ["repro.adversary", "repro.analysis", "repro.experiments",
         "repro.multicast_cc", "repro.service", "repro.simulator"],
    )
    def test_package_imports_without_numpy(self, package):
        """Each package on its own, so a regression names the one that
        pulls numpy back into start-up."""
        assert self._modules_after([package]) == "[]"

    @pytest.mark.parametrize("module", ["repro.experiments", "repro.__main__", "repro.service"])
    def test_batch_side_imports_without_asyncio(self, module):
        """The pool the runner shares with the daemon imports asyncio only
        when a batch runs or the daemon awaits it."""
        assert self._modules_after([module], "asyncio") == "[]"

    @pytest.mark.parametrize(
        "module, prefix",
        [
            ("repro.service", "concurrent"),
            ("repro.service", "repro.simulator"),
            ("repro.service", "repro.experiments"),
            ("repro.experiments", "concurrent"),
            ("repro.experiments", "multiprocessing"),
        ],
    )
    def test_an_entry_point_loads_no_layer_it_does_not_run(self, module, prefix):
        """The client surface (``repro.service``) imports the wire protocol
        and nothing above it; an in-process run (``execute_spec``) starts no
        pool, so only ``JobExecutor`` imports one."""
        assert self._modules_after([module], prefix) == "[]"

    def test_status_loads_only_the_client(self, tmp_path):
        """``python -m repro status`` imports per subcommand, so asking a
        (here missing) daemon for one line of JSON loads no simulator."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "status",
             "--socket", str(tmp_path / "missing.sock")],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: cannot reach the daemon" in proc.stderr
        loaded = [
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "repro.service.client" in loaded
        assert [m for m in loaded if m.startswith(("repro.simulator", "asyncio"))] == []

    @pytest.mark.parametrize("seeds", ["0", "-1", "two", "1.5"])
    @pytest.mark.parametrize(
        "command",
        [["run"], ["submit", "--socket", "/nonexistent/repro.sock"]],
        ids=["run", "submit"],
    )
    def test_seeds_must_be_positive(self, command, seeds, capsys):
        """Refused at parse time: ``run`` used to run nothing and exit 0,
        ``submit`` to connect before the daemon refused it."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([*command, "figure1-attack", "--seeds", seeds])
        assert exit_info.value.code == 2
        assert "error: argument --seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_profile_top_must_be_positive(self, top, capsys):
        """``--top -3`` used to print every row but the last three (pstats
        slices ``[:-3]``) and ``--top 0`` none."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "figure1-attack", f"--top={top}"])
        assert exit_info.value.code == 2
        assert "error: argument --top" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "beneath-a-file"])
    def test_cache_dir_that_names_a_file_exits_2(self, tmp_path, below):
        """``run --cache-dir <regular file>`` used to run the cell, then die
        storing it with a ``FileExistsError`` traceback and exit 1."""
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "figure1-attack",
             "--duration", "12", "--cache-dir", str(blocker / below)],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: --cache-dir")
        assert "Traceback" not in proc.stderr
        assert blocker.read_text() == "not a directory"

    def test_missing_cache_dir_is_made_on_first_write(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = tmp_path / "a" / "b"
        argv = ["run", "figure8-throughput", "--duration", "5", "--param", "count=1"]
        assert main([*argv, "--cache-dir", str(cache)]) == 0
        assert len(list(cache.glob("*.json"))) == 1

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize(
        "command", [["stats"], ["prune", "--max-bytes", "0"]], ids=["stats", "prune"]
    )
    def test_cache_command_needs_an_existing_directory(self, tmp_path, command, kind, capsys):
        """A mistyped path used to read as an empty cache (``0 entries``,
        ``deleted 0 file(s)``) and exit 0."""
        from repro.__main__ import main

        path = tmp_path / "cache"
        if kind == "file":
            path.write_text("not a directory")
        assert main(["cache", *command, "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --cache-dir")
        assert captured.out == ""


class TestCacheHardening:
    """Torn/corrupt/concurrent cache entries must never poison a run."""

    def _cache_file(self, tmp_path, spec):
        return tmp_path / f"{ResultCache.key(spec)}.json"

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
        import repro.experiments.runner as store_module

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

        both_written = threading.Barrier(2)
        replace = os.replace

        def replace_once_both_wrote(source, target):
            both_written.wait(timeout=10)
            replace(source, target)

        monkeypatch.setattr(os, "replace", replace_once_both_wrote)
        cache = ResultCache(tmp_path)
        key = "0" * 64
        payloads = ["first" * 1000, "second" * 1000]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda output: cache.store_key(key, output), payloads))

        assert (tmp_path / f"{key}.json").read_text() in payloads
        assert list(tmp_path.glob("*.tmp")) == []

    def test_load_key_refuses_keys_that_are_not_content_addresses(self, tmp_path):
        outside = tmp_path / "outside"
        outside.with_suffix(".json").write_text(execute_spec(fast_spec()).to_json())
        cache = ResultCache(tmp_path / "store")
        for key in (str(outside), "../outside", "", "0" * 65, "0" * 63 + "\x00"):
            with pytest.raises(ValueError, match="invalid store key"):
                cache.load_key(key)
        assert cache.load_key("0" * 64) is None

    def test_store_key_round_trips_and_refuses_bad_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_spec(fast_spec())
        key = ResultCache.key(fast_spec())
        cache.store_key(key, result.to_json())
        assert cache.load_key(key).to_json() == result.to_json()
        assert cache.load(fast_spec()).to_json() == result.to_json()
        with pytest.raises(ValueError, match="invalid store key"):
            cache.store_key("../outside", result.to_json())
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{key}.json"]


    def test_store_publishes_under_the_specs_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_spec(fast_spec())
        cache.store(fast_spec(), result.to_json())
        entry = tmp_path / f"{ResultCache.key(fast_spec())}.json"
        assert entry.read_text() == result.to_json()
        assert cache.load(fast_spec()).to_json() == result.to_json()
        assert cache.load(fast_spec(seed=1)) is None
        ResultCache(None).store(fast_spec(), result.to_json())  # no directory: no-op
        assert [path.name for path in tmp_path.iterdir()] == [entry.name]


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
            assert users == ["metrics.py"], (formula, users)

    def test_runner_has_no_planner_of_its_own(self, tmp_path, monkeypatch):
        """One ``plan_cells`` call per run; the jobs executed are its jobs."""
        import repro.experiments.runner as runner_module

        assert not [name for name in vars(ExperimentRunner) if "plan" in name]

        group = [
            scenario_spec(
                "scale-protection",
                audience=200, strategy=strategy, attack_start_s=6.0, duration_s=9.0
            )
            for strategy in ("inflated-join", "key-replay", "join-storm")
        ]
        sharded = scenario_spec(
            "scale-dumbbell-10m",
            receivers=400, cohorts=8, attackers=40, attacker_cohorts=4, regions=2,
            edges_per_region=2, attack_start_s=6.0, duration_s=9.0,
        )
        batch = [fast_spec(), *group, sharded]
        # Planning writes nothing, so the runner below plans against the
        # same (empty) store and must arrive at the very same jobs.
        expected = runner_module.plan_cells(batch, checkpoint_dir=tmp_path)
        assert [plan.warm for plan in expected] == [False, True, True, True, False]
        assert len(expected[1].setup_jobs) == 1 and not expected[2].setup_jobs
        # The sharded cell's two regions are identical: one region job.
        assert not expected[4].setup_jobs and len(expected[4].jobs) == 1

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
        assert (runner.warm_runs, runner.checkpoint_misses) == (3, 1)
        assert [r.to_json() for r in results] == [r.to_json() for r in cold]
        runner.run(batch)  # all cached: nothing left to plan
        assert len(planned) == 1

    @pytest.fixture(scope="class")
    def mixed_batch(self):
        """A cold cell, a two-cell warm group and a 2-region sharded cell,
        with their cold results."""

        batch = [
            fast_spec(3),
            *(
                scenario_spec(
                    "scale-protection",
                    audience=200, strategy=strategy, attack_start_s=6.0, duration_s=9.0
                ).with_seed(3)
                for strategy in ("inflated-join", "key-replay")
            ),
            scenario_spec(
                "scale-dumbbell-10m",
                receivers=400, cohorts=8, attackers=40, attacker_cohorts=4, regions=2,
                edges_per_region=2, attack_start_s=6.0, duration_s=9.0,
            ).with_seed(3),
        ]
        return batch, ExperimentRunner(jobs=1, warm_start=False).run(batch)

    @pytest.mark.parametrize("path", ["in-process", "pool"])
    def test_every_job_kind_is_one_document_run_job_reads(
        self, mixed_batch, path, tmp_path
    ):
        """Every kind of job runs through ``run_job`` alike, in this process
        or on ``JobExecutor`` workers, and ``describe_job`` names each one."""
        from repro.experiments.runner import JobExecutor, describe_job, plan_cells

        batch, cold = mixed_batch
        plans = plan_cells(batch, checkpoint_dir=tmp_path)
        setup = [job for plan in plans for job in plan.setup_jobs]
        jobs = [job for plan in plans for job in plan.jobs]
        kinds = {kind for kind, _ in setup + jobs}
        assert kinds == {"checkpoint", "warm", "spec", "region"}
        if path == "in-process":
            for job in setup:
                run_job(job)
            outputs = [run_job(job) for job in jobs]
        else:
            with JobExecutor(jobs=2) as executor:
                executor.run_all(setup)
                outputs = executor.run_all(jobs)
        results = []
        for plan in plans:
            results.append(plan.merge(outputs[: len(plan.jobs)]))
            outputs = outputs[len(plan.jobs):]
        assert [r.to_json() for r in results] == [r.to_json() for r in cold]

        for kind, payload in setup + jobs:
            description = describe_job((kind, payload))
            assert description.startswith(f"{kind} job") and "(seed 3)" in description
            if kind == "checkpoint":  # shared by cells: named by its barrier
                assert "at the 6.0s barrier" in description
            else:
                name = json.loads(payload)["spec"]["name"]
                assert f"scenario {name!r}" in description


class TestPendingDeduplication:
    """Identical pending specs in one batch run once and fan the result out."""

    def test_duplicates_run_once_serially(self, monkeypatch):
        import repro.experiments.runner as runner_module

        calls = []
        original = runner_module.run_job

        def counting(job):
            calls.append(job)
            return original(job)

        monkeypatch.setattr(runner_module, "run_job", counting)
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
