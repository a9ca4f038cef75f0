"""Self-tests of the e2e benchmark harness: ``pytest benchmarks/e2e -q``.

Not part of the tier-1 suite (``testpaths`` names ``tests`` only).  They pin
the contract between the code and ``BENCHMARK.json``, the arithmetic the
report relies on, the completeness of the module → layer map, and — through
``--quick`` — that the whole command runs, and fails when bytes move.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from calibrate import SpeedMeter
from traced import PER_LAYER
from tracing import (
    LAYER_MODULES,
    Tracer,
    layer_of_module,
    module_layers,
    module_of_file,
    tail_percentile,
)
from workloads import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_py(*arguments, timeout=170):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_match_the_contract():
    contract = {
        "workloads": [w["name"] for w in CONTRACT["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in CONTRACT["per_layer"]},
    }
    assert contract["workloads"] == list(WORKLOADS)
    assert contract["end_to_end"] == END_TO_END
    assert contract["per_layer"] == PER_LAYER
    for name in [*WORKLOADS, *END_TO_END, *PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def _tracer_with(spans):
    """Build a tracer from ``(name, start, end, parent index)`` tuples."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        record = tracer.add(name, start, end)
        record["parent"] = parent
    return tracer


def test_self_time_is_the_span_minus_its_children():
    tracer = _tracer_with(
        [
            ("request", 0.0, 10.0, None),
            ("engine.run", 1.0, 7.0, 0),       # nested two deep
            ("delta.keys", 2.0, 3.0, 1),
            ("sigma.check", 3.0, 5.0, 1),      # adjacent to the one before
            ("collect.metrics", 7.0, 9.0, 0),  # adjacent to engine.run
        ]
    )
    own = tracer.self_time_by_name()
    assert own == {
        "request": pytest.approx(2.0),
        "engine.run": pytest.approx(3.0),
        "delta.keys": pytest.approx(1.0),
        "sigma.check": pytest.approx(2.0),
        "collect.metrics": pytest.approx(2.0),
    }
    assert sum(own.values()) == pytest.approx(10.0)


def test_context_manager_spans_nest_and_carry_the_cell():
    tracer = Tracer()
    with tracer.span("request", "cell-a") as outer:
        with tracer.span("engine.run", "cell-a") as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["cell"] == "cell-a"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert tracer.total("engine.run") == inner["end"] - inner["start"]


@pytest.mark.parametrize(
    "count, percentile",
    [(5, 50.0), (19, 50.0), (21, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (420, 95.0), (1000, 99.0), (2100, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile):
    values = list(range(1, count + 1))
    chosen, value = tail_percentile(values)
    assert chosen == percentile
    if percentile > 50.0:
        beyond = sum(v > value for v in values)
        assert beyond >= 10
        assert beyond <= count * (100.0 - percentile) / 100.0 + 1


def test_reference_seconds_are_measured_seconds_times_machine_speed():
    meter = SpeedMeter()
    for tick in range(200):  # ten seconds of readings: slow, then fast
        meter.record(tick * 0.05, SpeedMeter.REFERENCE_S / (0.8 if tick < 100 else 1.25))
    assert meter.seconds(1.0, 4.0) == pytest.approx(3.0 * 0.8)
    assert meter.seconds(6.0, 8.0) == pytest.approx(2.0 * 1.25)
    # The same work took 2.5 s on the slow stretch and 1.6 s on the fast one.
    assert meter.seconds(1.0, 3.5) == pytest.approx(meter.seconds(6.0, 7.6))
    # An interval too short to hold readings is judged by the second around it.
    assert meter.scaled([0.002], (7.0, 7.002)) == [pytest.approx(0.0025)]
    with pytest.raises(RuntimeError, match="speed meter"):
        meter.seconds(20.0, 21.0)


# ----------------------------------------------------------------------
# layer map
# ----------------------------------------------------------------------
def test_every_module_of_the_package_has_exactly_one_layer():
    src = (ROOT / "src").resolve()
    modules = {module_of_file(str(path), src) for path in (src / "repro").rglob("*.py")}
    mapped = module_layers()  # raises on a module listed under two layers
    assert modules - set(mapped) == set(), "map these modules to a layer in tracing.py"
    assert set(mapped) - modules == set(), "these modules no longer exist"
    assert sum(len(m) for m in LAYER_MODULES.values()) == len(mapped)


def test_runner_functions_split_across_their_layers():
    runner = "repro.experiments.runner"
    assert layer_of_module(runner, "plan_cell") == "planner"
    assert layer_of_module(runner, "collect_metrics") == "collect"
    assert layer_of_module(runner, "RunResult.to_json") == "collect"
    assert layer_of_module(runner, "JobExecutor.run_all") == "pool"
    assert layer_of_module(runner, "ResultCache.load") == "cache"
    assert layer_of_module("repro.simulator.engine", "Simulator.run") == "engine"
    assert layer_of_module("json.encoder") is None


# ----------------------------------------------------------------------
# the command itself
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scratch():
    """A directory for the tests' own files, inside the ignored results/."""
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=HERE / "results") as path:
        yield Path(path)


@pytest.fixture(scope="module")
def quick_document(scratch):
    out = scratch / "quick.json"
    finished = run_py("--quick", "--out", str(out))
    assert finished.returncode == 0, finished.stdout[-2000:] + finished.stderr[-2000:]
    return json.loads(out.read_text()), finished.stdout


def test_quick_reports_every_promised_pair(quick_document):
    document, stdout = quick_document
    assert set(document["workloads"]) == set(WORKLOADS)
    for workload, block in document["workloads"].items():
        untraced, traced = block["runs"][0], block["traced"]
        assert set(untraced["metrics"]) == set(END_TO_END)
        assert set(traced["metrics"]) == set(PER_LAYER)
        assert untraced["failed"] == 0 and traced["failed"] == 0
        for name in END_TO_END:
            assert untraced["metrics"][name]["value"] > 0, (workload, name)
            assert re.search(rf"^{workload} {re.escape(name)} \S+ \S+", stdout, re.MULTILINE)
        assert re.search(rf"^{workload} failed_frac 0 fraction", stdout, re.MULTILINE)
    assert {"cpus", "J", "python", "numpy", "backend", "platform", "commit", "loadavg_1m"} <= set(
        document["machine"]
    )


def test_quick_leaves_nothing_behind(quick_document):
    work = HERE / ".work"
    assert not work.exists() or list(work.iterdir()) == []


def test_last_line_is_the_contract_object():
    finished = run_py("--workload", "figures", "--trace", "0", "--quick", "--seed", "7")
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())


def test_a_corrupted_digest_fails_the_run(scratch):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["quick"]["figures"]["figure7-defence"] = "0" * 64
    corrupted = scratch / "expected.json"
    corrupted.write_text(json.dumps(expected))
    finished = run_py("--workload", "figures", "--trace", "0", "--quick", "--expected", str(corrupted))
    assert finished.returncode != 0
    assert "MISMATCH figures figure7-defence: differs from expected.json" in finished.stdout
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
