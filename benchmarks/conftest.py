"""Shared settings for the figure-table harness.

Every bench regenerates one of the paper's evaluation artefacts (a figure
panel or a design ablation) at reduced scale — shorter runs and, for the
sweeps, a subset of the x-axis points — so the whole harness completes in
seconds.  The printed tables show the same rows/series the
paper plots; ``docs/paper-to-code.md`` maps each panel to its scenario and
``tests/integration/test_paper_claims.py`` asserts the paper's headline
claims on them.

Run with ``pytest benchmarks --ignore=benchmarks/e2e`` (add ``-s`` to see the
tables).  Each bench writes ``benchmarks/results/BENCH_<name>.json`` through
the ``bench_record`` fixture.  The document holds simulated quantities only —
no wall time, no memory reading — so it is a pure function of the code:
rerunning the harness on an unchanged tree leaves ``git status`` clean, and a
diff in a committed ``BENCH_*.json`` means a figure moved.  Speed is measured
in one place, ``benchmarks/e2e`` (the contract in ``BENCHMARK.json``).
"""

import pathlib

import pytest

from repro.analysis import write_json
from repro.experiments import PAPER_DEFAULTS

#: Shortened experiment configuration used by every figure bench.
BENCH_DURATION_S = 60.0

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def bench_config():
    return PAPER_DEFAULTS.with_duration(BENCH_DURATION_S)


@pytest.fixture
def bench_record(request):
    """Write ``BENCH_<name>.json`` holding the bench's figure numbers."""

    def record(metrics):
        bench_name = request.node.name
        if bench_name.startswith("test_"):
            bench_name = bench_name[len("test_"):]
        payload = {"bench": bench_name, "metrics": metrics}
        return write_json(RESULTS_DIR / f"BENCH_{bench_name}.json", payload)

    return record
