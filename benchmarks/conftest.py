"""Shared settings for the ablation-table harness.

Each bench under this directory regenerates one of the design ablations the
paper argues for and prints its table.  The paper's figure tables are not
here: ``tests/integration/test_paper_claims.py`` runs every registered
figure at reduced scale in the tier-1 suite and holds its
``BENCH_<name>.json`` (see ``docs/paper-to-code.md``).

Run with ``pytest benchmarks --ignore=benchmarks/e2e`` (add ``-s`` to see the
tables).  Each bench writes ``benchmarks/results/BENCH_<name>.json`` through
the ``bench_record`` fixture.  The document holds simulated quantities only —
no wall time, no memory reading — so it is a pure function of the code:
rerunning the harness on an unchanged tree leaves ``git status`` clean, and a
diff in a committed ``BENCH_*.json`` means an ablation moved.  Speed is
measured in one place, ``benchmarks/e2e`` (the contract in
``BENCHMARK.json``).
"""

import pathlib

import pytest

from repro.analysis import write_json

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture
def bench_record(request):
    """Write ``BENCH_<name>.json`` holding the bench's table numbers."""

    def record(metrics):
        bench_name = request.node.name
        if bench_name.startswith("test_"):
            bench_name = bench_name[len("test_"):]
        payload = {"bench": bench_name, "metrics": metrics}
        return write_json(RESULTS_DIR / f"BENCH_{bench_name}.json", payload)

    return record
