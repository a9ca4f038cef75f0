#!/usr/bin/env python3
"""Compare two documents written by ``run.py``, or show the spread of one.

``compare.py A.json B.json`` prints, per workload and end-to-end metric,
both medians and quartiles over the documents' runs, the bound from
``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is — the command exits 1;
``unresolved``  the quartiles of either side lie further apart than the
                bound, so a difference of that size cannot be seen — unless
                every run of B reads better than every run of A.

Documents measured on different ``cpus``, ``J`` or population backend are
refused: their numbers do not describe the same experiment.  With a single
document the table shows each metric's spread against its bound, which is
the repeatability check (``run.py --runs 10`` makes such a document).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from tracing import median_quartiles

ROOT = Path(__file__).resolve().parents[2]
COMPARABLE = ("cpus", "J", "backend")


def metric_table() -> List[Dict[str, Any]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_values(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in document["workloads"][workload]["runs"]]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median, q1, q3 = median_quartiles(values)
    return (q3 - q1) / median


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = median_quartiles(a)[0], median_quartiles(b)[0]
    worsening = sign * (median_b - median_a) / median_a
    if max(spread(a), spread(b)) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if b_always_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def describe(values: Sequence[float]) -> str:
    median, q1, q3 = median_quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    documents = [json.loads(Path(path).read_text()) for path in argv]
    first = documents[0]
    if len(documents) == 2:
        for key in COMPARABLE:
            if first["machine"][key] != documents[1]["machine"][key]:
                print(
                    f"error: not comparable: {key} is {first['machine'][key]!r} in "
                    f"{argv[0]} and {documents[1]['machine'][key]!r} in {argv[1]}"
                )
                return 2
    worse = False
    metrics = metric_table()
    for workload in first["workloads"]:
        if any(workload not in document["workloads"] for document in documents):
            continue
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = run_values(first, workload, name)
            if len(documents) == 1:
                state = "steady" if spread(a) <= bound / 3 else "within" if spread(a) <= bound else "UNSTEADY"
                print(f"{workload} {name} {describe(a)} {metric['unit']} spread={spread(a):.3f} bound={bound} {state}")
                continue
            b = run_values(documents[1], workload, name)
            result = verdict(a, b, bound, metric["better"])
            worse = worse or result == "worse"
            print(f"{workload} {name} A: {describe(a)}  B: {describe(b)} {metric['unit']} bound={bound} {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
