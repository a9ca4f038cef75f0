#!/usr/bin/env python3
"""Print one SHA-256 per spec of the scenario catalogue, or per result.

One line ``<name> <sha256 of the canonical spec JSON>`` for every registered
scenario at its defaults, then one line ``<figure>/<cell name>`` per cell of
every registered figure at its default axes.  A refactor that must not move a
spec prints the same lines before and after it::

    python tools/spec_digests.py > before.txt   # on the parent commit
    python tools/spec_digests.py | diff before.txt -

With ``--results`` each line is instead the SHA-256 of the row's result
document, with its run cut to at most :data:`CUT_S` simulated seconds and any
attack onset it declares at half the cut, so the attack runs.  Every row goes
through a serial, cold :class:`~repro.experiments.runner.ExperimentRunner`,
the sharded one included.  ``tests/golden/row_digests.txt`` holds that table,
and ``tests/golden/test_row_digests.py`` compares against it (``--update-golden``
rewrites it)::

    python tools/spec_digests.py --results | diff tests/golden/row_digests.txt -
"""

import hashlib
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import (  # noqa: E402
    ExperimentRunner,
    ScenarioSpec,
    list_figures,
    list_scenarios,
    scenario_entry,
)

#: The longest run, in simulated seconds, a ``--results`` row is given.
CUT_S = 10.0


def digest(text: str) -> str:
    """SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()


def cut(params: Dict[str, Any]) -> Dict[str, Any]:
    """Overrides running a row with defaults ``params`` for at most
    :data:`CUT_S` seconds, its attack (if it declares an onset) from half of it."""
    cut_s = min(params["duration_s"], CUT_S)
    overrides = {"duration_s": cut_s}
    if "attack_start_s" in params:
        overrides["attack_start_s"] = cut_s / 2
    return overrides


def rows(results: bool = False) -> List[Tuple[str, ScenarioSpec]]:
    """``(name, spec)`` per registered scenario and figure cell, cut with
    :func:`cut` when ``results``."""
    found = []
    for entry in list_scenarios():
        found.append((entry.name, entry.build(**(cut(entry.params) if results else {}))))
    for decl in list_figures():
        axes = cut(scenario_entry(decl.scenario).params) if results and decl.scenario else {}
        for spec in decl.cells(**axes):
            found.append((f"{decl.name}/{spec.name}", spec))
    return found


def result_digests() -> List[Tuple[str, str]]:
    """``(name, SHA-256 of the result document)`` per row, cut by :func:`cut`."""
    named = rows(results=True)
    results = ExperimentRunner(jobs=1, warm_start=False).run([spec for _, spec in named])
    return [(name, digest(result.to_json())) for (name, _), result in zip(named, results)]


def main() -> None:
    if sys.argv[1:] == ["--results"]:
        lines = result_digests()
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--results]")
    else:
        lines = [(name, digest(spec.to_json())) for name, spec in rows()]
    for name, sha in lines:
        print(name, sha)


if __name__ == "__main__":
    main()
