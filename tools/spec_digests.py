#!/usr/bin/env python3
"""Print one SHA-256 per spec of the scenario catalogue.

One line ``<name> <sha256 of the canonical spec JSON>`` for every registered
scenario at its defaults, then one line ``<figure>/<cell name>`` per cell of
every registered figure at its default axes.  A refactor that must not move a
spec prints the same lines before and after it::

    python tools/spec_digests.py > before.txt   # on the parent commit
    python tools/spec_digests.py | diff before.txt -
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import list_figures, list_scenarios  # noqa: E402


def digest(spec) -> str:
    """SHA-256 of ``spec``'s canonical JSON."""
    return hashlib.sha256(spec.to_json().encode()).hexdigest()


def main() -> None:
    for entry in list_scenarios():
        print(entry.name, digest(entry.build()))
    for decl in list_figures():
        for spec in decl.cells():
            print(f"{decl.name}/{spec.name}", digest(spec))


if __name__ == "__main__":
    main()
