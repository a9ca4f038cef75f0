"""One result digest per registered row: every scenario and figure cell.

The goldens beside this file guard 16 scenarios through readable digests; this
table guards all of them, and every figure cell, through one SHA-256 of each
row's result document (``tools/spec_digests.py --results``: each run cut to at
most 10 simulated seconds, any attack from half of that).  A change that must
not move a result leaves ``row_digests.txt`` as it is; a fix that moves some is
read off the diff, row by row.  Regenerate after an *intentional* change with::

    python -m pytest tests/golden/test_row_digests.py --update-golden
"""

import importlib.util
from pathlib import Path

TABLE = Path(__file__).parent / "row_digests.txt"
TOOL = Path(__file__).resolve().parents[2] / "tools" / "spec_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("spec_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_reproduces_its_result_digest(update_golden):
    table = "".join(f"{name} {sha}\n" for name, sha in load_tool().result_digests())
    if update_golden:
        TABLE.write_text(table)
    stored = dict(line.split() for line in TABLE.read_text().splitlines())
    current = dict(line.split() for line in table.splitlines())
    moved = sorted(name for name in stored.keys() | current.keys()
                   if stored.get(name) != current.get(name))
    assert not moved, (
        f"{len(moved)} row result(s) moved: {moved}; if intentional, rerun with "
        "--update-golden"
    )
    assert TABLE.read_text() == table
