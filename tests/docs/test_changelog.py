"""CHANGES.md keeps its rule (CONTRIBUTING.md): a PR entry is at most 15 lines
at 100 columns, and the raw runs behind its numbers live in
``benchmarks/results/pairs/PR<n>.json``."""

import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CHANGES = REPO_ROOT / "CHANGES.md"
PAIRS = REPO_ROOT / "benchmarks" / "results" / "pairs"
MAX_LINES = 15
WIDTH = 100


def changelog_entries(text):
    """``[[line, ...], ...]``: each unindented line starts an entry, and the
    indented lines below it continue that entry."""
    entries = []
    for line in text.splitlines():
        if line.startswith("  ") and entries:
            entries[-1].append(line)
        elif line.strip():
            entries.append([line])
    return entries


def test_every_entry_is_a_pr_entry_or_a_finding():
    heads = [lines[0] for lines in changelog_entries(CHANGES.read_text())]
    assert heads
    strays = [head[:60] for head in heads if not re.match(r"(PR \d+\b|FOUND:|MENDED:)", head)]
    assert not strays, f"entries that start neither 'PR <n>' nor a finding: {strays}"


def test_every_pr_entry_fits_fifteen_lines_at_a_hundred_columns():
    entries = [
        lines for lines in changelog_entries(CHANGES.read_text())
        if lines[0].startswith("PR ")
    ]
    too_long = [f"{lines[0][:30]}: {len(lines)} lines" for lines in entries if len(lines) > MAX_LINES]
    too_wide = [
        f"{lines[0][:30]}: a line of {len(line)} columns"
        for lines in entries
        for line in lines
        if len(line) > WIDTH
    ]
    assert not too_long and not too_wide, too_long + too_wide


def test_every_cited_pairs_file_exists_and_names_its_pr():
    cited = set()
    for match in re.finditer(r"pairs/PR(\{[\d,]+\}|\d+)\.json", CHANGES.read_text()):
        cited.update(match.group(1).strip("{}").split(","))
    assert cited
    for path in sorted(PAIRS.glob("PR*.json")):
        number = path.stem[2:]
        assert json.loads(path.read_text())["entry"].startswith(f"PR {number} "), path.name
    missing = sorted(number for number in cited if not (PAIRS / f"PR{number}.json").exists())
    assert not missing, f"CHANGES.md cites pairs files that do not exist: {missing}"
