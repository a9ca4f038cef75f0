#!/usr/bin/env python3
"""Render the committed ``BENCH_*.json`` results into ``docs/benchmarks.md``.

Every figure bench under ``benchmarks/`` writes the numbers of its table to
``benchmarks/results/BENCH_<name>.json`` via the ``bench_record`` fixture.
This tool — the only writer of ``docs/benchmarks.md`` — renders them into one
generated gallery page, one section of flattened metrics per bench.  The
documents hold simulated quantities only; speed lives in ``benchmarks/e2e``.

Stdlib-only and deterministic: the page is a pure function of the committed
JSON files, so CI (and ``tests/docs``) can assert freshness by re-rendering
and comparing bytes.

Usage::

    python tools/gen_bench_gallery.py            # (re)write docs/benchmarks.md
    python tools/gen_bench_gallery.py --check    # exit 1 if the page is stale
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
OUTPUT = REPO_ROOT / "docs" / "benchmarks.md"

#: Flattened metric rows rendered per benchmark before eliding the tail —
#: the elision is always announced (never a silent cap).
MAX_ROWS_PER_BENCH = 48

HEADER = """<!-- GENERATED FILE — do not edit.
     Regenerate with: python tools/gen_bench_gallery.py
     (CI re-renders this page from the committed BENCH_*.json files and
     fails when it drifts.) -->

# Benchmark gallery

Rendered from the committed `benchmarks/results/BENCH_*.json` documents —
the reduced-scale figure and ablation tables that
`python -m pytest benchmarks --ignore=benchmarks/e2e` prints.  Every number is
a simulated quantity and a pure function of the code, so a diff on this page
means a figure moved; regenerate with `python tools/gen_bench_gallery.py`.
Wall time, throughput and memory are measured by `benchmarks/e2e` alone (see
[performance.md](performance.md)).
"""


def _fmt(value: Any) -> str:
    """Render one metric leaf deterministically and compactly."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:,.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    if value is None:
        return "—"
    return str(value)


def _flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``dotted.path -> leaf`` pairs in sorted key order."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _flatten(payload[key], path)
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            yield from _flatten(value, f"{prefix}[{index}]")
    else:
        yield prefix, payload


def _load(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def _bench_files() -> List[Path]:
    return sorted(RESULTS_DIR.glob("BENCH_*.json"))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _section(lines: List[str], path: Path, payload: Dict[str, Any]) -> None:
    lines.append(f"## `{path.name}`\n")
    rows = list(_flatten(payload.get("metrics", {})))
    if rows:
        lines.append("| Metric | Value |")
        lines.append("|---|---|")
        for key, value in rows[:MAX_ROWS_PER_BENCH]:
            lines.append(f"| `{key}` | {_fmt(value)} |")
        elided = len(rows) - MAX_ROWS_PER_BENCH
        if elided > 0:
            lines.append(
                f"| … | {elided} more rows elided (see the JSON for the full document) |"
            )
    lines.append("")


def render_gallery() -> str:
    """The full docs/benchmarks.md content as a string."""
    lines: List[str] = [HEADER]
    for path in _bench_files():
        _section(lines, path, _load(path))
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/benchmarks.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)

    content = render_gallery()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_text() != content:
            print(
                f"{OUTPUT.relative_to(REPO_ROOT)} is stale; regenerate with "
                f"`python tools/gen_bench_gallery.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
