#!/usr/bin/env python3
"""Docstring checker for the public API surface.

The docs site autogenerates nothing it cannot back with a real docstring, so
this checker enforces — with only the standard library, because the repro
container installs no linters — that every *public* module, class, function
and method in the scoped modules is docstringed.  CI additionally runs
ruff's pydocstyle (D) rules over the same scope; this script is the
guarantee that also runs inside the tier-1 suite (``tests/docs``).

Scope and rules
---------------
* Scoped files: the engine and simulator substrate, the TCP sender whose
  retransmission timer leans on the engine's cancellation contract, the
  experiment declaration layer (spec, interpreter, scenario catalogue) and
  runner, and the adversary strategy protocol (see ``SCOPED``).
* A name is public unless it starts with ``_`` (dunders other than
  ``__call__`` are exempt, as are trivial overrides explicitly marked with
  an inline ``# noqa: docstring`` comment — there are currently none).
* Nested (function-local) definitions are exempt.

Usage::

    python tools/check_docstrings.py            # check, exit 1 on findings
    python tools/check_docstrings.py --list     # print the scoped files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: Files whose public surface must be fully documented (ISSUE 3 scope:
#: simulator.engine, experiments.spec/runner, adversary.strategy — plus the
#: rest of the simulator substrate the docs site leans on).
SCOPED: Tuple[str, ...] = (
    "simulator/engine.py",
    "simulator/packet.py",
    "simulator/link.py",
    "simulator/queues.py",
    "simulator/node.py",
    "simulator/multicast.py",
    "simulator/monitors.py",
    "simulator/igmp.py",
    "experiments/spec.py",
    "experiments/scenario.py",
    "experiments/runner.py",
    "experiments/attacks.py",
    "experiments/scale.py",
    "experiments/shard.py",
    "experiments/warmstart.py",
    "transport/tcp.py",
    "adversary/strategy.py",
    "adversary/receivers.py",
    "multicast_cc/decision.py",
    "multicast_cc/churn.py",
    "multicast_cc/population.py",
    "multicast_cc/receiver_base.py",
    "multicast_cc/sender_base.py",
    "multicast_cc/replicated.py",
    "multicast_cc/flid_dl.py",
    "multicast_cc/flid_ds.py",
    "service/protocol.py",
    "service/pool.py",
    "service/jobs.py",
    "service/server.py",
    "service/client.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__call__"


def _iter_definitions(
    tree: ast.Module,
) -> Iterator[Tuple[str, "ast.AST"]]:
    """Yield (qualified name, node) for module-level and class-level defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if not _is_public(node.name):
                continue
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_public(child.name):
                        yield f"{node.name}.{child.name}", child


def check_file(path: Path) -> List[str]:
    """Return human-readable findings for one file (empty = clean)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    findings: List[str] = []
    relative = path.relative_to(REPO_ROOT)
    if ast.get_docstring(tree) is None:
        findings.append(f"{relative}:1 module is missing a docstring")
    for name, node in _iter_definitions(tree):
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            findings.append(
                f"{relative}:{node.lineno} public {kind} `{name}` is missing a docstring"
            )
    return findings


def main(argv: List[str]) -> int:
    """Run the checker over the scoped files; exit non-zero on findings."""
    paths = [SRC / rel for rel in SCOPED]
    if "--list" in argv:
        for path in paths:
            print(path.relative_to(REPO_ROOT))
        return 0
    findings: List[str] = []
    for path in paths:
        if not path.exists():
            findings.append(f"scoped file {path.relative_to(REPO_ROOT)} does not exist")
            continue
        findings.extend(check_file(path))
    if findings:
        print(f"{len(findings)} docstring finding(s):")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print(f"docstrings OK across {len(paths)} scoped files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
