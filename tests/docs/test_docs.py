"""Docs-site checks: no broken links, no drift against the code.

The docs tree is plain Markdown; these tests are the "docs build" — they
fail when an internal link dangles, when the CLI reference misses a
subcommand (or documents one that no longer exists), when the paper-to-code
map names a scenario or module that is not actually registered/importable,
and when the scoped public API loses a docstring.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"

DOC_FILES = sorted(DOCS.glob("*.md")) + [
    REPO_ROOT / "README.md",
    REPO_ROOT / "CONTRIBUTING.md",
]

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")


def test_docs_tree_exists():
    """The pages the index promises are all present."""
    for name in (
        "index",
        "architecture",
        "paper-to-code",
        "threat-model",
        "cli",
        "scale",
        "determinism",
        "performance",
        "benchmarks",
    ):
        assert (DOCS / f"{name}.md").exists(), f"docs/{name}.md missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    """Every relative link in the docs points at an existing file."""
    for match in LINK_RE.finditer(doc.read_text()):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (doc.parent / target).resolve()
        assert resolved.exists(), f"{doc.name}: broken link to {target}"


def test_cited_files_exist():
    """Every `*.md`/`*.py`/`*.json` file the docs cite in backticks, and
    every ``NAME.md`` the package source cites, is on disk — a deletion or a
    planned-but-unwritten document must not leave citations behind.

    A citation may be repo-relative (``benchmarks/e2e/README.md``),
    package-relative (``transport/tcp.py``) or a bare file name
    (``expected.json``), so it resolves when it is a path suffix of a file
    in the tree; templates (``<scenario>-runs.json``) and globs
    (``BENCH_*.json``) are not file names and are skipped.
    """
    on_disk = [
        path.relative_to(REPO_ROOT).as_posix()
        for pattern in ("*.md", "*.py", "*.json")
        for path in REPO_ROOT.rglob(pattern)
        if not any(part.startswith(".") for part in path.relative_to(REPO_ROOT).parts)
    ]

    def resolves(cited: str) -> bool:
        return any(f == cited or f.endswith("/" + cited) for f in on_disk)

    cited_in_docs = re.compile(r"`([\w./-]+\.(?:md|py|json))`")
    cited_in_source = re.compile(r"\b([A-Z_]+\.md)\b")
    dangling = sorted({
        f"{source.relative_to(REPO_ROOT)}: {match.group(1)}"
        for sources, pattern in (
            (DOC_FILES, cited_in_docs),
            (sorted((REPO_ROOT / "src" / "repro").rglob("*.py")), cited_in_source),
        )
        for source in sources
        for match in pattern.finditer(source.read_text())
        if not resolves(match.group(1))
    })
    assert not dangling, "citations of files that do not exist:\n" + "\n".join(dangling)


def test_cli_reference_covers_every_subcommand():
    """docs/cli.md documents exactly the registered subcommands."""
    from repro.__main__ import build_parser

    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    )
    registered = set(subparsers.choices)
    text = (DOCS / "cli.md").read_text()
    documented = set(re.findall(r"^## `([a-z-]+)`", text, flags=re.MULTILINE))
    assert documented == registered, (
        f"cli.md drift: documented={sorted(documented)} registered={sorted(registered)}"
    )


def test_paper_to_code_scenarios_exist():
    """Every backticked scenario name in the map is actually registered."""
    from repro.experiments import list_scenarios

    registered = {entry.name for entry in list_scenarios()}
    text = (DOCS / "paper-to-code.md").read_text()
    mentioned = set(re.findall(r"`([a-z0-9-]+)`", text)) & {
        name for name in re.findall(r"`([a-z0-9-]+)`", text) if "-" in name
    }
    # Only claims shaped like scenario names are checked against the registry.
    claimed = {name for name in mentioned if name in registered or name.startswith(("figure", "attack", "parking", "star", "tree"))}
    missing = {name for name in claimed if name not in registered}
    assert not missing, f"paper-to-code.md names unregistered scenarios: {sorted(missing)}"
    # And the flagship mappings must be present.
    for required in ("figure1-attack", "figure7-defence", "figure8-throughput", "figure9-measured-overhead"):
        assert required in text, f"paper-to-code.md lost the {required} mapping"


def test_paper_to_code_modules_importable():
    """Every `repro.*` dotted module path named in the map imports."""
    text = (DOCS / "paper-to-code.md").read_text()
    modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
    assert modules, "paper-to-code.md should reference repro modules"
    for dotted in sorted(modules):
        parts = dotted.split(".")
        # Strip a trailing attribute (class/function) if the module import fails.
        try:
            importlib.import_module(dotted)
        except ImportError:
            module = importlib.import_module(".".join(parts[:-1]))
            assert hasattr(module, parts[-1]), f"{dotted} does not resolve"


def test_threat_model_covers_every_registered_strategy():
    """docs/threat-model.md documents each adversary registry entry — in the
    taxonomy table *and* in the scale-limits (batches exactly?) table."""
    from repro.adversary import ADVERSARIES, COHORT_BATCHED_STRATEGIES

    text = (DOCS / "threat-model.md").read_text()
    for name in ADVERSARIES:
        assert f"`{name}`" in text, f"threat-model.md misses strategy {name!r}"
    # The batch-exact verdicts in the scale-limits table match the enforced
    # constant (each strategy appears in two tables; the verdict column of
    # the scale-limits one starts with "yes" or "no").
    for name in ADVERSARIES:
        expected = "yes" if name in COHORT_BATCHED_STRATEGIES else "no"
        columns = [
            match.strip()
            for match in re.findall(
                rf"^\| `{re.escape(name)}` \| ([^|]+) \|", text, flags=re.MULTILINE
            )
        ]
        verdicts = [c for c in columns if c.startswith(("yes", "no"))]
        assert verdicts, f"threat-model.md has no scale-limits row for {name!r}"
        assert all(v.startswith(expected) for v in verdicts), (
            f"threat-model.md scale-limits verdict for {name!r} disagrees "
            f"with COHORT_BATCHED_STRATEGIES"
        )


def test_bench_gallery_is_fresh():
    """docs/benchmarks.md matches the committed BENCH_*.json documents.

    The gallery is generated (`tools/gen_bench_gallery.py`); on a clean
    checkout re-rendering it must reproduce the committed page byte for
    byte.  After rerunning benchmarks locally, regenerate the page.
    """
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "gen_bench_gallery.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr or result.stdout


def test_public_api_docstrings():
    """The stdlib docstring checker stays green (CI also runs ruff D-rules)."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docstrings.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, f"docstring findings:\n{result.stdout}"
