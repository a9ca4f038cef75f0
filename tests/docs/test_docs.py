"""Docs-site checks: no broken links, no drift against the code.

The docs tree is plain Markdown; these tests are the "docs build" — they
fail when an internal link dangles, when the CLI reference misses a
subcommand (or documents one that no longer exists), when the paper-to-code
map names a scenario or module that is not actually registered/importable,
and when the scoped public API loses a docstring.
"""

import importlib
import re
import shlex
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

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)#\s]*)(?:#([^)\s]*))?\)")
FENCE_RE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def heading_slugs(text):
    """The anchors GitHub gives the headings of a Markdown page: the
    heading's text without markup, lower-cased, stripped of everything
    but word characters, hyphens and spaces, spaces turned into hyphens,
    and ``-1``, ``-2``, ... appended to repeats."""
    seen = {}
    slugs = set()
    for line in FENCE_RE.sub("", text).splitlines():
        match = re.match(r"#{1,6} (.+)", line)
        if not match:
            continue
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", match.group(1)).replace("`", "")
        slug = re.sub(r"[^\w\- ]", "", title.strip().lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def documented_cli_calls():
    """``(page, argv)`` of every ``python -m repro ...`` command in an ``sh``
    block of the docs, continuation lines joined and comments dropped."""
    calls = []
    for doc in DOC_FILES:
        for language, body in FENCE_RE.findall(doc.read_text()):
            if language != "sh":
                continue
            for line in body.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:3] == ["python", "-m", "repro"]:
                    calls.append((doc.name, words[3:]))
    return calls


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
    """Every relative link in the docs points at an existing file, and a
    ``#fragment`` at a heading of the page it names."""
    for match in LINK_RE.finditer(doc.read_text()):
        target, fragment = match.groups()
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (doc.parent / target).resolve() if target else doc
        assert resolved.exists(), f"{doc.name}: broken link to {target}"
        if fragment is not None:
            assert fragment in heading_slugs(resolved.read_text()), (
                f"{doc.name}: {target or doc.name} has no heading #{fragment}"
            )


def test_heading_slugs_follow_the_github_rule():
    text = "# A `run`: 10M+ (`shards=N`)\n```sh\n# not a heading\n```\n## Twice\n## Twice\n"
    assert heading_slugs(text) == {"a-run-10m-shardsn", "twice", "twice-1"}


@pytest.mark.parametrize(
    "page, argv",
    documented_cli_calls(),
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_documented_cli_calls_parse(page, argv, capsys):
    """Every command an ``sh`` block shows parses with the real parser
    (nothing runs: a ``serve`` would never return).  Synopses, whose
    placeholders are not values, are fenced as ``text``."""
    from repro.__main__ import build_parser

    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{page}: python -m repro {shlex.join(argv)}: {capsys.readouterr().err}")


def test_the_service_page_names_the_protocol_it_documents():
    from repro.service import PROTOCOL_VERSION

    headings = re.findall(r"^## Wire protocol.*$", (DOCS / "service.md").read_text(), re.M)
    assert headings == [f"## Wire protocol (v{PROTOCOL_VERSION})"]


def test_the_docs_show_cli_calls():
    pages = {page for page, _ in documented_cli_calls()}
    assert {"cli.md", "README.md", "service.md"} <= pages


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
    """docs/threat-model.md documents exactly the adversary registry, in the
    taxonomy table *and* in the at-scale table of why each one batches."""
    from repro.adversary import ADVERSARIES

    text = (DOCS / "threat-model.md").read_text()
    for heading in ("| Strategy | Paper taxonomy |", "| Strategy | Why one receiver"):
        table = text[text.index(heading):].split("\n\n", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| [^|\s]", table, flags=re.MULTILINE)
        assert sorted(rows) == sorted(ADVERSARIES), (
            f"threat-model.md table {heading!r} disagrees with the registry"
        )


def test_threat_model_parameter_table_is_the_declarations():
    """The per-strategy parameter table lists every declared parameter with
    its kind and default, and nothing else."""
    from repro.adversary import ADVERSARIES

    text = (DOCS / "threat-model.md").read_text()
    table = text[text.index("| Strategy | Parameter |"):].split("\n\n", 1)[0]
    rows = set(re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \|", table, re.M))
    declared = {
        (name, key, param.kind.__name__, repr(param.default))
        for name, cls in ADVERSARIES.items()
        for key, param in cls.parameters.items()
    }
    assert rows == declared


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
