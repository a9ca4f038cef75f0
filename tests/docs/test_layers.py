"""The package imports down its documented stack only (``repro.LAYERS``).

Every module of ``src/repro`` falls under one prefix of :data:`repro.LAYERS`,
and no ``import`` in it, at module level or inside a function, names a
module of a higher rank.  The root package holds only the version, the
code digest and the table, so any layer may import it.  The imports a module
runs when it loads form no cycle, so no module is ever read half-initialised.
"""

import ast
import re
from pathlib import Path

import repro
from repro import LAYERS

PACKAGE = Path(repro.__file__).resolve().parent


def layer_of(module):
    """The longest :data:`repro.LAYERS` prefix of ``module``, or ``None``."""
    prefixes = [p for p in LAYERS if module == p or module.startswith(p + ".")]
    return max(prefixes, key=len, default=None)


def modules():
    """``{dotted name: (source path, package the name's relative imports start from)}``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = ["repro", *path.relative_to(PACKAGE).with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
            package = parts
        else:
            package = parts[:-1]
        found[".".join(parts)] = (path, package)
    return found


def loaded(node):
    """``node`` and each node below it that runs when its module loads: not
    a function's body, nor an ``if TYPE_CHECKING:`` block's."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
            for statement in child.orelse:
                yield from loaded(statement)
            continue
        yield from loaded(child)


def imported(path, package, module_level=False):
    """``(line, module)`` for every import in ``path``'s syntax tree, or with
    ``module_level`` for those that run when it loads (:func:`loaded`)."""
    tree = ast.parse(path.read_text(), str(path))
    for node in loaded(tree) if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            if node.module:
                yield node.lineno, ".".join([*base, node.module])
            else:
                for alias in node.names:
                    yield node.lineno, ".".join([*base, alias.name])


def find_cycle(graph):
    """One cycle of ``graph`` (module -> the modules it imports) as
    ``[a, b, ..., a]``, or ``[]`` when it has none (a depth-first search)."""
    on_path, done = [], set()

    def visit(module):
        on_path.append(module)
        for target in sorted(graph.get(module, ())):
            if target in on_path:
                return on_path[on_path.index(target):] + [target]
            if target not in done:
                cycle = visit(target)
                if cycle:
                    return cycle
        done.add(on_path.pop())
        return []

    for module in sorted(graph):
        if module not in done:
            cycle = visit(module)
            if cycle:
                return cycle
    return []


def test_every_module_has_a_layer():
    unplaced = [name for name in modules() if name != "repro" and layer_of(name) is None]
    assert unplaced == []


def test_the_table_follows_the_documented_stack():
    documented = re.findall(r":mod:`(repro\.[\w.]+)`", repro.__doc__)
    assert set(documented) == set(LAYERS)
    ranks = [LAYERS[name] for name in documented]
    assert ranks == sorted(ranks)


def test_no_module_imports_a_higher_layer():
    upward = []
    for name, (path, package) in modules().items():
        own = layer_of(name)
        for line, target in imported(path, package):
            other = layer_of(target)
            if own and other and LAYERS[other] > LAYERS[own]:
                upward.append(f"{path.relative_to(PACKAGE)}:{line} {name} -> {target}")
    assert upward == []


def test_an_upward_import_inside_a_function_is_found(tmp_path):
    """The check reads function bodies, where lazy imports hide."""
    path = tmp_path / "golden.py"
    path.write_text("def digest():\n    from ..experiments.metrics import collect_metrics\n")
    (target,) = [module for _line, module in imported(path, ["repro", "analysis"])]
    assert target == "repro.experiments.metrics"
    assert LAYERS[layer_of(target)] > LAYERS[layer_of("repro.analysis.golden")]


def test_module_level_imports_form_no_cycle():
    """An import names a module, or a name in one (``from .. import
    code_digest`` names ``repro``); a package importing its own submodules
    is no cycle, since importing a submodule loads its package first."""
    found = modules()
    graph = {}
    for name, (path, package) in found.items():
        graph[name] = set()
        for _line, target in imported(path, package, module_level=True):
            while target not in found and "." in target:
                target = target.rpartition(".")[0]
            if target in found and target != name:
                graph[name].add(target)
    cycle = find_cycle(graph)
    assert not cycle, "import cycle: " + " -> ".join(cycle)


def test_a_cycle_is_found_and_lazy_imports_are_not_edges(tmp_path):
    path = tmp_path / "spec.py"
    path.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .scenario import Scenario\n"
        "def build():\n    from .runner import run_job\n"
        "from .registry import register_scenario\n"
    )
    targets = [m for _line, m in imported(path, ["repro", "experiments"], module_level=True)]
    assert targets == ["typing", "repro.experiments.registry"]
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) == []
