"""The package imports down its documented stack only (``repro.LAYERS``).

Every module of ``src/repro`` falls under one prefix of :data:`repro.LAYERS`,
and no ``import`` in it, at module level or inside a function, names a
module of a higher rank.  The root package holds only the version, the
code digest and the table, so any layer may import it.
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


def imported(path, package):
    """``(line, module)`` for every import in ``path``'s syntax tree."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
