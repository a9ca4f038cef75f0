"""Every script under ``examples/`` runs end to end.

Each example is imported as a module, its ``DURATION_S`` lowered to at most
12 simulated seconds, and its ``main()`` called: an example that no longer
matches the API it demonstrates fails here, not in a reader's terminal.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))
SMOKE_DURATION_S = 12.0


def test_there_are_six_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.smoke
@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DURATION_S", min(module.DURATION_S, SMOKE_DURATION_S))
    module.main()
    assert capsys.readouterr().out.strip()
