#!/usr/bin/env python3
"""Entry point of the e2e benchmark: ``python benchmarks/e2e/run.py --help``.

Puts the checkout's ``src/`` on the import path — never an installed copy of
the package, which would be some other tree — and hands over to
:mod:`bench`.  See ``README.md`` beside this file.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from bench import main

    sys.exit(main())
