"""Shared test options and fixtures.

``--update-golden`` regenerates the golden-trace digests under
``tests/golden/`` instead of comparing against them:

    python -m pytest tests/golden --update-golden

``backend`` runs a test once per population column backend.
"""

import pytest

from repro.multicast_cc.population import numpy_available


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-trace digest files instead of asserting them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


@pytest.fixture(params=("numpy", "fallback"))
def backend(request) -> str:
    """Each population column backend, by name.

    The numpy leg skips when numpy is genuinely absent (which is how the CI
    fallback job runs the suites).  Function-scoped and listed after a
    test's other parametrised fixtures, so ids read ``[<case>-<backend>]``.
    """
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy not importable in this environment")
    return request.param
