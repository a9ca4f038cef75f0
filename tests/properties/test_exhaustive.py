"""The registry gate: an exhaustive small model for every decision the code makes.

Every registered strategy must have a model in ``exhaustive.RULE_MODELS``
(which drives the registered class through a recording context), no model
may name an unregistered strategy, and every model's full cross-product
enumeration must pass.  A new strategy that skips the harness fails here
before it can ship.
"""

import pytest

from exhaustive import RULE_MODELS, strategy_models
from repro.adversary.registry import ADVERSARIES


def test_every_registered_strategy_has_a_model():
    """No registered strategy ships without an exhaustive model."""
    missing = sorted(set(ADVERSARIES) - set(strategy_models()))
    assert not missing, (
        "these strategies have no exhaustive model — extend "
        f"tests/properties/exhaustive.py before shipping them: {missing}"
    )


def test_no_model_names_an_unregistered_strategy():
    """Stale models go with their strategy (``core:`` models drive the
    honest receiver and the shared machinery)."""
    stale = sorted(set(strategy_models()) - set(ADVERSARIES))
    assert not stale, f"models of unregistered strategies: {stale}"


@pytest.mark.parametrize("model", RULE_MODELS, ids=lambda model: model.name)
def test_rule_model_exhaustive(model):
    """Run the model's full enumeration; the case floor guards against an
    accidentally empty generator silently passing."""
    cases = model.check()
    assert cases >= model.min_cases, (
        f"model {model.name!r} enumerated only {cases} cases "
        f"(floor {model.min_cases}) — did a generator go empty?"
    )
