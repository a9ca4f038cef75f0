"""The batching gate: an exhaustive small model for every decision rule.

This is the registry-wide proof obligation: every decision rule named in
:data:`repro.adversary.spec.BATCHED_DECISION_RULES` — and every public rule
of :mod:`repro.multicast_cc.decision` — must be covered by an exhaustive
model in ``exhaustive.RULE_MODELS``, every registered strategy must declare
its rules, and every model's full cross-product enumeration must pass.  A
new strategy (or rule) that skips the harness fails here before it can ship.
"""

import pytest

from exhaustive import RULE_MODELS, covered_rules, missing_rules
from repro.adversary.registry import ADVERSARIES
from repro.adversary.spec import BATCHED_DECISION_RULES, COHORT_BATCHED_STRATEGIES
from repro.multicast_cc import decision


def test_every_registered_strategy_declares_batched_rules():
    """The registry and the batching contract cover exactly the same names."""
    assert set(ADVERSARIES) == set(BATCHED_DECISION_RULES), (
        "every registered strategy needs an entry in BATCHED_DECISION_RULES "
        "(and stale entries must be dropped with their strategy)"
    )
    assert COHORT_BATCHED_STRATEGIES == frozenset(BATCHED_DECISION_RULES)


def test_every_declared_rule_exists_in_decision_module():
    """BATCHED_DECISION_RULES may only name real repro.multicast_cc.decision rules."""
    for strategy, rules in sorted(BATCHED_DECISION_RULES.items()):
        for rule in rules:
            assert callable(getattr(decision, rule, None)), (
                f"strategy {strategy!r} declares rule {rule!r} which is not a "
                f"function of repro.multicast_cc.decision"
            )


def test_every_declared_rule_is_gated_by_an_exhaustive_model():
    """No batched rule ships without exhaustive small-model coverage."""
    assert missing_rules() == {}, (
        "these strategies declare decision rules no exhaustive model covers — "
        "extend tests/properties/exhaustive.py before shipping the batching: "
        f"{missing_rules()}"
    )


def test_every_public_rule_has_an_exhaustive_model():
    """Every public rule in ``decision.__all__`` is gated by some model."""
    covered = covered_rules()
    rules = [
        name
        for name in decision.__all__
        if not isinstance(getattr(decision, name), type)
    ]
    gaps = [name for name in rules if name not in covered]
    assert not gaps, f"decision rules without an exhaustive model: {gaps}"


@pytest.mark.parametrize("model", RULE_MODELS, ids=lambda model: model.name)
def test_rule_model_exhaustive(model):
    """Run the model's full enumeration; the case floor guards against an
    accidentally empty generator silently passing."""
    cases = model.check()
    assert cases >= model.min_cases, (
        f"model {model.name!r} enumerated only {cases} cases "
        f"(floor {model.min_cases}) — did a generator go empty?"
    )
