"""Rule registry of the :mod:`repro.lint` engine.

Every rule is a :class:`~repro.lint.rules.base.Rule` subclass with a
stable ``id``, the key of its ``# repro: allow(<id>): reason``
suppressions.  ``default_rules()`` builds the production rule set;
tests instantiate individual rules directly.
"""

from __future__ import annotations

from typing import List

from repro.lint.rules.base import Rule
from repro.lint.rules.deadlines import DeadlineLoopRule, DeadlinePropagationRule
from repro.lint.rules.resources import ResourceLeakRule
from repro.lint.rules.syntactic import (
    CounterNamespaceRule,
    NoForkRule,
    NoWallclockRule,
    SeededRngRule,
)
from repro.lint.rules.taint import SoundnessTaintRule
from repro.lint.rules.taxonomy import ErrorTaxonomyRule

__all__ = [
    "Rule",
    "default_rules",
    "CounterNamespaceRule",
    "DeadlineLoopRule",
    "DeadlinePropagationRule",
    "ErrorTaxonomyRule",
    "NoForkRule",
    "NoWallclockRule",
    "ResourceLeakRule",
    "SeededRngRule",
    "SoundnessTaintRule",
]


def default_rules() -> List[Rule]:
    """The production rule set, in reporting order."""
    return [
        DeadlineLoopRule(),
        DeadlinePropagationRule(),
        SeededRngRule(),
        CounterNamespaceRule(),
        NoWallclockRule(),
        NoForkRule(),
        SoundnessTaintRule(),
        ResourceLeakRule(),
        ErrorTaxonomyRule(),
    ]
