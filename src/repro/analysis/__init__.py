"""replint: the project's AST-based invariant checker.

Run it over the tree with ``make lint`` or directly::

    PYTHONPATH=src python -m repro.analysis [paths ...] [--format json]

See :mod:`repro.analysis.framework` for the rule/suppression model and
``docs/static_analysis.md`` for the catalogue of rules and the paper
invariants each one protects.
"""

from repro.analysis import rules  # noqa: F401 - registers the rule set
from repro.analysis.framework import (
    META_RULE_ID,
    REGISTRY,
    LintModule,
    LintReport,
    Rule,
    Suppression,
    Violation,
    lint,
    register,
)
from repro.analysis.reporters import (
    render_json,
    render_rule_list,
    render_text,
)

__all__ = [
    "META_RULE_ID",
    "REGISTRY",
    "LintModule",
    "LintReport",
    "Rule",
    "Suppression",
    "Violation",
    "lint",
    "register",
    "render_json",
    "render_rule_list",
    "render_text",
]
