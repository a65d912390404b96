"""Render a :class:`~repro.analysis.framework.LintReport` for humans or CI.

Two machine formats ride alongside the human text: ``json`` (the
project's own schema, for ad-hoc tooling) and the rule catalogue for
``--list-rules``.
"""

from __future__ import annotations

import json

from repro.analysis.framework import REGISTRY, LintReport

__all__ = ["render_text", "render_json", "render_rule_list"]


def render_text(report: LintReport) -> str:
    """One ``path:line:col: RULE message`` line per violation + a summary."""
    lines = [violation.render() for violation in report.violations]
    reused = report.files_checked - report.files_reanalyzed
    cache_note = (
        f" ({reused} unchanged, from cache)"
        if 0 < reused and report.files_reanalyzed == 0
        else ""
    )
    if report.clean:
        lines.append(f"replint: {report.files_checked} files clean{cache_note}")
    else:
        per_rule = ", ".join(
            f"{rule}={count}" for rule, count in report.counts().items()
        )
        lines.append(
            f"replint: {len(report.violations)} violation(s) in "
            f"{report.files_checked} files ({per_rule})"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report for CI annotation tooling."""
    payload = {
        "files_checked": report.files_checked,
        "clean": report.clean,
        "counts": report.counts(),
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule,
                "message": violation.message,
            }
            for violation in report.violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The registered rules with their one-line rationales."""
    lines = []
    for rule_id in sorted(REGISTRY):
        rule = REGISTRY[rule_id]
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"      {rule.rationale}")
    return "\n".join(lines)
