"""Fixture-driven checks: every RPR rule flags its violating fixture and
passes its clean twin, and the drift rule cross-checks file trios."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import REGISTRY, lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MODULE_RULES = [
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR005",
    "RPR006",
    "RPR007",
    "RPR008",
    "RPR009",
    "RPR010",
    "RPR011",
    "RPR013",
]


def lint_fixture(name: str, select: list[str] | None = None):
    return lint(paths=[FIXTURES / name], root=FIXTURES, select=select)


@pytest.mark.parametrize("rule_id", MODULE_RULES)
def test_violating_fixture_is_flagged(rule_id: str):
    report = lint_fixture(f"{rule_id.lower()}_violation.py", select=[rule_id])
    assert not report.clean, f"{rule_id} missed its violating fixture"
    assert {v.rule for v in report.violations} == {rule_id}
    assert report.exit_code() == 1


@pytest.mark.parametrize("rule_id", MODULE_RULES)
def test_clean_fixture_passes(rule_id: str):
    report = lint_fixture(f"{rule_id.lower()}_clean.py", select=[rule_id])
    assert report.clean, [v.render() for v in report.violations]
    assert report.exit_code() == 0


@pytest.mark.parametrize("rule_id", MODULE_RULES)
def test_violating_fixture_fails_under_full_rule_set(rule_id: str):
    """Acceptance criterion: the unrestricted linter rejects each fixture."""
    report = lint_fixture(f"{rule_id.lower()}_violation.py")
    assert rule_id in {v.rule for v in report.violations}
    assert report.exit_code() == 1


def test_rpr009_catches_the_seeded_borrowed_segment_leak():
    """Acceptance: the segment passed to a helper (borrowed, not
    transferred) and never released is flagged as a leak."""
    report = lint_fixture("rpr009_violation.py", select=["RPR009"])
    messages = [v.message for v in report.violations]
    assert any(
        "shared-memory segment 'shm' is not released" in message
        for message in messages
    )
    # The exception-edge variant is distinguished from the normal-path one.
    assert any("leaks if line" in message for message in messages)
    # And the span sub-check fires for discarded and never-entered spans.
    assert any("discarded" in message for message in messages)
    assert any("never entered" in message for message in messages)


def test_rpr010_names_the_producer_in_the_message():
    report = lint_fixture("rpr010_violation.py", select=["RPR010"])
    assert any("occupied_cells()" in v.message for v in report.violations)
    assert any("dict returned by" in v.message for v in report.violations)


def test_rpr011_catches_the_seeded_lock_capture_and_the_global_backdoor():
    """Acceptance: a lock in the task payload is flagged, and so is a
    task that reaches a module-global lock through the call graph."""
    report = lint_fixture("rpr011_violation.py", select=["RPR011"])
    messages = [v.message for v in report.violations]
    assert any(
        "'lock' (synchronization primitive) is captured" in message
        for message in messages
    )
    assert any("'self._log' (open file handle)" in message for message in messages)
    assert any(
        "reads module-global '_STATE_LOCK'" in message for message in messages
    )


def test_rpr012_flags_drifted_trio():
    report = lint_fixture("rpr012_violation", select=["RPR012"])
    flagged = {v.path.rsplit("/", 1)[-1] for v in report.violations}
    # The API kept a renamed parameter; the CLI advertises a lost flag.
    assert flagged == {"mining.py", "cli.py"}
    assert any("min_confidence" in v.message for v in report.violations)
    assert any("--chi2-cutoff" in v.message for v in report.violations)


def test_rpr012_passes_consistent_trio():
    report = lint_fixture("rpr012_clean", select=["RPR012"])
    assert report.clean, [v.render() for v in report.violations]


def test_rpr001_violation_line_numbers_point_at_the_comparison():
    report = lint_fixture("rpr001_violation.py", select=["RPR001"])
    source = (FIXTURES / "rpr001_violation.py").read_text().splitlines()
    for violation in report.violations:
        assert "==" in source[violation.line - 1] or "!=" in source[violation.line - 1]


def test_rule_scoping_walked_vs_explicit():
    """dir_scope binds tree walks but never explicitly-passed files."""
    rpr001 = REGISTRY["RPR001"]
    assert rpr001.applies_to("src/repro/stats/chi2.py")
    assert rpr001.applies_to("src/repro/core/correlation.py")
    assert not rpr001.applies_to("tests/stats/test_chi2.py")
    assert rpr001.applies_to("tests/stats/test_chi2.py", explicit=True)

    rpr002 = REGISTRY["RPR002"]
    assert rpr002.applies_to("src/repro/data/ipf.py")
    # kernels/ is the NumPy home; exempt even when passed explicitly.
    assert not rpr002.applies_to("src/repro/kernels/sweep.py")
    assert not rpr002.applies_to("src/repro/kernels/sweep.py", explicit=True)
