"""The acceptance gate: the repository itself lints clean.

Runs the full rule set over the working tree exactly as ``make lint``
does.  Because undocumented and stale suppressions surface as RPR000
violations, a clean report simultaneously proves there are zero
unjustified escapes anywhere in the tree.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repository_lints_clean():
    report = lint(root=REPO_ROOT)
    assert report.files_checked > 100, "walk found suspiciously few files"
    assert report.clean, "\n".join(v.render() for v in report.violations)


def test_fixture_tree_is_excluded_from_the_walk():
    report = lint(root=REPO_ROOT)
    assert report.clean
    # the walk saw no fixture file, or the violating ones would have fired
    fixture_prefix = "tests/analysis/fixtures"
    assert all(not v.path.startswith(fixture_prefix) for v in report.violations)
