"""Framework behaviour: suppressions, directive hygiene, reporters, CLI."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import lint, render_json, render_text
from repro.analysis.__main__ import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# -- suppressions -------------------------------------------------------------


def test_documented_suppression_silences_the_violation():
    report = lint(paths=[FIXTURES / "suppression_documented.py"], root=FIXTURES)
    assert report.clean, [v.render() for v in report.violations]


def test_undocumented_suppression_is_reported_as_rpr000():
    report = lint(paths=[FIXTURES / "suppression_undocumented.py"], root=FIXTURES)
    assert [v.rule for v in report.violations] == ["RPR000"]
    assert "justification" in report.violations[0].message
    assert report.exit_code() == 1


def test_stale_suppression_is_reported(tmp_path):
    target = tmp_path / "stale.py"
    target.write_text(
        "x = 1  # replint: disable=RPR006 -- nothing here actually violates\n"
    )
    report = lint(paths=[target], root=tmp_path)
    assert [v.rule for v in report.violations] == ["RPR000"]
    assert "stale" in report.violations[0].message


def test_suppression_on_the_line_above(tmp_path):
    target = tmp_path / "above.py"
    target.write_text(
        "def f(action):\n"
        "    try:\n"
        "        action()\n"
        "    # replint: disable=RPR006 -- demonstration of the comment-above form\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    report = lint(paths=[target], root=tmp_path)
    assert report.clean, [v.render() for v in report.violations]


def test_directive_inside_a_string_is_not_a_suppression(tmp_path):
    target = tmp_path / "stringly.py"
    target.write_text(
        'DOC = "# replint: disable=RPR006 -- not a real directive"\n'
        "def f(action):\n"
        "    try:\n"
        "        action()\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    report = lint(paths=[target], root=tmp_path)
    assert [v.rule for v in report.violations] == ["RPR006"]


def test_unparseable_file_is_reported_not_crashed(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    report = lint(paths=[target], root=tmp_path)
    assert [v.rule for v in report.violations] == ["RPR000"]
    assert "parse" in report.violations[0].message


def test_suppression_naming_a_renamed_rule_is_reported_even_under_select(tmp_path):
    # A directive whose rule id no longer exists (renamed or removed)
    # silences nothing; it is reported regardless of --select/--ignore.
    target = tmp_path / "renamed.py"
    target.write_text(
        "x = 1  # replint: disable=RPR999 -- the rule this silenced was renamed\n"
    )
    report = lint(paths=[target], root=tmp_path, select=["RPR001"])
    assert [v.rule for v in report.violations] == ["RPR000"]
    assert "renamed or removed" in report.violations[0].message


def test_strict_reports_stale_suppressions_under_select(tmp_path):
    target = tmp_path / "stale.py"
    target.write_text(
        "x = 1  # replint: disable=RPR006 -- nothing here actually violates\n"
    )
    # Under a plain --select the directive's rule did run and match
    # nothing, but staleness is only reported when asked for --strict
    # (a rule that simply did not run must not look stale).
    relaxed = lint(paths=[target], root=tmp_path, select=["RPR006"])
    assert relaxed.clean
    strict = lint(paths=[target], root=tmp_path, select=["RPR006"], strict=True)
    assert [v.rule for v in strict.violations] == ["RPR000"]
    assert "stale" in strict.violations[0].message


# -- reporters ----------------------------------------------------------------


def test_text_reporter_mentions_each_violation_and_summary():
    report = lint(paths=[FIXTURES / "rpr006_violation.py"], root=FIXTURES)
    text = render_text(report)
    assert "rpr006_violation.py" in text
    assert "RPR006" in text
    assert "violation(s)" in text


def test_json_reporter_round_trips():
    report = lint(paths=[FIXTURES / "rpr006_violation.py"], root=FIXTURES)
    payload = json.loads(render_json(report))
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    assert payload["counts"]["RPR006"] == len(payload["violations"])
    first = payload["violations"][0]
    assert set(first) == {"path", "line", "col", "rule", "message"}


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes_and_output(capsys):
    bad = str(FIXTURES / "rpr006_violation.py")
    assert main([bad, "--root", str(FIXTURES)]) == 1
    assert "RPR006" in capsys.readouterr().out

    good = str(FIXTURES / "rpr006_clean.py")
    assert main([good, "--root", str(FIXTURES)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_format(capsys):
    bad = str(FIXTURES / "rpr006_violation.py")
    assert main([bad, "--root", str(FIXTURES), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False


def test_cli_select_and_ignore(capsys):
    bad = str(FIXTURES / "rpr006_violation.py")
    assert main([bad, "--root", str(FIXTURES), "--ignore", "RPR006"]) == 0
    capsys.readouterr()
    assert main([bad, "--root", str(FIXTURES), "--select", "RPR001"]) == 0


def test_cli_select_and_ignore_compose(capsys):
    # --select names the universe; --ignore subtracts from it.
    bad = str(FIXTURES / "rpr006_violation.py")
    assert (
        main(
            [
                bad,
                "--root",
                str(FIXTURES),
                "--select",
                "RPR006,RPR007",
                "--ignore",
                "RPR006",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                bad,
                "--root",
                str(FIXTURES),
                "--select",
                "RPR006,RPR007",
                "--ignore",
                "RPR007",
            ]
        )
        == 1
    )
    assert "RPR006" in capsys.readouterr().out


def test_cli_unknown_rule_id_is_a_usage_error(capsys):
    assert main([str(FIXTURES), "--select", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    capsys.readouterr()
    # Same contract for --ignore: a typo must not silently ignore nothing.
    assert main([str(FIXTURES), "--ignore", "RPR999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_strict_flag(tmp_path, capsys):
    target = tmp_path / "stale.py"
    target.write_text(
        "x = 1  # replint: disable=RPR006 -- nothing here actually violates\n"
    )
    base = [str(target), "--root", str(tmp_path), "--select", "RPR006"]
    assert main(base) == 0
    capsys.readouterr()
    assert main([*base, "--strict"]) == 1
    assert "stale" in capsys.readouterr().out


def test_cli_default_cache_and_no_cache(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("def f(x):\n    return x\n")
    assert main(["--root", str(tmp_path)]) == 0
    assert (tmp_path / ".replint-cache.json").exists()
    capsys.readouterr()
    # The warm run reports the reuse in the summary line.
    assert main(["--root", str(tmp_path)]) == 0
    assert "from cache" in capsys.readouterr().out
    (tmp_path / ".replint-cache.json").unlink()
    assert main(["--root", str(tmp_path), "--no-cache"]) == 0
    assert not (tmp_path / ".replint-cache.json").exists()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR005", "RPR006", "RPR012"):
        assert rule_id in out


def test_explicit_directory_inside_excluded_subtree_is_still_linted():
    # The repo-root walk skips tests/analysis/fixtures, but naming a
    # fixture directory on the command line must not silently report
    # clean -- its files are linted as if passed explicitly.
    repo_root = Path(__file__).resolve().parents[2]
    report = lint(paths=[FIXTURES / "rpr012_violation"], root=repo_root)
    assert not report.clean
    assert {v.rule for v in report.violations} == {"RPR012"}

    clean = lint(paths=[FIXTURES / "rpr012_clean"], root=repo_root)
    assert clean.clean
    assert clean.files_checked == 3
