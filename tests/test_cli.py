"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.counting import BACKENDS
from repro.data.basket import BasketDatabase
from repro.data.io import write_named_baskets, write_numeric_baskets


@pytest.fixture
def basket_file(tmp_path):
    db = BasketDatabase.from_baskets(
        [["bread", "butter"]] * 40
        + [["bread"]] * 10
        + [["butter"]] * 10
        + [["milk"]] * 20
        + [[]] * 20
    )
    path = tmp_path / "baskets.txt"
    write_named_baskets(db, path)
    return str(path)


class TestMineCommand:
    def test_finds_rules(self, basket_file, capsys):
        code = main(
            ["mine", "--input", basket_file, "--support-count", "5", "--support-fraction", "0.3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bread butter" in out
        assert "|CAND|" in out

    def test_json_output(self, basket_file, capsys):
        import json

        code = main(
            [
                "mine",
                "--input",
                basket_file,
                "--support-count",
                "5",
                "--support-fraction",
                "0.3",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["significance"] == 0.95
        assert any(rule["items"] == ["bread", "butter"] for rule in payload["rules"])

    def test_parallel_backend_matches_default(self, basket_file, capsys):
        """--counting parallel --workers mines the same rules."""
        base_args = [
            "mine", "--input", basket_file,
            "--support-count", "5", "--support-fraction", "0.3", "--json",
        ]
        assert main(base_args) == 0
        default_out = capsys.readouterr().out
        assert (
            main(
                base_args
                + ["--counting", "parallel", "--workers", "1"]
            )
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert parallel_out == default_out

    def test_rejects_zero_workers(self, basket_file, capsys):
        code = main(
            [
                "mine", "--input", basket_file,
                "--counting", "parallel", "--workers", "0",
            ]
        )
        assert code == 1
        assert "workers" in capsys.readouterr().err

    def test_limit(self, basket_file, capsys):
        code = main(
            [
                "mine",
                "--input",
                basket_file,
                "--support-count",
                "5",
                "--support-fraction",
                "0.3",
                "--limit",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "more" in out

    def test_g_statistic_option(self, basket_file, capsys):
        code = main(
            ["mine", "--input", basket_file, "--support-count", "5", "--statistic", "g"]
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code = main(["mine", "--input", "/nonexistent/baskets.txt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_parameters(self, basket_file, capsys):
        code = main(["mine", "--input", basket_file, "--support-fraction", "1.5"])
        assert code == 1


def _subcommand_choices(command: str, flag: str) -> list[str]:
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    )
    sub = subparsers.choices[command]
    return next(action for action in sub._actions if flag in action.option_strings).choices


def test_counting_choices_are_the_registry():
    """``mine`` offers exactly the registered counting backends."""
    assert _subcommand_choices("mine", "--counting") == sorted(BACKENDS)


class TestTelemetryFlags:
    MINE = ["mine", "--support-count", "5", "--support-fraction", "0.3"]

    def test_telemetry_reports_on_stderr_only(self, basket_file, capsys):
        code = main(self.MINE + ["--input", basket_file, "--telemetry"])
        captured = capsys.readouterr()
        assert code == 0
        assert "telemetry run report" in captured.err
        assert "metrics agree with LevelStats" in captured.err
        assert "telemetry run report" not in captured.out
        assert "bread butter" in captured.out

    def test_metrics_out_writes_snapshot_and_run_report(
        self, basket_file, tmp_path, capsys
    ):
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main(
            self.MINE + ["--input", basket_file, "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert set(payload) == {"metrics", "run_report"}
        counters = payload["metrics"]["counters"]
        assert counters['candidates{level="2"}'] > 0
        report = payload["run_report"]
        assert report["reconciliation"] == {"agreed": True, "mismatches": []}
        assert report["levels"][0]["wall_seconds"] > 0.0
        # --metrics-out implies --telemetry: the summary lands on stderr.
        assert "telemetry run report" in capsys.readouterr().err

    def test_trace_out_writes_chrome_trace(self, basket_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            self.MINE + ["--input", basket_file, "--trace-out", str(trace_path)]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"mine", "mine.level", "mine.level.count"} <= names
        assert all(event["ph"] == "X" for event in trace["traceEvents"])

    def test_json_stdout_stays_machine_readable_with_telemetry(
        self, basket_file, tmp_path, capsys
    ):
        import json

        code = main(
            self.MINE
            + [
                "--input",
                basket_file,
                "--json",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)  # no stderr leakage into stdout
        assert "rules" in payload

    def test_log_level_flag(self, basket_file, capsys):
        code = main(
            ["--log-level", "INFO"] + self.MINE + ["--input", basket_file]
        )
        assert code == 0
        with pytest.raises(SystemExit):
            main(["--log-level", "LOUD"] + self.MINE + ["--input", basket_file])


class TestTopKCommand:
    @pytest.fixture
    def quest_file(self, tmp_path, capsys):
        path = str(tmp_path / "quest.dat")
        generate = ["generate", "quest", "--output", path, "--baskets", "400"]
        assert main(generate + ["--items", "30", "--seed", "11"]) == 0
        capsys.readouterr()
        return path

    def test_entries_match_the_unpruned_fptree(self, quest_file, capsys):
        import json

        from repro.core.topk import entries_to_dicts
        from repro.data.io import read_numeric_baskets
        from repro.fptree import FPTreePairEngine
        from repro.service import MiningService

        args = ["topk", "--input", quest_file, "--numeric", "--k", "8"]
        assert main(args + ["--min-cooccurrence", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        db = read_numeric_baskets(quest_file)
        expected = FPTreePairEngine(db).top_k(8, min_cooccurrence=3, prune=False).entries
        assert len(expected) == 8
        assert payload["entries"] == entries_to_dicts(expected, db.vocabulary)
        assert (payload["k"], payload["min_cooccurrence"], payload["n_baskets"]) == (8, 3, 400)
        service = MiningService()
        service.append([["tea", "coffee"]])
        assert set(service.top_k()) == set(payload) | {"generation"}

        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# 400 baskets, 30 items; top 8")
        assert len(lines) == 9

    def test_dropped_flags_are_rejected(self, quest_file, capsys):
        for flag in ("--no-prune", "--telemetry"):
            with pytest.raises(SystemExit):
                main(["topk", "--input", quest_file, "--numeric", flag])
        capsys.readouterr()


class TestAprioriCommand:
    def test_prints_rules(self, basket_file, capsys):
        code = main(
            [
                "apriori",
                "--input",
                basket_file,
                "--min-support",
                "0.1",
                "--min-confidence",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "=>" in out
        assert "frequent itemsets" in out


class TestGenerateCommand:
    def test_generate_quest(self, tmp_path, capsys):
        path = tmp_path / "quest.dat"
        code = main(
            [
                "generate",
                "quest",
                "--output",
                str(path),
                "--baskets",
                "200",
                "--items",
                "50",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote 200 baskets" in out
        from repro.data.io import read_numeric_baskets

        db = read_numeric_baskets(path)
        assert db.n_baskets == 200

    def test_generate_corpus(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        code = main(["generate", "corpus", "--output", str(path), "--seed", "1996"])
        assert code == 0
        from repro.data.io import read_named_baskets

        db = read_named_baskets(path)
        assert db.n_baskets == 91

    def test_generate_census(self, tmp_path, capsys):
        pytest.importorskip("numpy", reason="census generation needs the [fast] extra")
        path = tmp_path / "census.txt"
        code = main(["generate", "census", "--output", str(path)])
        assert code == 0
        from repro.data.io import read_named_baskets

        db = read_named_baskets(path)
        assert db.n_baskets == 30370


class TestNegativeCommand:
    def test_finds_avoidance(self, tmp_path, capsys):
        db = BasketDatabase.from_baskets(
            [["batteries"]] * 30 + [["catfood"]] * 30 + [[]] * 40
        )
        path = tmp_path / "b.txt"
        write_named_baskets(db, path)
        code = main(
            [
                "negative",
                "--input",
                str(path),
                "--min-item-count",
                "20",
                "--max-cooccurrence",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-/->" in out
        assert "batteries" in out and "catfood" in out


class TestDescribeCommand:
    def test_summary(self, basket_file, capsys):
        code = main(["describe", "--input", basket_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "baskets: 100" in out
        assert "most frequent items:" in out

    def test_numeric_input(self, tmp_path, capsys):
        db = BasketDatabase.from_id_baskets([[0, 1], [1]], n_items=3)
        path = tmp_path / "b.dat"
        write_numeric_baskets(db, path)
        code = main(["describe", "--input", str(path), "--numeric"])
        assert code == 0
        assert "baskets: 2" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self, basket_file):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "describe", "--input", basket_file],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "baskets: 100" in result.stdout

    def test_no_command_shows_usage(self):
        with pytest.raises(SystemExit):
            main([])
