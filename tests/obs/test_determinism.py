"""End-to-end telemetry guarantees the observability layer advertises.

Two gates from the issue:

1. **Determinism** — with a :class:`FakeClock` injected, two identical
   mining runs export byte-identical JSON traces and metrics snapshots.
2. **Exact reconciliation** — the metric counters the instrumented
   miner maintains agree *exactly* with its independently-computed
   ``LevelStats`` on the Quest and census databases, for every counting
   backend.

Plus the golden-fixture safety net: attaching telemetry must not change
the serialized shape of a mining result.
"""

from __future__ import annotations

import pytest

from repro.core.mining import mine_correlations
from repro.core.report import mining_result_to_dict
from repro.counting import BACKENDS
from repro.data.quest import QuestParameters, generate_quest
from repro.obs import FakeClock, Telemetry

COUNTING_BACKENDS = sorted(BACKENDS)

QUEST = QuestParameters(n_transactions=800, n_items=40, n_patterns=25, seed=7)


@pytest.fixture(scope="module")
def quest_db():
    return generate_quest(QUEST)


def mine_with_fake_clock(db, counting="bitmap", **kwargs):
    telemetry = Telemetry.create(clock=FakeClock(start=0.0, tick=0.001))
    result = mine_correlations(
        db,
        significance=0.95,
        support_count=5,
        support_fraction=0.4,
        counting=counting,
        telemetry=telemetry,
        **kwargs,
    )
    return telemetry, result


class TestDeterminism:
    def test_identical_runs_export_identical_json(self, quest_db):
        first, _ = mine_with_fake_clock(quest_db)
        second, _ = mine_with_fake_clock(quest_db)
        assert first.tracer.to_json() == second.tracer.to_json()
        assert first.tracer.to_chrome_json() == second.tracer.to_chrome_json()
        assert first.metrics.to_json() == second.metrics.to_json()

    def test_identical_runs_render_identical_reports(self, quest_db):
        first, result_a = mine_with_fake_clock(quest_db)
        second, result_b = mine_with_fake_clock(quest_db)
        assert first.render_summary(result_a.level_stats) == second.render_summary(
            result_b.level_stats
        )
        assert first.run_report(result_a.level_stats) == second.run_report(
            result_b.level_stats
        )

    def test_fake_clock_populates_level_timings(self, quest_db):
        _, result = mine_with_fake_clock(quest_db)
        assert result.level_stats
        for stats in result.level_stats:
            assert stats.wall_seconds > 0.0
            assert 0.0 < stats.counting_seconds <= stats.wall_seconds


class TestReconciliation:
    @pytest.mark.parametrize("counting", COUNTING_BACKENDS)
    def test_quest_counters_match_level_stats_exactly(self, quest_db, counting):
        kwargs = {"workers": 2} if counting == "parallel" else {}
        telemetry, result = mine_with_fake_clock(quest_db, counting=counting, **kwargs)
        assert telemetry.reconcile(result.level_stats) == []
        report = result.run_report()
        assert report["reconciliation"] == {"agreed": True, "mismatches": []}
        assert report["totals"]["candidates"] == sum(
            stats.candidates for stats in result.level_stats
        )

    @pytest.mark.parametrize("counting", COUNTING_BACKENDS)
    def test_census_counters_match_level_stats_exactly(self, census_db, counting):
        telemetry = Telemetry.create(clock=FakeClock())
        result = mine_correlations(
            census_db,
            significance=0.95,
            support_count=100,
            support_fraction=0.26,
            max_level=3,
            counting=counting,
            workers=2 if counting == "parallel" else None,
            telemetry=telemetry,
        )
        assert telemetry.reconcile(result.level_stats) == []
        assert "metrics agree with LevelStats" in result.render_telemetry()


class TestGoldenSafety:
    def test_serialized_result_shape_ignores_telemetry(self, quest_db):
        plain = mine_correlations(
            quest_db, significance=0.95, support_count=5, support_fraction=0.4
        )
        _, instrumented = mine_with_fake_clock(quest_db)
        plain_dict = mining_result_to_dict(plain)
        instrumented_dict = mining_result_to_dict(instrumented)
        # Identical content, not just identical keys: the golden fixtures
        # must never notice whether a run was instrumented.
        assert plain_dict == instrumented_dict
        assert set(plain_dict["levels"][0]) == {
            "level",
            "lattice_itemsets",
            "candidates",
            "discarded",
            "significant",
            "not_significant",
        }

    def test_default_result_carries_the_null_bundle(self, quest_db):
        result = mine_correlations(
            quest_db, significance=0.95, support_count=5, support_fraction=0.4
        )
        assert result.telemetry.enabled is False
        assert result.run_report()["enabled"] is False
        assert "telemetry disabled" in result.render_telemetry()
