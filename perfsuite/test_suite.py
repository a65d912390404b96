"""Self-checks of the benchmark, on small inputs (well under a minute).

Run with ``python -m pytest perfsuite/test_suite.py``; they carry the
``bench`` marker.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from perfsuite import datasets, ledger, mining, run, service
from perfsuite.common import ROOT, Outcome

pytestmark = pytest.mark.bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_quest(rng: random.Random):
    from repro.data.basket import BasketDatabase
    from repro.data.quest import QuestParameters, generate_quest

    base = generate_quest(QuestParameters(n_transactions=400, n_items=20, seed=7))
    baskets = list(base)
    rng.shuffle(baskets)
    return BasketDatabase(baskets, base.vocabulary)


TINY = datasets.MiningWorkload(3, _tiny_quest, datasets.ALL_BACKENDS)


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declaration_is_well_formed():
    declared = _declared()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in declared[kind]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for kind in ("end_to_end", "per_layer"):
        for metric in declared[kind]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    assert all(m["bound"] > 0 for m in declared["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    declared = _declared()
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    workloads = {w["name"] for w in declared["workloads"]}
    targets = json.loads((ROOT / "perfsuite" / "layer_targets.json").read_text())
    grouped = [name for group in targets["groups"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(m["name"] for m in declared["per_layer"])
    for group in targets["groups"]:
        assert set(group["moves"]) <= end_to_end, group
        assert set(group["on"]) | set(group["little_effect_on"]) <= workloads, group


def test_mining_runs_produce_exactly_the_declared_metrics():
    outcome = Outcome()
    metrics, _ = mining.run_end_to_end(TINY, seed=3, seconds=0.05, outcome=outcome)
    assert set(metrics) == set(run.declared_units(trace=False))
    assert all(value > 0 for value in metrics.values())
    traced, _, _ = mining.run_traced(TINY, seed=3, seconds=0.05, outcome=outcome)
    assert set(traced) == set(run.declared_units(trace=True))
    assert outcome.failed == 0, outcome.messages


def test_traced_run_restores_the_wrapped_layers():
    before = ledger.originals()
    mining.run_traced(TINY, seed=4, seconds=0.05, outcome=Outcome())
    assert ledger.originals() == before


def test_ledger_phases_add_up_to_each_level():
    from repro.obs import Telemetry

    db = _tiny_quest(random.Random(5))
    datasets.prepare(db)
    for backend in ("bitmap", "vectorized"):
        telemetry = Telemetry.create()
        with ledger.PhaseRecorder() as recorder:
            result = mining.mine(db, backend, 3, telemetry)
        entry = ledger.mine_ledger(telemetry.tracer, recorder, result.level_stats)
        assert ledger.ledger_consistent(entry)
        for level in entry["levels"]:
            named = sum(level[p] for p in ("count", "support", "statistic", "evidence", "join"))
            assert level["other"] >= -ledger.CLOCK_SLACK_S
            assert named + level["other"] == pytest.approx(level["wall"], abs=1e-9)
            assert level["support_calls"] == level["candidates"]
        assert sum(entry["phases"].values()) == pytest.approx(entry["wall"], abs=1e-9)


def test_a_border_mismatch_fails_the_run(monkeypatch, capsys):
    honest = mining.mine

    def one_rule_short(db, backend, max_level, telemetry=None):
        result = honest(db, backend, max_level, telemetry)
        if backend == "vectorized":
            result.rules = result.rules[1:]
        return result

    monkeypatch.setattr(mining, "mine", one_rule_short)
    monkeypatch.setitem(datasets.MINING_WORKLOADS, "quest-levels", TINY)
    code = run.main(["--workload", "quest-levels", "--seed", "1", "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_service_run_is_correct_and_traced(monkeypatch):
    outcome = Outcome()
    monkeypatch.setattr(service, "TRACED_REFERENCE_ROUNDS", 1)
    monkeypatch.setattr(service, "SERVICE_APPENDS", 20)
    metrics, report, trace = service.run(seed=2, seconds=1.0, trace=True, outcome=outcome)
    assert outcome.failed == 0, outcome.messages
    assert set(metrics) == set(run.declared_units(trace=True))
    assert len(report["samples_s"]["append"]) == 20
    joined = {r["request_id"] for r in trace["server"]} & {
        r["request_id"] for r in trace["requests"]
    }
    assert joined, "no server record joined a client request by X-Request-Id"
    assert 0 < metrics["http.overhead_share.itemset"] <= 1
