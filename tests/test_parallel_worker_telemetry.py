"""Worker telemetry crosses the process boundary and reconciles.

Pool workers record into a process-local registry and ship its snapshot
back alongside their shard counts; the parent folds every arriving
snapshot into its own registry and counts, independently, what it
expected each task to cover.  These tests force real pool dispatch
(``min_parallel_batch=0`` — this container reports one CPU, so the
adaptive floor would otherwise keep everything serial) and check that
the worker-side counters land in the parent and that the two-sided
ledger balances.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.measures.cellsupport import CellSupport
from repro.data.basket import BasketDatabase
from repro.obs import FakeClock, Telemetry
from repro.parallel import ParallelCountingEngine


def _random_db(seed: int, n_items: int = 8, n_baskets: int = 300) -> BasketDatabase:
    rng = random.Random(seed)
    baskets = [
        [item for item in range(n_items) if rng.random() < 0.4]
        for _ in range(n_baskets)
    ]
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


@pytest.fixture
def db():
    return _random_db(7)


def _pooled_engine(db, telemetry):
    return ParallelCountingEngine(
        db,
        workers=2,
        min_parallel_batch=0,
        telemetry=telemetry,
    )


class TestEngineMerge:
    def test_worker_counters_fold_into_the_parent_registry(self, db):
        telemetry = Telemetry.create(clock=FakeClock())
        engine = _pooled_engine(db, telemetry)
        try:
            from repro.core.itemsets import Itemset

            engine.count_cells([Itemset([0, 1]), Itemset([2, 3]), Itemset([1, 4])])
        finally:
            engine.close()
        metrics = telemetry.metrics
        tasks = metrics.counter_value("worker_tasks")
        assert tasks >= 1
        # Every shard task counts the full candidate list, so the two
        # sides each total tasks x 3 — and must agree exactly.
        assert metrics.counter_value("worker_itemsets") == tasks * 3
        assert metrics.counter_value("worker_itemsets_expected") == tasks * 3
        assert metrics.counter_value("pool_events", kind="task_merged") == tasks

    def test_ledger_balances_after_counting(self, db):
        telemetry = Telemetry.create(clock=FakeClock())
        engine = _pooled_engine(db, telemetry)
        try:
            from repro.core.itemsets import Itemset

            engine.count_cells([Itemset([0, 2]), Itemset([3, 5])])
        finally:
            engine.close()
        assert telemetry.reconcile_workers() == []


class TestMinerMerge:
    def _mine(self, db, telemetry):
        # The miner's private backend hook: the run counts through the
        # forced-pool engine instead of opening an adaptive one.
        engine = _pooled_engine(db, telemetry)
        try:
            miner = ChiSquaredSupportMiner(
                significance=0.95,
                support=CellSupport(count=2, fraction=0.3),
                counting="parallel",
                telemetry=telemetry,
            )
            return miner._mine(db, engine)
        finally:
            engine.close()

    def test_worker_kernel_counters_reach_the_run_registry(self, db):
        telemetry = Telemetry.create(clock=FakeClock())
        result = self._mine(db, telemetry)
        assert result.rules  # the run actually mined something
        metrics = telemetry.metrics
        assert metrics.counter_value("worker_tasks") >= 1
        # Workers dispatched kernels on their shards; the merged series
        # must be visible parent-side, label included.
        dispatch = metrics.series("kernel_dispatch")
        assert dispatch and sum(dispatch.values()) >= 1

    def test_extended_reconciliation_passes_end_to_end(self, db):
        telemetry = Telemetry.create(clock=FakeClock())
        result = self._mine(db, telemetry)
        assert telemetry.reconcile_workers() == []
        report = result.run_report()
        assert report["reconciliation"] == {"agreed": True, "mismatches": []}
        assert report["workers"]
        assert any(key.startswith("worker_tasks") for key in report["workers"])

    def test_reconciliation_catches_a_dropped_merge(self, db):
        telemetry = Telemetry.create(clock=FakeClock())
        self._mine(db, telemetry)
        # Simulate a worker snapshot the parent never folded in.
        telemetry.metrics.counter("worker_tasks").inc()
        mismatches = telemetry.reconcile_workers()
        assert mismatches and "worker_tasks" in mismatches[0]
