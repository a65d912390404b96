"""Failure-injection tests: malformed inputs, degenerate data, misuse.

A library that will be pointed at real files and real data must fail
loudly and precisely.  These tests feed each public entry point the
inputs that break naive implementations: empty databases, universal or
absent items, truncated and garbled files, inconsistent vocabularies,
and degenerate statistical tables.
"""

import math

import pytest

from repro.algorithms.apriori import apriori
from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.contingency import ContingencyTable, count_cells
from repro.core.correlation import chi_squared
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.data.basket import BasketDatabase
from repro.data.io import read_named_baskets, read_numeric_baskets
from repro.measures.cellsupport import CellSupport


class TestDegenerateDatabases:
    def test_all_empty_baskets_mine_cleanly(self):
        db = BasketDatabase.from_id_baskets([[], [], []], n_items=2)
        result = ChiSquaredSupportMiner(support=CellSupport(1, 0.3)).mine(db)
        assert result.rules == []

    def test_universal_item(self):
        """An item in every basket has degenerate absent-cells (E = 0)."""
        db = BasketDatabase.from_baskets([["always", "x"], ["always"]] * 20)
        table = ContingencyTable.from_database(db, Itemset([0, 1]))
        # Structural zeros: O = 0 where E = 0; the statistic is finite.
        value = chi_squared(table)
        assert math.isfinite(value)

    def test_never_occurring_item(self):
        vocab = ItemVocabulary(["used", "ghost"])
        db = BasketDatabase.from_baskets([["used"]] * 10, vocabulary=vocab)
        table = ContingencyTable.from_database(db, Itemset([0, 1]))
        assert table.marginal(1) == 0
        assert math.isfinite(chi_squared(table))

    def test_single_basket_database(self):
        db = BasketDatabase.from_baskets([["a", "b"]])
        result = ChiSquaredSupportMiner(support=CellSupport(1, 0.3)).mine(db)
        # One observation can never clear the 3.84 cutoff.
        assert result.rules == []

    def test_duplicate_baskets_only(self):
        db = BasketDatabase.from_baskets([["a", "b"]] * 50)
        table = ContingencyTable.from_database(db, Itemset([0, 1]))
        assert chi_squared(table) == pytest.approx(0.0, abs=1e-9)

    def test_miner_on_single_item_vocabulary(self):
        db = BasketDatabase.from_baskets([["only"]] * 5 + [[]] * 5)
        result = ChiSquaredSupportMiner(support=CellSupport(1, 0.3)).mine(db)
        assert result.rules == []  # no pairs exist

    def test_apriori_threshold_above_n(self):
        db = BasketDatabase.from_baskets([["a"]] * 5)
        result = apriori(db, min_support_count=6)
        assert len(result) == 0


class TestMalformedFiles:
    def test_numeric_file_with_float_tokens(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("0 1.5\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_numeric_baskets(path)

    def test_numeric_file_with_negative_ids(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("0 -3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_numeric_baskets(path)

    def test_named_file_with_odd_whitespace(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text("a\t b   c\n\n  \n", encoding="utf-8")
        db = read_named_baskets(path)
        assert db.n_baskets == 3
        assert db.basket_names(0) == ("a", "b", "c")
        assert db[1] == db[2] == ()

    def test_named_file_unicode_items(self, tmp_path):
        path = tmp_path / "unicode.txt"
        path.write_text("café straße\ncafé\n", encoding="utf-8")
        db = read_named_baskets(path)
        assert "café" in db.vocabulary
        assert db.item_count(db.vocabulary.id_of("café")) == 2

    def test_directory_instead_of_file(self, tmp_path):
        with pytest.raises((IsADirectoryError, PermissionError, OSError)):
            read_named_baskets(tmp_path)


class TestStatisticalDegeneracy:
    def test_table_with_single_occupied_cell(self):
        table = ContingencyTable(Itemset([0, 1]), {0b11: 10})
        # Both marginals saturated: every absent-cell expectation is 0.
        assert chi_squared(table) == pytest.approx(0.0, abs=1e-9)

    def test_float_counts_from_percentages(self):
        table = ContingencyTable.from_percentages(
            Itemset([0, 1]), {0b11: 33.3, 0b01: 33.3, 0b10: 33.3, 0b00: 0.1}
        )
        assert math.isfinite(chi_squared(table))

    def test_interest_of_everything_absent(self):
        from repro.core.interest import interest

        table = ContingencyTable(Itemset([0, 1]), {0b00: 100})
        assert math.isnan(interest(table, 0b11))

    def test_validity_on_degenerate_table(self):
        table = ContingencyTable(Itemset([0, 1]), {0b11: 10})
        validity = table.validity()
        assert not validity.is_valid
        assert validity.min_expected == 0.0


class TestVocabularyMisuse:
    def test_mixed_vocabularies_caught_by_ids(self):
        db = BasketDatabase.from_baskets([["a"]])
        other_vocab = ItemVocabulary(["x", "y", "z"])
        # Ids beyond the database's vocabulary raise on bitmap access.
        with pytest.raises(IndexError):
            db.item_bitmap(2)

    def test_encode_unknown_name(self):
        vocab = ItemVocabulary(["a"])
        with pytest.raises(KeyError):
            vocab.encode(["missing"])

    def test_support_of_out_of_range_item(self):
        db = BasketDatabase.from_baskets([["a"]])
        with pytest.raises(IndexError):
            db.support_count(Itemset([7]))


class TestParallelCountingFailures:
    """Worker-crash / pool-timeout paths of the sharded parallel engine.

    The engine must never hang: a poisoned shard (its ``fault`` hook
    injects a crash or a hang) surfaces as a clear
    :class:`~repro.parallel.CountingError` within the task timeout, and
    with ``fallback_serial`` the engine degrades to in-process counting
    and still returns exact results.
    """

    def _db(self):
        return BasketDatabase.from_id_baskets(
            [[0, 1], [0], [1], [0, 1, 2], []] * 40, n_items=3
        )

    def _reference_counts(self, db):
        return count_cells(db, Itemset([0, 1]))

    def test_poisoned_shard_raises_counting_error(self):
        from repro.parallel import CountingError, ParallelCountingEngine

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, fallback_serial=False, task_timeout=30.0, min_parallel_batch=0
        ) as engine:
            engine.shards[0].fault = "crash"
            with pytest.raises(CountingError, match="injected crash in shard 0"):
                engine.count_cells([Itemset([0, 1])])

    @pytest.mark.slow
    def test_pool_timeout_raises_instead_of_hanging(self):
        from repro.parallel import CountingError, ParallelCountingEngine

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, fallback_serial=False, task_timeout=0.75, min_parallel_batch=0
        ) as engine:
            engine.shards[1].fault = "hang"
            with pytest.raises(CountingError, match="task_timeout"):
                engine.count_cells([Itemset([0, 1])])

    def test_poisoned_shard_falls_back_to_serial(self):
        from repro.parallel import ParallelCountingEngine

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, task_timeout=30.0, min_parallel_batch=0
        ) as engine:
            engine.shards[0].fault = "crash"
            [cells] = engine.count_cells([Itemset([0, 1])])
            assert engine.degraded
            assert engine.fallbacks == 1
            assert cells == self._reference_counts(db)
            # Once degraded, later batches go straight to the (working)
            # serial path without touching the broken pool again.
            engine.count_cells([Itemset([1, 2])])
            assert engine.fallbacks == 1

    def test_pool_unavailable_falls_back_to_serial(self):
        from repro.parallel import ParallelCountingEngine

        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, mp_context=BrokenContext(), min_parallel_batch=0
        ) as engine:
            [cells] = engine.count_cells([Itemset([0, 1])])
            assert engine.degraded
            assert cells == self._reference_counts(db)

    def test_pool_unavailable_propagates_without_fallback(self):
        from repro.parallel import CountingError, ParallelCountingEngine

        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, mp_context=BrokenContext(), fallback_serial=False,
            min_parallel_batch=0
        ) as engine:
            with pytest.raises(CountingError, match="pool could not be created"):
                engine.count_cells([Itemset([0, 1])])

    def test_miner_rejects_invalid_workers(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(counting="parallel", workers=0)

    def test_miner_rejects_unknown_counting(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(counting="sharded")


class TestSharedMemoryCleanup:
    """The shared-memory segment never outlives the engine.

    Every exit path — context-manager close, worker crash, task timeout
    — must unlink the ``multiprocessing.shared_memory`` segment the
    engine created, or segments pile up in ``/dev/shm`` across runs.
    Leak detection is direct: attaching to the segment name after the
    exit path must raise ``FileNotFoundError``.
    """

    def _db(self):
        return BasketDatabase.from_id_baskets(
            [[0, 1], [0], [1], [0, 1, 2], []] * 40, n_items=3
        )

    def _segment_name(self, engine):
        pytest.importorskip("numpy")
        engine.shards  # force shard construction
        if engine._shared_index is None:
            pytest.skip("shared-memory transport unavailable")
        return engine._shared_index.name

    @staticmethod
    def _assert_unlinked(name):
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_unlinks_segment(self):
        from repro.parallel import ParallelCountingEngine

        engine = ParallelCountingEngine(self._db(), workers=2)
        name = self._segment_name(engine)
        engine.close()
        engine.close()  # idempotent
        self._assert_unlinked(name)

    def test_context_exit_unlinks_segment(self):
        from repro.parallel import ParallelCountingEngine

        with ParallelCountingEngine(self._db(), workers=2) as engine:
            name = self._segment_name(engine)
        self._assert_unlinked(name)

    def test_worker_crash_unlinks_segment(self):
        from repro.parallel import ParallelCountingEngine

        db = self._db()
        with ParallelCountingEngine(
            db, workers=2, task_timeout=30.0, min_parallel_batch=0
        ) as engine:
            name = self._segment_name(engine)
            engine.shards[0].fault = "crash"
            [cells] = engine.count_cells([Itemset([0, 1])])
            assert engine.degraded
            # The pool-failure path released the segment already, while
            # the engine is still open and serving serially.
            self._assert_unlinked(name)
            assert cells == count_cells(db, Itemset([0, 1]))
        self._assert_unlinked(name)

    @pytest.mark.slow
    def test_timeout_unlinks_segment(self):
        from repro.parallel import CountingError, ParallelCountingEngine

        with ParallelCountingEngine(
            self._db(),
            workers=2,
            fallback_serial=False,
            task_timeout=0.75,
            min_parallel_batch=0,
        ) as engine:
            name = self._segment_name(engine)
            engine.shards[1].fault = "hang"
            with pytest.raises(CountingError, match="task_timeout"):
                engine.count_cells([Itemset([0, 1])])
            self._assert_unlinked(name)

    def test_shared_and_pickled_counts_identical(self):
        """The pooled shared-memory engine and pickled row shards agree."""
        from repro.parallel import ParallelCountingEngine, merge_shard_counts, shard_database

        db = self._db()
        targets = [Itemset([0, 1]), Itemset([0, 1, 2]), Itemset([2])]
        with ParallelCountingEngine(db, workers=2, min_parallel_batch=0) as engine:
            self._segment_name(engine)
            shared = engine.count_cells(targets)
            assert engine.parallel_batches == 1
        pickled = merge_shard_counts(
            shard.count_cells([itemset.items for itemset in targets])
            for shard in shard_database(db, 2)
        )
        assert shared == pickled


class TestTelemetryOnErrorPaths:
    """Telemetry must stay coherent when a counting backend dies mid-mine.

    A backend raising in the middle of a level is the ugliest path for
    the instrumentation layer: spans are open three deep and the
    current level's counters have not been flushed yet.  These tests
    assert the exception still propagates untouched, every span is
    closed, completed levels' counters survive exactly, and the broken
    level records nothing (no half-counted candidates).
    """

    def _db(self):
        # Three independent items, every combination repeated: the mine
        # reaches level 3, so the injected failure lands mid-run with
        # level 2 already completed.
        combos = [
            [i for i in range(3) if mask >> i & 1] for mask in range(8)
        ]
        return BasketDatabase.from_id_baskets(combos * 5, n_items=3)

    def _miner(self, counting):
        from repro.obs import Telemetry

        telemetry = Telemetry.create()
        miner = ChiSquaredSupportMiner(
            support=CellSupport(1, 0.1),
            significance=0.95,
            counting=counting,
            telemetry=telemetry,
        )
        return miner, telemetry

    @staticmethod
    def _all_spans(telemetry):
        spans = []
        stack = list(telemetry.tracer.roots)
        while stack:
            span = stack.pop()
            spans.append(span)
            stack.extend(span.children)
        return spans

    def _level_counters(self, telemetry, level):
        metrics = telemetry.metrics
        return {
            "candidates": metrics.counter_value("candidates", level=level),
            "pruned_support": metrics.counter_value(
                "candidates_pruned", level=level, reason="support"
            ),
            "pruned_chi2": metrics.counter_value(
                "candidates_pruned", level=level, reason="chi2"
            ),
            "significant": metrics.counter_value(
                "itemsets", level=level, kind="significant"
            ),
            "not_significant": metrics.counter_value(
                "itemsets", level=level, kind="not_significant"
            ),
        }

    def test_backend_raising_mid_level_closes_spans_and_metrics(self, monkeypatch):
        import repro.counting as counting_module

        clean_miner, clean_telemetry = self._miner("single_pass")
        clean_miner.mine(self._db())

        real = counting_module.count_cells_single_pass
        calls = {"n": 0}

        def explode_on_second_level(db, candidates):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected counting failure")
            return real(db, candidates)

        monkeypatch.setattr(
            counting_module, "count_cells_single_pass", explode_on_second_level
        )
        miner, telemetry = self._miner("single_pass")
        with pytest.raises(RuntimeError, match="injected counting failure"):
            miner.mine(self._db())

        spans = self._all_spans(telemetry)
        assert spans, "the mine span must have been recorded"
        assert all(span.finished for span in spans)

        # The completed level's counters match a clean run exactly; the
        # broken level flushed nothing — not a partial count.
        assert self._level_counters(telemetry, 2) == (
            self._level_counters(clean_telemetry, 2)
        )
        broken = self._level_counters(telemetry, 3)
        assert broken == {key: 0 for key in broken}

    def test_fptree_engine_raising_mid_level_closes_spans(self, monkeypatch):
        from repro.fptree import FPTreePairEngine

        real = FPTreePairEngine.count_cells
        calls = {"n": 0}

        def explode_on_second_level(self, candidates):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected fptree failure")
            return real(self, candidates)

        monkeypatch.setattr(FPTreePairEngine, "count_cells", explode_on_second_level)
        miner, telemetry = self._miner("fptree")
        with pytest.raises(RuntimeError, match="injected fptree failure"):
            miner.mine(self._db())

        spans = self._all_spans(telemetry)
        assert all(span.finished for span in spans)
        # The tree was built (and its span closed) before the failure.
        assert any(span.name == "fptree.build" for span in spans)
        assert telemetry.metrics.counter_value("fptree_nodes") > 0
        broken = self._level_counters(telemetry, 3)
        assert broken == {key: 0 for key in broken}


class TestMinerParameterEdges:
    def test_support_fraction_one(self):
        """p = 1: every cell must reach s — the strictest legal setting."""
        db = BasketDatabase.from_baskets(
            [["a", "b"]] * 25 + [["a"]] * 25 + [["b"]] * 25 + [[]] * 25
        )
        result = ChiSquaredSupportMiner(support=CellSupport(25, 1.0)).mine(db)
        # Supported (all four cells = 25) but perfectly independent.
        assert result.rules == []
        assert Itemset([0, 1]) in result.supported_uncorrelated

    def test_zero_significance_forbidden(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(significance=0.0)

    def test_max_level_below_two_yields_nothing(self):
        db = BasketDatabase.from_baskets([["a", "b"]] * 10)
        result = ChiSquaredSupportMiner(
            support=CellSupport(1, 0.3), max_level=1
        ).mine(db)
        assert result.rules == []
        assert result.level_stats == []
