"""Unit and determinism tests for the sharded parallel counting engine."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.contingency import ContingencyTable
from repro.core.itemsets import Itemset
from repro.core.report import mining_result_to_dict
from repro.data.basket import BasketDatabase
from repro.parallel import (
    ParallelCountingEngine,
    Shard,
    TableCache,
    merge_shard_counts,
    shard_database,
)


def _random_db(seed: int, n_items: int = 10, n_baskets: int = 600) -> BasketDatabase:
    rng = random.Random(seed)
    baskets = [
        [item for item in range(n_items) if rng.random() < 0.35]
        for _ in range(n_baskets)
    ]
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


class TestSharding:
    def test_partition_covers_rows_in_order(self):
        db = _random_db(1, n_baskets=47)
        shards = shard_database(db, 5)
        assert len(shards) == 5
        rebuilt = [basket for shard in shards for basket in shard.baskets]
        assert rebuilt == list(db)
        assert [shard.start for shard in shards] == [0, 10, 20, 29, 38]
        assert max(s.n_baskets for s in shards) - min(s.n_baskets for s in shards) <= 1

    def test_more_shards_than_baskets(self):
        db = BasketDatabase.from_id_baskets([[0], [1], [0, 1]], n_items=2)
        shards = shard_database(db, 16)
        assert len(shards) == 3
        assert all(shard.n_baskets == 1 for shard in shards)

    def test_zero_shards_rejected(self):
        db = _random_db(2)
        with pytest.raises(ValueError):
            shard_database(db, 0)

    def test_shard_counts_sum_to_global(self):
        db = _random_db(3)
        shards = shard_database(db, 4)
        targets = [Itemset([0, 1]), Itemset([2, 4, 7]), Itemset([1, 3, 5, 8])]
        wire = [s.items for s in targets]
        merged = merge_shard_counts([shard.count_cells(wire) for shard in shards])
        for itemset, cells in zip(targets, merged):
            reference = ContingencyTable.from_database(db, itemset)
            assert {c: n for c, n in cells.items() if n} == dict(
                reference.nonzero_counts()
            )

    def test_shard_layout_is_deterministic(self):
        db = _random_db(4)
        a = shard_database(db, 7)
        b = shard_database(db, 7)
        assert [(s.start, s.baskets) for s in a] == [(s.start, s.baskets) for s in b]

    def test_pickled_shard_drops_lazy_database(self):
        import pickle

        shard = shard_database(_random_db(5), 2)[0]
        shard.database()  # materialise the lazy db
        clone = pickle.loads(pickle.dumps(shard))
        assert clone._db is None
        assert clone.baskets == shard.baskets
        assert clone.count_cells([(0, 1)]) == shard.count_cells([(0, 1)])

    def test_merge_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            merge_shard_counts([])
        with pytest.raises(ValueError):
            merge_shard_counts([[{0: 1}], [{0: 1}, {1: 2}]])


class TestTableCache:
    def _table(self, a: int, b: int) -> ContingencyTable:
        return ContingencyTable(Itemset([a, b]), {0b11: 1, 0b00: 1})

    def test_lru_eviction_order(self):
        cache = TableCache(capacity=2)
        t01, t12, t23 = self._table(0, 1), self._table(1, 2), self._table(2, 3)
        cache.put(t01.itemset, t01)
        cache.put(t12.itemset, t12)
        assert cache.get(Itemset([0, 1])) is t01  # refresh 01 -> 12 is LRU
        cache.put(t23.itemset, t23)
        assert cache.get(Itemset([1, 2])) is None
        assert cache.get(Itemset([0, 1])) is t01
        assert cache.get(Itemset([2, 3])) is t23
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = TableCache(capacity=0)
        table = self._table(0, 1)
        cache.put(table.itemset, table)
        assert len(cache) == 0
        assert cache.get(table.itemset) is None

    def test_counters(self):
        cache = TableCache(capacity=4)
        table = self._table(0, 1)
        assert cache.get(table.itemset) is None
        cache.put(table.itemset, table)
        assert cache.get(table.itemset) is table
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1

    def test_stats_snapshot(self):
        cache = TableCache(capacity=2)
        t01, t12, t23 = self._table(0, 1), self._table(1, 2), self._table(2, 3)
        for table in (t01, t12, t23):  # third put evicts the LRU entry
            cache.put(table.itemset, table)
        cache.get(Itemset([2, 3]))
        cache.get(Itemset([0, 1]))  # evicted -> miss
        assert cache.stats() == {
            "capacity": 2,
            "size": 2,
            "generation": 0,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "invalidations": 0,
            "refreshes": 0,
        }

    def test_metrics_mirror_local_counters(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = TableCache(capacity=1, metrics=metrics)
        t01, t12 = self._table(0, 1), self._table(1, 2)
        cache.put(t01.itemset, t01)
        cache.put(t12.itemset, t12)  # evicts t01
        cache.get(Itemset([1, 2]))  # hit
        cache.get(Itemset([0, 1]))  # miss
        assert metrics.counter_value("cache_events", kind="hit") == cache.hits == 1
        assert metrics.counter_value("cache_events", kind="miss") == cache.misses == 1
        assert (
            metrics.counter_value("cache_events", kind="evict") == cache.evictions == 1
        )

    def test_counter_properties_are_read_only(self):
        cache = TableCache(capacity=2)
        with pytest.raises(AttributeError):
            cache.hits = 5


class TestTableCacheGenerations:
    """advance_generation: exact carry of cached tables across appends."""

    def _populate(self):
        from repro.data.basket import BasketDatabase

        db = BasketDatabase.from_id_baskets(
            [[0, 1], [0, 1], [2], [2, 3], []], n_items=4
        )
        cache = TableCache(capacity=8)
        for pair in ([0, 1], [2, 3]):
            itemset = Itemset(pair)
            cache.put(itemset, ContingencyTable.from_database(db, itemset))
        return db, cache

    def test_touched_tables_invalidated(self):
        _, cache = self._populate()
        cache.advance_generation({0}, 2)
        assert cache.get(Itemset([0, 1])) is None  # shared item 0 -> dropped
        assert cache.get(Itemset([2, 3])) is not None
        assert cache.invalidations == 1
        assert cache.refreshes == 1
        assert cache.generation == 1

    def test_refreshed_table_matches_fresh_count(self):
        from repro.data.basket import BasketDatabase

        db, cache = self._populate()
        # Append two baskets touching only items 0 and 1.
        grown = BasketDatabase.from_id_baskets(
            list(db) + [(0,), (0, 1)], n_items=4
        )
        cache.advance_generation({0, 1}, 2)
        refreshed = cache.get(Itemset([2, 3]))
        fresh = ContingencyTable.from_database(grown, Itemset([2, 3]))
        assert refreshed.n == fresh.n
        for cell in fresh.cells():
            assert refreshed.observed(cell) == fresh.observed(cell)
        for position in range(2):
            assert refreshed.marginal(position) == fresh.marginal(position)

    def test_empty_delta_still_advances_generation(self):
        _, cache = self._populate()
        cache.advance_generation(set(), 0)
        assert cache.generation == 1
        assert cache.refreshes == 0
        assert cache.invalidations == 0
        assert cache.get(Itemset([0, 1])) is not None

    def test_negative_delta_rejected(self):
        _, cache = self._populate()
        with pytest.raises(ValueError):
            cache.advance_generation(set(), -1)

    def test_recency_order_preserved(self):
        _, cache = self._populate()
        cache.get(Itemset([0, 1]))  # 01 becomes most recent
        cache.advance_generation(set(), 1)
        extra = ContingencyTable(Itemset([1, 2]), {0b11: 1, 0b00: 5})
        cache.put(extra.itemset, extra)
        cache.put(Itemset([0, 3]), ContingencyTable(Itemset([0, 3]), {0b00: 6}))
        # Capacity 8: no eviction yet; shrink to force the LRU entry out.
        cache.capacity = 4
        cache.put(Itemset([1, 3]), ContingencyTable(Itemset([1, 3]), {0b00: 6}))
        # [2,3] was least recently used and must have been evicted.
        assert Itemset([2, 3]) not in cache
        assert Itemset([0, 1]) in cache


class TestEngine:
    def test_serial_matches_from_database(self):
        db = _random_db(6)
        targets = [Itemset([0, 1]), Itemset([1, 2, 3])]
        with ParallelCountingEngine(db, workers=1) as engine:
            counted = engine.count_cells(targets)
        for itemset, cells in zip(targets, counted):
            reference = ContingencyTable.from_database(db, itemset)
            assert cells == dict(reference.nonzero_counts())

    def test_empty_batch(self):
        with ParallelCountingEngine(_random_db(7), workers=1) as engine:
            assert engine.count_cells([]) == []
            assert engine.serial_batches == 0

    def test_duplicates_counted_once(self):
        db = _random_db(8)
        with ParallelCountingEngine(db, workers=1) as engine:
            counted = engine.count_cells([Itemset([0, 1])] * 3)
            assert len(counted) == 3
            assert counted[0] is counted[1] is counted[2]

    def test_invalid_parameters(self):
        db = _random_db(11)
        with pytest.raises(ValueError):
            ParallelCountingEngine(db, workers=0)
        with pytest.raises(ValueError):
            ParallelCountingEngine(db, workers=2, n_shards=0)
        with pytest.raises(ValueError):
            ParallelCountingEngine(db, workers=2, task_timeout=0.0)

    def test_close_is_idempotent(self):
        engine = ParallelCountingEngine(_random_db(12), workers=1)
        engine.count_cells([Itemset([0, 1])])
        engine.close()
        engine.close()

    @pytest.mark.slow
    def test_parallel_batch_matches_serial(self):
        db = _random_db(13)
        targets = [Itemset([a, b]) for a in range(5) for b in range(a + 1, 5)]
        with ParallelCountingEngine(db, workers=1) as serial:
            expected = serial.count_cells(targets)
        with ParallelCountingEngine(
            db, workers=3, task_timeout=60.0, min_parallel_batch=0
        ) as engine:
            counted = engine.count_cells(targets)
            assert engine.parallel_batches == 1
            assert engine.tasks_dispatched == len(engine.shards)
        assert counted == expected


class TestDeterminism:
    """The parallel backend is bit-for-bit reproducible.

    ``MiningResult`` holds floats, orderings, and nested tables; the
    JSON serialisation (sorted keys) captures all of it, so byte
    equality of the dumps is byte equality of the results.
    """

    PARAMS = dict(support_count=2, support_fraction=0.3, counting="parallel")

    def _mine_json(self, db, workers: int) -> str:
        from repro.core.mining import mine_correlations

        result = mine_correlations(db, workers=workers, **self.PARAMS)
        return json.dumps(mining_result_to_dict(result, db.vocabulary), sort_keys=True)

    @pytest.mark.slow
    def test_workers_1_and_4_byte_identical(self):
        db = _random_db(1997, n_items=8, n_baskets=800)
        assert self._mine_json(db, workers=1) == self._mine_json(db, workers=4)

    def test_two_runs_same_seed_byte_identical(self):
        db_a = _random_db(42, n_items=8, n_baskets=400)
        db_b = _random_db(42, n_items=8, n_baskets=400)
        assert self._mine_json(db_a, workers=1) == self._mine_json(db_b, workers=1)

    def test_rule_order_is_discovery_order_both_paths(self):
        from repro.core.mining import mine_correlations

        db = _random_db(77, n_items=6, n_baskets=300)
        serial = mine_correlations(db, workers=1, **self.PARAMS)
        bitmap = mine_correlations(db, support_count=2, support_fraction=0.3)
        assert [r.itemset for r in serial.rules] == [r.itemset for r in bitmap.rules]
