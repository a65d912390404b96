"""Differential harness: incremental mining == batch mining, bit for bit.

The streaming service's whole claim is that
:class:`~repro.core.mining.IncrementalMiner` maintains, across any
schedule of appends, exactly the state a cold
:class:`~repro.algorithms.chi2support.ChiSquaredSupportMiner` run over
the accumulated database would produce.  These tests generate append
schedules with hypothesis — interleaved appends, brand-new vocabulary
items, duplicate items within a basket, empty baskets, empty appends —
and assert bit-identical results (statistics compared with ``==``, not
``approx``) at *every* generation against a cold mine on each batch
counting backend.
"""

import importlib.util

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.mining import IncrementalMiner
from repro.data.basket import BasketDatabase
from repro.measures.cellsupport import CellSupport

# A small universe keeps mining per example cheap while still producing
# multi-level borders; the n* names only ever appear in later appends,
# exercising vocabulary growth mid-stream.
CORE_ITEMS = ["tea", "coffee", "milk", "sugar", "bread"]
LATE_ITEMS = ["nova0", "nova1", "nova2"]

baskets_strategy = st.lists(
    st.lists(st.sampled_from(CORE_ITEMS + LATE_ITEMS), max_size=4),
    max_size=6,
)
schedule_strategy = st.lists(baskets_strategy, min_size=1, max_size=4)


def canonical(result):
    """Everything observable about a mining run, in comparable form."""
    if result is None:
        return None
    return {
        "rules": sorted(
            (rule.itemset.items, rule.statistic, rule.p_value, rule.minimal)
            for rule in result.rules
        ),
        "border": sorted(itemset.items for itemset in result.border),
        "levels": [
            (
                stats.level,
                stats.lattice_itemsets,
                stats.candidates,
                stats.discarded,
                stats.significant,
                stats.not_significant,
            )
            for stats in result.level_stats
        ],
        "supported_uncorrelated": sorted(
            itemset.items for itemset in result.supported_uncorrelated
        ),
    }


def batch_mine(baskets, counting, **params):
    db = BasketDatabase.from_baskets(baskets)
    miner = ChiSquaredSupportMiner(
        significance=params.get("significance", 0.95),
        support=CellSupport(
            params.get("support_count", 1), params.get("support_fraction", 0.26)
        ),
        counting=counting,
    )
    return miner.mine(db), db


def assert_generation_equivalent(incremental_result, all_baskets, counting, **params):
    if not all_baskets:
        # Nothing appended yet: the batch miner refuses an empty
        # database and the incremental miner has no result either.
        assert incremental_result is None
        return None
    batch_result, batch_db = batch_mine(all_baskets, counting, **params)
    assert canonical(incremental_result) == canonical(batch_result)
    return batch_db


HAVE_NUMPY = importlib.util.find_spec("numpy") is not None

BACKENDS = [
    "bitmap",
    "single_pass",
    pytest.param(
        "vectorized",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
    ),
]


@pytest.mark.parametrize("counting", BACKENDS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=schedule_strategy)
def test_every_generation_matches_batch(counting, schedule):
    miner = IncrementalMiner()
    accumulated = []
    for chunk in schedule:
        outcome = miner.append(chunk)
        accumulated.extend(chunk)
        assert outcome.generation == miner.generation
        assert outcome.n_baskets == len(accumulated)
        assert_generation_equivalent(miner.result, accumulated, counting)


class TestScheduleEdges:
    """Deterministic schedules for the edge cases the spec calls out."""

    def test_empty_append_reuses_result(self):
        miner = IncrementalMiner()
        first = miner.append([["tea", "coffee"], ["tea", "coffee"], ["milk"]])
        second = miner.append([])
        assert second.generation == first.generation + 1
        assert second.n_appended == 0
        assert miner.result is first.result
        assert_generation_equivalent(
            miner.result, [["tea", "coffee"], ["tea", "coffee"], ["milk"]], "bitmap"
        )

    def test_empty_baskets_count_toward_n(self):
        miner = IncrementalMiner()
        baskets = [["tea", "coffee"]] * 4 + [[]] * 6
        miner.append(baskets)
        db = assert_generation_equivalent(miner.result, baskets, "bitmap")
        assert db.n_baskets == 10
        assert miner.db.n_baskets == 10

    def test_duplicate_items_within_basket(self):
        miner = IncrementalMiner()
        appended = [["tea", "tea", "coffee"], ["coffee", "coffee"]]
        miner.append(appended)
        # from_baskets dedupes within a basket; the miner must agree.
        assert_generation_equivalent(miner.result, appended, "bitmap")
        assert miner.db.n_items == 2
        # tea occurs in one basket, coffee in both — each counted once
        # per basket regardless of repetition within the basket.
        assert miner.db.item_counts() == (1, 2)

    def test_all_new_vocabulary_append(self):
        miner = IncrementalMiner()
        miner.append([["a", "b"], ["a", "b"], ["c"]])
        miner.append([["x", "y"], ["x", "y"], ["x", "y"]])
        assert_generation_equivalent(
            miner.result,
            [["a", "b"], ["a", "b"], ["c"], ["x", "y"], ["x", "y"], ["x", "y"]],
            "bitmap",
        )

    def test_duplicate_baskets_across_appends(self):
        miner = IncrementalMiner()
        basket = ["tea", "coffee", "milk"]
        accumulated = []
        for _ in range(4):
            miner.append([basket, basket])
            accumulated.extend([basket, basket])
            assert_generation_equivalent(miner.result, accumulated, "bitmap")

    def test_numeric_appends(self):
        miner = IncrementalMiner()
        miner.append([[0, 1], [0, 1], [2]], numeric=True)
        miner.append([[0, 1, 3]], numeric=True)
        batch = BasketDatabase.from_id_baskets(
            [(0, 1), (0, 1), (2,), (0, 1, 3)], n_items=4
        )
        result = ChiSquaredSupportMiner().mine(batch)
        assert canonical(miner.result) == canonical(result)

    def test_failed_append_preserves_previous_generation(self):
        miner = IncrementalMiner()
        miner.append([["tea", "coffee"], ["tea", "coffee"], ["milk"]])
        before = canonical(miner.result)
        generation = miner.generation
        with pytest.raises(ValueError):
            miner.append([[-1, 2]], numeric=True)
        assert miner.generation == generation
        assert canonical(miner.result) == before
        assert miner.db.n_baskets == 3

    def test_cross_append_cache_reuse_is_reported(self):
        miner = IncrementalMiner()
        miner.append([["tea", "coffee", "milk"]] * 3 + [["bread"]] * 2)
        # No new candidates appear: every base table is served from the
        # cumulative cell store; only the small delta is counted.
        outcome = miner.append([["bread"]])
        assert outcome.tables_served > 0
        assert outcome.tables_recounted == 0
        # A brand-new item creates candidates the store has never seen,
        # so those (and only those) get a base recount.
        outcome = miner.append([["tea", "nova"], ["tea", "nova"], ["tea", "nova"]])
        assert outcome.tables_recounted > 0
        assert outcome.tables_served > 0


class TestTopKConsistency:
    """The service's top-K over the grown database matches a cold
    FP-tree engine over the equivalent batch database."""

    def test_topk_matches_batch_engine(self):
        pytest.importorskip("repro.fptree")
        from repro.fptree import FPTreePairEngine
        from repro.service import MiningService

        service = MiningService()
        accumulated = []
        schedules = [
            [["tea", "coffee"], ["tea", "coffee"], ["milk", "sugar"]],
            [["tea", "coffee", "milk"], ["sugar"], []],
            [["nova", "tea"], ["nova", "tea"], ["nova", "coffee"]],
        ]
        for chunk in schedules:
            service.append(chunk)
            accumulated.extend(chunk)
            payload = service.top_k(k=5, min_cooccurrence=1)
            batch_db = BasketDatabase.from_baskets(accumulated)
            batch = FPTreePairEngine(batch_db).top_k(5, min_cooccurrence=1)
            expected = batch.to_dict(batch_db.vocabulary)
            for key in ("entries", "k", "min_cooccurrence", "n_baskets"):
                assert payload[key] == expected[key]

    def test_topk_generation_cache_invalidated_by_append(self):
        from repro.core.topk import entries_to_dicts, top_k_pairs
        from repro.service import MiningService

        service = MiningService()
        first_chunk = [["a", "b"], ["a", "b"], ["c"]]
        second_chunk = [["a", "c"], ["a", "c"]]
        service.append(first_chunk)
        first = service.top_k(k=3)
        assert (first["generation"], first["n_baskets"]) == (1, 3)
        assert service.top_k(k=3) == first  # same generation, same answer
        service.append(second_chunk)
        second = service.top_k(k=3)
        assert (second["generation"], second["n_baskets"]) == (2, 5)
        batch_db = BasketDatabase.from_baskets(first_chunk + second_chunk)
        expected = entries_to_dicts(top_k_pairs(batch_db, 3), batch_db.vocabulary)
        assert second["entries"] == expected
        assert second["entries"] != first["entries"]
