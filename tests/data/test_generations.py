"""Each generation of an incremental miner is one immutable database.

:func:`repro.data.appendable.extend` builds the next generation from the
current one, and the miner commits it by extending its shared basket log
and swapping references.  So an earlier generation never changes, a
failed append leaves the current one in place, and every generation
equals a from-scratch build of the baskets accumulated so far.
"""

from __future__ import annotations

import importlib.util
import random

import pytest

import repro.core.contingency as contingency_module
import repro.core.mining as mining_module
from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.mining import IncrementalMiner
from repro.data.appendable import BasketLog
from repro.data.basket import BasketDatabase

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def snapshot(db: BasketDatabase) -> dict[str, object]:
    """Everything observable about a database's contents."""
    return {
        "baskets": list(db),
        "n_baskets": db.n_baskets,
        "vocabulary": list(db.vocabulary),
        "bitmaps": [db.item_bitmap(item) for item in range(db.n_items)],
        "item_counts": db.item_counts(),
    }


def named_schedule(seed: int, appends: int) -> list[list[list[str]]]:
    """Appends whose later chunks bring names never seen before."""
    rng = random.Random(seed)
    chunks = []
    for index in range(appends):
        names = [f"core{i}" for i in range(4)] + [f"late{index}_{i}" for i in range(index)]
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
        chunks.append([rng.sample(names, size) for size in sizes])
    return chunks


def numeric_schedule(seed: int, appends: int) -> list[list[list[int]]]:
    """Appends whose ids reach further past the vocabulary each time."""
    rng = random.Random(seed)
    return [
        [
            [rng.randrange(3 + 2 * index) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 6))
        ]
        for index in range(appends)
    ]


def test_later_appends_never_change_an_earlier_generation():
    miner = IncrementalMiner()
    miner.append([["tea", "coffee"], ["tea"], ["coffee", "milk"]])
    earlier = miner.db
    before = snapshot(earlier)
    miner.append([["tea", "coffee", "sugar"], ["sugar"]])
    miner.append([["honey"], [], ["tea", "honey"]])
    assert miner.db is not earlier
    assert miner.db.n_baskets == 8 and miner.db.n_items == 5
    assert snapshot(earlier) == before
    assert before["n_baskets"] == 3 and len(before["vocabulary"]) == 3
    assert before == snapshot(
        BasketDatabase.from_baskets([["tea", "coffee"], ["tea"], ["coffee", "milk"]])
    )


def test_a_failed_append_leaves_the_generation_and_the_log(monkeypatch):
    miner = IncrementalMiner()
    miner.append([["tea", "coffee"]] * 4 + [["milk"]] * 2)
    current = miner.db
    result = miner.result

    def explode(self, db, itemsets):
        raise RuntimeError("counting failed mid-append")

    monkeypatch.setattr(mining_module._IncrementalCellEngine, "_count", explode)
    with pytest.raises(RuntimeError, match="counting failed"):
        miner.append([["tea", "sugar"], ["sugar"]])
    assert miner.db is current
    assert len(miner._log) == 6
    assert (miner.generation, miner.result) == (1, result)
    assert "sugar" not in miner.db.vocabulary

    monkeypatch.undo()
    outcome = miner.append([["tea", "sugar"], ["sugar"]])
    assert (outcome.generation, outcome.n_baskets, outcome.new_items) == (2, 8, ("sugar",))
    assert len(miner._log) == 8
    assert snapshot(miner.db) == snapshot(
        BasketDatabase.from_baskets(
            [["tea", "coffee"]] * 4 + [["milk"]] * 2 + [["tea", "sugar"], ["sugar"]]
        )
    )


def test_a_numeric_id_whose_name_is_taken_is_rejected():
    miner = IncrementalMiner()
    miner.append([["item2"]] * 3)
    with pytest.raises(ValueError, match="item2"):
        miner.append([[0, 2], [2]], numeric=True)
    assert (miner.generation, miner.db.n_baskets, miner.db.n_items) == (1, 3, 1)


def test_an_empty_append_keeps_the_database():
    miner = IncrementalMiner()
    miner.append([["tea", "coffee"]])
    current = miner.db
    assert miner.append([]).generation == 2
    assert miner.db is current


@pytest.mark.parametrize("numeric", [False, True], ids=["named", "numeric"])
@pytest.mark.parametrize("seed", range(4))
def test_every_generation_equals_a_from_scratch_build(seed, numeric):
    appends = 1 + seed
    schedule = numeric_schedule(seed, appends) if numeric else named_schedule(seed, appends)
    miner = IncrementalMiner()
    accumulated: list[list] = []
    for chunk in schedule:
        miner.append(chunk, numeric=numeric)
        accumulated.extend(chunk)
        if numeric:
            cold = BasketDatabase.from_id_baskets(accumulated, n_items=miner.db.n_items)
        else:
            cold = BasketDatabase.from_baskets(accumulated)
        assert snapshot(miner.db) == snapshot(cold)
        if HAVE_NUMPY:
            import numpy as np

            packed, fresh = miner.db.packed_index(), cold.packed_index()
            assert packed.n_baskets == fresh.n_baskets
            assert np.array_equal(packed.packed, fresh.packed)
            assert np.array_equal(packed.counts, fresh.counts)


def test_fresh_wide_candidates_are_counted_before_the_commit(monkeypatch):
    # count_cells scans the baskets of itemsets wider than the bitmap
    # kernels, and a grown generation's baskets are unreadable until its
    # commit.  With the width limit at 2, every fresh triple takes that
    # path, including those that the third append's new item creates.
    monkeypatch.setattr(contingency_module, "_MAX_DENSE_ITEMS", 2)
    monkeypatch.setattr(mining_module, "_MAX_DENSE_ITEMS", 2)
    rng = random.Random(5)
    chunks = [
        [[item for item in range(5) if rng.random() < 0.5] for _ in range(40)],
        [[item for item in range(5) if rng.random() < 0.5] for _ in range(10)],
        [[item for item in range(6) if rng.random() < 0.5] for _ in range(20)],
    ]
    miner = IncrementalMiner(support_fraction=0.1, max_level=4)
    accumulated: list[list[int]] = []
    for chunk in chunks:
        miner.append(chunk, numeric=True)
        accumulated.extend(chunk)
        cold = BasketDatabase.from_id_baskets(accumulated)
        batch = ChiSquaredSupportMiner(support=miner.support, max_level=4).mine(cold)
        assert sorted((rule.itemset, rule.statistic) for rule in miner.result.rules) == sorted(
            (rule.itemset, rule.statistic) for rule in batch.rules
        )
        assert [stats.candidates for stats in miner.result.level_stats] == [
            stats.candidates for stats in batch.level_stats
        ]
    assert any(stats.level >= 3 and stats.candidates for stats in miner.result.level_stats)


def test_basket_log_reads_only_its_prefix():
    shared = [(0,), (0, 1), (1,), (2,)]
    log = BasketLog(shared, 3)
    assert len(log) == 3
    assert list(log) == [(0,), (0, 1), (1,)]
    assert (log[0], log[2], log[-1], log[-3]) == ((0,), (1,), (1,), (0,))
    assert log[1:] == [(0, 1), (1,)]
    assert log[::-1] == [(1,), (0, 1), (0,)]
    assert log[:10] == [(0,), (0, 1), (1,)]
    for index in (3, 4, -4):
        with pytest.raises(IndexError):
            log[index]
    assert (2,) not in log and (1,) in log


def test_basket_log_refuses_a_short_read():
    shared = [(0,)]
    log = BasketLog(shared, 2)
    assert len(log) == 2
    with pytest.raises(RuntimeError, match="not committed"):
        list(log)
    with pytest.raises(RuntimeError, match="not committed"):
        log[0]
    shared.append((1,))
    assert list(log) == [(0,), (1,)]
