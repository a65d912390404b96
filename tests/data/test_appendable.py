"""An append's new generation packs its own index; mines see the growth.

Each append commits a new immutable database whose big-int bitmaps and
item counts are complete, but which has no packed NumPy index until
something asks for one.  The vectorized backend reads
``packed_index()``, so a mine after an append must see the grown
database, never the previous generation's packing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.mining import IncrementalMiner, mine_correlations
from repro.data.basket import BasketDatabase

np = pytest.importorskip("numpy")

from repro.kernels import PackedBitmapIndex  # noqa: E402

PARAMS = dict(support_count=2, support_fraction=0.3)


def random_baskets(seed: int, n_items: int, n_baskets: int) -> list[list[int]]:
    rng = random.Random(seed)
    density = rng.uniform(0.2, 0.6)
    return [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_baskets)
    ]


def border(result) -> list[tuple[tuple[int, ...], float]]:
    return sorted((rule.itemset.items, rule.statistic) for rule in result.rules)


def test_vectorized_mine_after_append_sees_the_grown_database():
    # 60 baskets fill one 64-bit word; the 10 appended cross into a
    # second, and the second append brings a new item (id 6).
    chunks = [random_baskets(1, 6, 60), random_baskets(2, 6, 10), random_baskets(3, 7, 30)]
    miner = IncrementalMiner(**PARAMS)
    accumulated: list[list[int]] = []
    for chunk in chunks:
        miner.append(chunk, numeric=True)
        accumulated.extend(chunk)
        # Packs miner.db, so the next append finds an index to drop.
        served = mine_correlations(miner.db, counting="vectorized", **PARAMS)
        cold_db = BasketDatabase.from_id_baskets(accumulated, n_items=miner.db.n_items)
        cold = mine_correlations(cold_db, counting="bitmap", **PARAMS)
        assert border(served) == border(cold)
        packed = miner.db.packed_index()
        fresh = PackedBitmapIndex.from_database(cold_db)
        assert packed.n_baskets == len(accumulated)
        assert np.array_equal(packed.packed, fresh.packed)
        assert np.array_equal(packed.counts, fresh.counts)


def test_commit_drops_the_packed_index():
    miner = IncrementalMiner(**PARAMS)
    miner.append(random_baskets(4, 5, 20), numeric=True)
    before = miner.db.packed_index()
    assert miner.db.packed_index() is before
    miner.append(random_baskets(5, 5, 3), numeric=True)
    after = miner.db.packed_index()
    assert after is not before
    assert after.n_baskets == 23
