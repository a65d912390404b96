"""Unit tests for the zero-copy shared-memory transport (`repro.parallel.shm`).

Engine-level cleanup-after-crash coverage lives in
``tests/test_failure_injection.py``; these tests pin the module's own
contracts — ownership, idempotent unlink, word-aligned sharding, the
pickled shard wire format, and shard-sum exactness against the
pure-Python counting path.
"""

from __future__ import annotations

import pickle
import random
from multiprocessing import shared_memory

import pytest

from repro.core.contingency import count_cells
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase

np = pytest.importorskip("numpy")

from repro.parallel.shm import (  # noqa: E402
    PackedShard,
    SharedIndexSpec,
    SharedPackedIndex,
    shard_shared_index,
)
from repro.parallel.sharding import merge_shard_counts  # noqa: E402


def random_db(seed: int, n_items: int = 9, n_baskets: int = 300) -> BasketDatabase:
    rng = random.Random(seed)
    baskets = [
        [item for item in range(n_items) if rng.random() < 0.4]
        for _ in range(n_baskets)
    ]
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


def assert_unlinked(name: str) -> None:
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


class TestSharedPackedIndex:
    def test_segment_holds_the_packed_matrix(self):
        db = random_db(1)
        index = db.packed_index()
        with SharedPackedIndex(index) as shared:
            spec = shared.spec
            assert spec == SharedIndexSpec(
                shared.name, index.packed.shape[0], index.packed.shape[1], db.n_baskets
            )
            handle = shared_memory.SharedMemory(name=shared.name)
            try:
                view = np.ndarray(
                    (spec.n_items, spec.n_words), dtype=np.uint64, buffer=handle.buf
                )
                assert (view == index.packed).all()
            finally:
                handle.close()
        assert_unlinked(spec.name)

    def test_close_is_idempotent_and_unlinks(self):
        shared = SharedPackedIndex(random_db(2).packed_index())
        name = shared.name
        assert not shared.closed
        shared.close()
        assert shared.closed
        shared.close()  # second close is a no-op, not an error
        assert_unlinked(name)

    def test_spec_is_picklable(self):
        with SharedPackedIndex(random_db(3).packed_index()) as shared:
            clone = pickle.loads(pickle.dumps(shared.spec))
            assert clone == shared.spec


class TestSharding:
    def test_word_ranges_partition_the_matrix(self):
        db = random_db(4, n_baskets=500)  # 500 baskets -> 8 words
        with SharedPackedIndex(db.packed_index()) as shared:
            shards = shard_shared_index(shared, 3)
            assert [s.word_start for s in shards] == [0, 3, 6]
            assert [s.word_stop for s in shards] == [3, 6, 8]
            assert [s.start for s in shards] == [0, 192, 384]
            assert sum(s.n_baskets for s in shards) == db.n_baskets
            # The tail shard's basket count is clipped to the database.
            assert shards[-1].n_baskets == 500 - 384

    def test_more_shards_than_words(self):
        db = random_db(5, n_baskets=100)  # 2 words
        with SharedPackedIndex(db.packed_index()) as shared:
            shards = shard_shared_index(shared, 16)
            assert len(shards) == 2

    def test_invalid_shard_count(self):
        with SharedPackedIndex(random_db(6).packed_index()) as shared:
            with pytest.raises(ValueError):
                shard_shared_index(shared, 0)

    def test_shard_counts_sum_to_pure_python(self):
        db = random_db(7)
        targets = [Itemset([0, 1]), Itemset([2, 4, 7]), Itemset([1, 3, 5, 8])]
        wire = [t.items for t in targets]
        with SharedPackedIndex(db.packed_index()) as shared:
            shards = shard_shared_index(shared, 4)
            merged = merge_shard_counts([shard.count_cells(wire) for shard in shards])
        for itemset, cells in zip(targets, merged):
            expected = count_cells(db, itemset)
            assert {c: n for c, n in cells.items() if n} == {
                c: n for c, n in expected.items() if n
            }


class TestPackedShardWireFormat:
    def test_pickle_carries_only_the_spec_and_range(self):
        db = random_db(9)
        with SharedPackedIndex(db.packed_index()) as shared:
            shard = shard_shared_index(shared, 2)[1]
            shard.local_index()  # materialise the attached slice
            clone = pickle.loads(pickle.dumps(shard))
            assert clone._local is None  # the view never travels
            assert (clone.spec, clone.word_start, clone.word_stop) == (
                shard.spec,
                shard.word_start,
                shard.word_stop,
            )
            assert clone.count_cells([(0, 1)]) == shard.count_cells([(0, 1)])

    def test_injected_crash_raises(self):
        spec = SharedIndexSpec("repro-test-missing", 2, 1, 10)
        shard = PackedShard(0, spec, 0, 1, fault="crash")
        with pytest.raises(RuntimeError, match="injected crash"):
            shard.count_cells([(0, 1)])
