"""Unit tests for the streaming basket database."""

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.contingency import count_cells_single_pass
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.data.io import write_named_baskets, write_numeric_baskets
from repro.data.streaming import StreamingBasketDatabase
from repro.measures.cellsupport import CellSupport


@pytest.fixture
def in_memory_db():
    return BasketDatabase.from_baskets(
        [["bread", "butter"]] * 40
        + [["bread"]] * 10
        + [["butter"]] * 10
        + [["milk"]] * 20
        + [[]] * 20
    )


@pytest.fixture
def named_file(tmp_path, in_memory_db):
    path = tmp_path / "baskets.txt"
    write_named_baskets(in_memory_db, path)
    return path


class TestStreamingSource:
    def test_priming_pass_statistics(self, named_file, in_memory_db):
        stream = StreamingBasketDatabase(named_file)
        assert stream.n_baskets == in_memory_db.n_baskets
        assert stream.n_items == in_memory_db.n_items
        for item in range(stream.n_items):
            name = stream.vocabulary.name_of(item)
            assert stream.item_count(item) == in_memory_db.item_count(
                in_memory_db.vocabulary.id_of(name)
            )

    def test_iteration_re_reads_file(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        first = list(stream)
        second = list(stream)
        assert first == second
        assert len(first) == stream.n_baskets

    def test_numeric_format(self, tmp_path):
        db = BasketDatabase.from_id_baskets([[0, 2], [1], []], n_items=3)
        path = tmp_path / "b.dat"
        write_numeric_baskets(db, path)
        stream = StreamingBasketDatabase(path, numeric=True)
        assert list(stream) == list(db)
        assert stream.item_counts() == db.item_counts()

    def test_numeric_negative_id_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("0 -1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            StreamingBasketDatabase(path, numeric=True)

    def test_support_count_by_scan(self, named_file, in_memory_db):
        stream = StreamingBasketDatabase(named_file)
        pair = stream.vocabulary.encode(["bread", "butter"])
        expected = in_memory_db.support_count(
            in_memory_db.vocabulary.encode(["bread", "butter"])
        )
        assert stream.support_count(pair) == expected
        assert stream.support_count(Itemset([])) == stream.n_baskets

    def test_bitmap_operations_refused(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        with pytest.raises(NotImplementedError):
            stream.item_bitmap(0)
        with pytest.raises(NotImplementedError):
            stream.itemset_bitmap(Itemset([0]))


class TestFileChangeDetection:
    """The file must not change between passes — and now that's enforced.

    Multi-level mining reads the file once per level; if the bytes
    change between passes, level-k counts silently disagree with the
    level-1 marginals from the priming pass.
    """

    def test_append_between_passes_detected(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        list(stream)  # a clean pass succeeds
        with open(named_file, "a", encoding="utf-8") as handle:
            handle.write("bread butter\n")
        with pytest.raises(RuntimeError, match="changed since it was opened"):
            list(stream)

    def test_same_size_rewrite_detected(self, named_file):
        import os

        stream = StreamingBasketDatabase(named_file)
        original = named_file.read_bytes()
        named_file.write_bytes(original)  # same size, new mtime
        os.utime(named_file, ns=(0, 123456789))  # force a distinct mtime_ns
        with pytest.raises(RuntimeError, match="changed since it was opened"):
            list(stream)

    def test_support_count_scan_also_guarded(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        pair = stream.vocabulary.encode(["bread", "butter"])
        assert stream.support_count(pair) == 40
        with open(named_file, "a", encoding="utf-8") as handle:
            handle.write("bread butter\n")
        with pytest.raises(RuntimeError, match="changed since it was opened"):
            stream.support_count(pair)

    def test_unchanged_file_keeps_streaming(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        assert list(stream) == list(stream)

    def test_mining_over_mutated_file_fails_loudly(self, named_file):
        from repro.measures.cellsupport import CellSupport

        stream = StreamingBasketDatabase(named_file)
        with open(named_file, "a", encoding="utf-8") as handle:
            handle.write("milk\n")
        miner = ChiSquaredSupportMiner(
            support=CellSupport(5, 0.3), counting="single_pass"
        )
        with pytest.raises(RuntimeError, match="changed since it was opened"):
            miner.mine(stream)


class TestStreamingMining:
    def test_single_pass_tables_match_in_memory(self, named_file, in_memory_db):
        stream = StreamingBasketDatabase(named_file)
        itemsets = [Itemset([0, 1]), Itemset([0, 2])]
        streamed = count_cells_single_pass(stream, itemsets)
        direct = count_cells_single_pass(in_memory_db, itemsets)
        # Vocabulary orders coincide (same insertion order), so compare cells.
        assert streamed == direct

    def test_miner_runs_over_stream(self, named_file, in_memory_db):
        stream = StreamingBasketDatabase(named_file)
        miner = ChiSquaredSupportMiner(
            support=CellSupport(5, 0.3), counting="single_pass"
        )
        streamed = miner.mine(stream)
        in_memory = miner.mine(in_memory_db)
        streamed_names = {
            stream.vocabulary.decode(rule.itemset) for rule in streamed.rules
        }
        memory_names = {
            in_memory_db.vocabulary.decode(rule.itemset) for rule in in_memory.rules
        }
        assert streamed_names == memory_names
        assert ("bread", "butter") in streamed_names

    def test_bitmap_counting_fails_loudly(self, named_file):
        stream = StreamingBasketDatabase(named_file)
        miner = ChiSquaredSupportMiner(support=CellSupport(5, 0.3), counting="bitmap")
        with pytest.raises(NotImplementedError, match="single_pass"):
            miner.mine(stream)
