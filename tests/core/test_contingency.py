"""Unit tests for contingency tables."""

import pytest

from repro.core.contingency import ContingencyTable, count_cells_single_pass
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase


@pytest.fixture
def small_db() -> BasketDatabase:
    # 10 baskets over items a(0), b(1), c(2).
    baskets = [
        ["a", "b"],
        ["a", "b", "c"],
        ["a"],
        ["b"],
        ["b", "c"],
        ["c"],
        [],
        ["a", "c"],
        ["a", "b"],
        ["b"],
    ]
    return BasketDatabase.from_baskets(baskets)


class TestConstruction:
    def test_from_database_pair(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        # a&b in baskets 0,1,8; a only 2,7; b only 3,4,9; neither 5,6.
        assert table.observed(0b11) == 3
        assert table.observed(0b01) == 2
        assert table.observed(0b10) == 3
        assert table.observed(0b00) == 2
        assert table.n == 10

    def test_from_database_triple(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1, 2]))
        assert table.observed(0b111) == 1  # basket 1
        assert table.observed(0b011) == 2  # baskets 0, 8
        assert table.observed(0b000) == 1  # basket 6
        assert sum(table.observed(c) for c in table.cells()) == 10

    def test_counts_sum_to_n(self, small_db):
        for items in ([0], [1], [0, 2], [0, 1, 2]):
            table = ContingencyTable.from_database(small_db, Itemset(items))
            assert sum(table.observed(c) for c in table.cells()) == small_db.n_baskets

    def test_single_item_table(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0]))
        assert table.observed(1) == small_db.item_count(0)
        assert table.observed(0) == 10 - small_db.item_count(0)

    def test_empty_itemset_rejected(self, small_db):
        with pytest.raises(ValueError):
            ContingencyTable.from_database(small_db, Itemset([]))

    def test_from_percentages_scales(self):
        table = ContingencyTable.from_percentages(
            Itemset([0, 1]), {0b11: 20, 0b01: 5, 0b10: 70, 0b00: 5}, n=200
        )
        assert table.n == 200
        assert table.observed(0b11) == pytest.approx(40)

    def test_manual_counts_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(Itemset([0]), {0: 5, 1: 6}, n=10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(Itemset([0]), {0: -1, 1: 2})

    def test_cell_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(Itemset([0]), {2: 1})

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(Itemset([0]), {})


class TestMarginalsAndExpectation:
    def test_marginals_match_database_item_counts(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        assert table.marginal(0) == small_db.item_count(0)
        assert table.marginal(1) == small_db.item_count(1)

    def test_expected_values_sum_to_n(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1, 2]))
        total = sum(table.expected(c) for c in table.cells())
        assert total == pytest.approx(small_db.n_baskets)

    def test_expected_independence_formula(self):
        # 2x2 with p(a) = 0.3, p(b) = 0.5, n = 100.
        table = ContingencyTable(
            Itemset([0, 1]), {0b11: 15, 0b01: 15, 0b10: 35, 0b00: 35}, n=100
        )
        assert table.expected(0b11) == pytest.approx(100 * 0.3 * 0.5)
        assert table.expected(0b00) == pytest.approx(100 * 0.7 * 0.5)

    def test_item_probability(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        assert table.item_probability(0) == pytest.approx(small_db.item_count(0) / 10)

    def test_paper_example3_expectations(self):
        # E[i9] = 3, E[i8] = 5 over the 9 sample baskets (paper, Example 3).
        table = ContingencyTable(
            Itemset([8, 9]), {0b11: 1, 0b10: 2, 0b01: 4, 0b00: 2}, n=9
        )
        # position 0 is item 8 (count 5), position 1 is item 9 (count 3).
        assert table.marginal(0) == 5
        assert table.marginal(1) == 3
        assert table.expected(0b11) == pytest.approx(3 * 5 / 9)


class TestCellAddressing:
    def test_pattern_roundtrip(self):
        table = ContingencyTable(Itemset([3, 7, 9]), {0: 10}, n=10)
        for cell in table.cells():
            assert table.cell_of_pattern(table.cell_pattern(cell)) == cell

    def test_pattern_orientation(self):
        table = ContingencyTable(Itemset([3, 7]), {0b01: 10}, n=10)
        assert table.cell_pattern(0b01) == (True, False)  # item 3 present

    def test_pattern_length_mismatch(self):
        table = ContingencyTable(Itemset([1, 2]), {0: 5}, n=5)
        with pytest.raises(ValueError):
            table.cell_of_pattern((True,))

    def test_observed_out_of_range(self):
        table = ContingencyTable(Itemset([0]), {0: 1}, n=1)
        with pytest.raises(ValueError):
            table.observed(4)
        with pytest.raises(ValueError):
            table.expected(-1)


class TestSparsity:
    def test_occupied_cells_sorted_nonzero(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1, 2]))
        occupied = list(table.occupied_cells())
        assert occupied == sorted(occupied)
        assert all(table.observed(c) > 0 for c in occupied)

    def test_n_occupied(self):
        table = ContingencyTable(Itemset([0, 1]), {0b11: 5, 0b00: 5}, n=10)
        assert table.n_occupied == 2
        assert table.n_cells == 4

    def test_zero_counts_dropped(self):
        table = ContingencyTable(Itemset([0, 1]), {0b11: 5, 0b01: 0, 0b00: 5})
        assert list(table.occupied_cells()) == [0b00, 0b11]

    def test_wide_itemset_uses_scan_path(self):
        # 13 items exceeds the Möbius cap; the scan path must agree on counts.
        n_items = 13
        baskets = [list(range(n_items)), [0, 5], [], [1, 2, 12]]
        db = BasketDatabase.from_id_baskets(baskets, n_items=n_items)
        table = ContingencyTable.from_database(db, Itemset(range(n_items)))
        assert table.observed((1 << n_items) - 1) == 1
        assert table.observed(0) == 1
        assert table.observed((1 << 0) | (1 << 5)) == 1
        assert sum(table.observed(c) for c in table.occupied_cells()) == 4


class TestDenseExport:
    def test_to_dense_shape_and_values(self, small_db):
        pytest.importorskip("numpy", reason="to_dense needs the [fast] extra")
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        arr = table.to_dense()
        assert arr.shape == (2, 2)
        assert arr[1, 1] == 3  # both present
        assert arr[0, 0] == 2  # neither
        assert arr.sum() == 10


class TestRestrict:
    def test_restrict_marginalises(self, small_db):
        triple = ContingencyTable.from_database(small_db, Itemset([0, 1, 2]))
        pair = triple.restrict([0, 1])
        direct = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        for cell in pair.cells():
            assert pair.observed(cell) == direct.observed(cell)

    def test_restrict_single(self, small_db):
        triple = ContingencyTable.from_database(small_db, Itemset([0, 1, 2]))
        single = triple.restrict([2])
        assert single.itemset == Itemset([2])
        assert single.observed(1) == small_db.item_count(2)

    def test_restrict_empty_rejected(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        with pytest.raises(ValueError):
            table.restrict([])

    def test_restrict_out_of_range(self, small_db):
        table = ContingencyTable.from_database(small_db, Itemset([0, 1]))
        with pytest.raises(ValueError):
            table.restrict([5])


class TestValidity:
    def test_validity_large_balanced_table(self):
        table = ContingencyTable(
            Itemset([0, 1]), {0b00: 250, 0b01: 250, 0b10: 250, 0b11: 250}, n=1000
        )
        validity = table.validity()
        assert validity.is_valid
        assert validity.min_expected > 5

    def test_validity_sparse_table_fails(self):
        table = ContingencyTable(Itemset([0, 1]), {0b11: 1, 0b00: 9}, n=10)
        # p(a) = p(b) = 0.1 -> E[ab] = 0.1 < 1: invalid.
        assert not table.validity().is_valid

    @staticmethod
    def _naive_validity(table):
        """The original implementation: one expected() call per cell."""
        expectations = [table.expected(cell) for cell in table.cells()]
        return (
            min(expectations),
            sum(1 for e in expectations if e > 5.0) / table.n_cells,
        )

    def _assert_validity_unchanged(self, table):
        min_expected, fraction = self._naive_validity(table)
        validity = table.validity()
        # Bit-identical, not approximately equal: the doubled product
        # applies the marginal factors in the same IEEE order expected()
        # does.
        assert validity.min_expected == min_expected
        assert validity.fraction_above_five == fraction

    def test_validity_matches_per_cell_expected(self, small_db):
        for items in ([0], [0, 1], [1, 2], [0, 1, 2]):
            self._assert_validity_unchanged(
                ContingencyTable.from_database(small_db, Itemset(items))
            )

    def test_validity_matches_on_percentage_tables(self):
        self._assert_validity_unchanged(
            ContingencyTable.from_percentages(
                Itemset([0, 1]), {0b11: 20, 0b01: 5, 0b10: 70, 0b00: 5}, n=200
            )
        )
        self._assert_validity_unchanged(
            ContingencyTable.from_percentages(
                Itemset([0, 1, 2]),
                {0b111: 1, 0b010: 33, 0b100: 33, 0b001: 33},
            )
        )

    def test_validity_matches_on_wide_table(self):
        """A 2^10-cell spectrum built by doubling stays bit-identical per cell."""
        import random

        rng = random.Random(1997)
        baskets = [
            [item for item in range(10) if rng.random() < 0.4]
            for _ in range(500)
        ]
        db = BasketDatabase.from_id_baskets(baskets, n_items=10)
        table = ContingencyTable.from_database(db, Itemset(range(10)))
        assert table.n_cells == 1024
        self._assert_validity_unchanged(table)

    def test_validity_on_degenerate_marginals(self):
        # An always-present item: expectations with its absent factor
        # collapse to exactly 0.0 on both paths.
        table = ContingencyTable(Itemset([0, 1]), {0b11: 6, 0b01: 4}, n=10)
        self._assert_validity_unchanged(table)
        assert table.validity().min_expected == 0.0


class TestObservedType:
    def test_observed_always_float(self, small_db):
        """observed() returns float for occupied AND empty cells alike."""
        for items in ([0], [0, 1], [0, 1, 2]):
            table = ContingencyTable.from_database(small_db, Itemset(items))
            for cell in table.cells():
                assert type(table.observed(cell)) is float, (items, cell)

    def test_observed_empty_cell_is_float_zero(self, small_db):
        # a&c appears without b nowhere... pick a genuinely empty cell.
        table = ContingencyTable(Itemset([0, 1]), {0b11: 4, 0b00: 6}, n=10)
        value = table.observed(0b01)
        assert value == 0.0
        assert type(value) is float

    def test_observed_float_on_percentage_tables(self):
        table = ContingencyTable.from_percentages(
            Itemset([0, 1]), {0b11: 25, 0b00: 75}, n=40
        )
        for cell in table.cells():
            assert type(table.observed(cell)) is float, cell


class TestSinglePassCounting:
    def test_matches_per_itemset_construction(self, small_db):
        itemsets = [Itemset([0, 1]), Itemset([1, 2]), Itemset([0, 1, 2])]
        batch = count_cells_single_pass(small_db, itemsets)
        for itemset, cells in zip(itemsets, batch):
            direct = ContingencyTable.from_database(small_db, itemset)
            assert sum(cells.values()) == direct.n
            assert cells == dict(direct.nonzero_counts())

    def test_handles_empty_candidate_list(self, small_db):
        assert count_cells_single_pass(small_db, []) == []

    def test_all_absent_cell_recovered(self, small_db):
        # An item pair absent from several baskets: cell 0 derived, not counted.
        [cells] = count_cells_single_pass(small_db, [Itemset([0, 2])])
        direct = ContingencyTable.from_database(small_db, Itemset([0, 2]))
        assert cells.get(0, 0) == direct.observed(0)
