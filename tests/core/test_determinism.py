"""Summation-order determinism regressions.

PR 1 fixed a real bug where ``chi_squared_sparse`` summed occupied cells
in dict insertion order, so backends that populate the cell dict in
different orders disagreed in the last ulp.  These tests pin the
canonical-order invariant down at every layer that accumulates floats
from a mapping: the sparse statistic itself, the validating
``ContingencyTable`` constructor (marginals and totals), percentage
tables, and ``restrict`` (the sub-table marginalisation).
"""

from __future__ import annotations

from repro.core.contingency import ContingencyTable
from repro.core.correlation import chi_squared_dense, chi_squared_sparse
from repro.core.itemsets import Itemset

# Awkward floats: the pairwise sums genuinely depend on addition order.
_CELLS = {0b00: 10.1, 0b01: 20.2, 0b10: 30.3, 0b11: 39.4}


def _reorderings(cells: dict[int, float]) -> list[dict[int, float]]:
    ascending = dict(sorted(cells.items()))
    descending = dict(sorted(cells.items(), reverse=True))
    interleaved = dict(sorted(cells.items(), key=lambda kv: (kv[0] % 2, kv[0])))
    return [ascending, descending, interleaved]


def test_chi_squared_sparse_ignores_cell_insertion_order():
    reference = None
    for ordering in _reorderings(_CELLS):
        table = ContingencyTable.from_cell_counts(Itemset([0, 1]), dict(ordering), 100.0)
        stat = chi_squared_sparse(table)
        if reference is None:
            reference = stat
        assert stat == reference  # bit-identical, not approximately equal


def test_constructor_marginals_ignore_cell_insertion_order():
    tables = [
        ContingencyTable(Itemset([0, 1]), ordering, n=100.0)
        for ordering in _reorderings(_CELLS)
    ]
    reference = tables[0]
    for table in tables[1:]:
        assert table.marginal(0) == reference.marginal(0)
        assert table.marginal(1) == reference.marginal(1)
        assert chi_squared_sparse(table) == chi_squared_sparse(reference)
        assert chi_squared_dense(table) == chi_squared_dense(reference)


def test_from_percentages_ignores_insertion_order():
    tables = [
        ContingencyTable.from_percentages(Itemset([0, 1]), ordering, n=100.0)
        for ordering in _reorderings({0b00: 5.3, 0b01: 4.9, 0b10: 70.1, 0b11: 19.7})
    ]
    reference = tables[0]
    for table in tables[1:]:
        assert dict(table.nonzero_counts()) == dict(reference.nonzero_counts())
        assert chi_squared_sparse(table) == chi_squared_sparse(reference)


def test_restrict_is_deterministic_in_position_order():
    cells = {cell: float(cell) + 0.7 for cell in range(8)}
    total = float(sum(cells[cell] for cell in sorted(cells)))
    table = ContingencyTable(Itemset([3, 5, 9]), cells, n=total)
    forward = table.restrict([0, 2])
    backward = table.restrict([2, 0])  # positions are canonicalised
    duplicated = table.restrict([2, 0, 2])
    assert forward.itemset == backward.itemset == duplicated.itemset
    assert dict(forward.nonzero_counts()) == dict(backward.nonzero_counts())
    assert chi_squared_sparse(forward) == chi_squared_sparse(backward)
    assert chi_squared_sparse(forward) == chi_squared_sparse(duplicated)


def test_sparse_statistic_agrees_with_dense_on_full_tables():
    for ordering in _reorderings(_CELLS):
        table = ContingencyTable(Itemset([0, 1]), ordering, n=100.0)
        sparse = chi_squared_sparse(table)
        dense = chi_squared_dense(table)
        assert abs(sparse - dense) <= 1e-9 * max(1.0, dense)
