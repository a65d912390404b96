"""The cell recipes against the table API they back.

The miner decides every candidate on its counted cells with
:meth:`CellSupport.supports_cells` and one statistic recipe —
:func:`chi2_from_cells`, :func:`chi2_from_cells_ignoring_small` or
:func:`g_from_cells`; the table forms (:func:`chi_squared`,
:func:`chi_squared_ignoring_small_cells`, ``g_statistic`` over
``observed_expected``, ``CellSupport(table)``) must agree with them
exactly — same float, same exception — on every table shape: k = 1..6,
full tables (the dense branch), sparse ones, and marginals pinned at 0
or n (structural zeros).  The backend-equivalence suite only compares
backends with each other, so these are what pin the values themselves.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given

from repro.core.contingency import ContingencyTable
from repro.core.correlation import (
    chi2_from_cells,
    chi2_from_cells_ignoring_small,
    chi_squared,
    chi_squared_dense,
    chi_squared_ignoring_small_cells,
    g_from_cells,
)
from repro.core.itemsets import Itemset
from repro.measures.cellsupport import CellSupport
from repro.stats.gtest import g_statistic


@st.composite
def cell_tables(draw) -> tuple[int, dict[int, int]]:
    """``(k, occupied cells)``: full, sparse, or with one item pinned."""
    k = draw(st.integers(1, 6))
    n_cells = 1 << k
    shape = draw(st.sampled_from(["full", "sparse", "pinned"]))
    if shape == "full":
        occupied = list(range(n_cells))
    else:
        occupied = draw(
            st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=n_cells, unique=True)
        )
    if shape == "pinned":
        # Item j in every basket (or in none): its marginal is n (or 0).
        bit = 1 << draw(st.integers(0, k - 1))
        present = draw(st.booleans())
        occupied = sorted({cell | bit if present else cell & ~bit for cell in occupied})
    counts = draw(
        st.lists(st.integers(1, 10**6), min_size=len(occupied), max_size=len(occupied))
    )
    return k, dict(zip(occupied, counts))


def item_counts(k: int, cells: dict[int, int]) -> list[int]:
    """Each item's occurrence count, summed as integers like a database's."""
    return [sum(count for cell, count in sorted(cells.items()) if cell >> j & 1) for j in range(k)]


def outcome(function, *args):
    """The function's value, or the type of the error it raised.

    ``ZeroDivisionError`` is the chi-squared sums' degenerate table,
    ``ValueError`` the G statistic's.
    """
    try:
        return function(*args)
    except (ZeroDivisionError, ValueError) as error:
        return type(error)


# Six items each present in one basket of 10^300: every all-present
# expectation underflows to 0.0 while the cell is occupied.
_UNDERFLOW = (6, {0: 10**300, 0b111111: 1})


@given(cell_tables())
@example(_UNDERFLOW)
def test_chi2_from_cells_is_chi_squared(table_cells):
    k, cells = table_cells
    n = sum(cells.values())
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, n)
    expected = outcome(chi_squared, table)
    assert outcome(chi2_from_cells, cells, item_counts(k, cells), n) == expected
    if len(cells) == 1 << k:
        # Full tables take the dense branch: the textbook sum, exactly.
        assert outcome(chi_squared_dense, table) == expected


def test_chi2_from_cells_raises_on_underflowed_expectation():
    k, cells = _UNDERFLOW
    n = sum(cells.values())
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, n)
    assert outcome(chi_squared, table) is ZeroDivisionError
    assert outcome(chi2_from_cells, cells, item_counts(k, cells), n) is ZeroDivisionError


def table_g(table: ContingencyTable) -> float:
    """The G statistic the miner's table path computed."""
    return g_statistic(table.observed_expected(occupied_only=True))


@given(cell_tables())
@example(_UNDERFLOW)
def test_g_from_cells_is_table_g(table_cells):
    k, cells = table_cells
    n = sum(cells.values())
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, n)
    assert outcome(g_from_cells, cells, item_counts(k, cells), n) == outcome(table_g, table)


def small_cell_reference(table: ContingencyTable, floor: float) -> float:
    """§3.3's truncated sum, one :meth:`~ContingencyTable.expected` per cell."""
    total = 0.0
    for cell in table.cells():
        observed, expected = table.observed(cell), table.expected(cell)
        if expected < floor:
            continue
        if expected == 0.0:
            if observed:
                raise ZeroDivisionError
            continue
        deviation = observed - expected
        total += deviation * deviation / expected
    return total


@st.composite
def small_cell_cases(draw):
    """A table plus a floor: zero, on one of its expectations, or above all."""
    k, cells = draw(cell_tables())
    n = sum(cells.values())
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, n)
    expectations = [table.expected(cell) for cell in table.cells()]
    floor = draw(st.sampled_from([0.0, *expectations, float(n) + 1.0]))
    return k, cells, floor


@given(small_cell_cases())
@example((*_UNDERFLOW, 0.0))
@example((*_UNDERFLOW, 1.0))
def test_small_cell_chi2_from_cells_is_table_form(case):
    k, cells, floor = case
    n = sum(cells.values())
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, n)
    expected = outcome(small_cell_reference, table, floor)
    assert outcome(chi_squared_ignoring_small_cells, table, floor) == expected
    assert outcome(chi2_from_cells_ignoring_small, cells, item_counts(k, cells), n, floor) == (
        expected
    )
    if floor > n:
        # Every expectation is at most n: the whole table is truncated away.
        assert expected == 0.0


@st.composite
def support_cases(draw):
    """A table plus a support test whose thresholds often sit exactly on it."""
    k, cells = draw(cell_tables())
    n_cells = 1 << k
    # fraction * 2^k lands exactly on an integer number of cells, and the
    # count on one of the table's own cell values — or on zero.
    fraction = draw(st.integers(1, n_cells)) / n_cells
    count = draw(st.one_of(st.just(0), st.sampled_from(sorted(cells.values()))))
    return k, cells, CellSupport(count=count, fraction=fraction)


@given(support_cases())
def test_supports_cells_is_cell_support(case):
    k, cells, support = case
    n_cells = 1 << k
    table = ContingencyTable.from_cell_counts(Itemset(range(k)), cells, sum(cells.values()))
    reaching = sum(1 for cell in range(n_cells) if cells.get(cell, 0) >= support.count)
    assert support.supports_cells(cells, k) == support(table)
    assert support(table) == (reaching >= support.fraction * n_cells)
