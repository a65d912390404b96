"""The paper's cell-based support and anti-support (§4).

Classic support looks only at the all-present cell of the contingency
table, but correlation mining cares about *negative* dependence too, so
the paper redefines support: an itemset ``S`` has support ``s`` at the
``p%`` level when at least ``p%`` of the cells of its contingency table
have observed count ``>= s``.  With ``p`` a fraction (not an absolute
cell count) the measure is downward closed, so it can prune a level-wise
search.

The module also implements the special level-1 pruning the paper derives
for ``p > 0.25``: with more than a quarter of a 2x2 table's four cells
needing count ``s``, at least *two* cells must reach ``s``, and if
neither item occurs ``s`` times, only the both-absent cell can — so the
pair can be pruned from single-item counts alone.

Anti-support (only *rarely* occurring combinations are interesting) is
included as the paper sketches it for the fire-code example; §4 notes it
cannot be combined with the chi-squared test, which the miner enforces.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.contingency import ContingencyTable

__all__ = [
    "CellSupport",
    "AntiSupport",
    "level1_pair_may_have_support",
]


@dataclass(frozen=True, slots=True)
class CellSupport:
    """Downward-closed cell-based support test.

    Attributes:
        count: the per-cell count threshold ``s`` (absolute number of
            baskets, as in Figure 1's "cells have count s").
        fraction: the fraction ``p`` of cells that must reach ``s``;
            must exceed 0.25 for the level-1 pruning to apply.
    """

    count: float
    fraction: float = 0.25 + 1e-9

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"support count must be non-negative, got {self.count}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"support fraction must be in (0, 1], got {self.fraction}")

    def __call__(self, table: ContingencyTable) -> bool:
        """True when >= ``fraction`` of the table's cells have count >= ``count``."""
        return self.supports_cells(table.nonzero_counts(), table.n_items)

    def supports_cells(self, cells: Mapping[int, float], n_items: int) -> bool:
        """The support test on an itemset's occupied cells.

        "At least p% of the cells": compared against the exact real
        threshold ``fraction * 2^k``, counting a cell iff its count
        reaches s.
        """
        n_cells = 1 << n_items
        return self._cells_reaching(cells, n_cells) >= self.fraction * n_cells

    def supported_cell_count(self, table: ContingencyTable) -> int:
        """How many cells reach the count threshold (diagnostic)."""
        return self._cells_reaching(table.nonzero_counts(), table.n_cells)

    def _cells_reaching(self, cells: Mapping[int, float], n_cells: int) -> int:
        if self.count <= 0:
            # Every cell, occupied or not, trivially reaches a zero bar.
            return n_cells
        threshold = self.count
        return sum(1 for observed in cells.values() if observed >= threshold)

    @property
    def enables_level1_pruning(self) -> bool:
        """Whether ``fraction > 0.25`` so pair-level pruning is sound."""
        return self.fraction > 0.25


@dataclass(frozen=True, slots=True)
class AntiSupport:
    """Anti-support: all co-occurrence cells must stay *below* a ceiling.

    An itemset passes when every cell with at least two items present
    has observed count <= ``ceiling`` — the combination is rare, like
    the fires of the paper's fire-code example.  Upward closed in the
    sense that making the itemset larger only splits cells further, but
    the paper notes it must not be combined with the chi-squared test
    (the approximation is invalid on rare events), and the miner refuses
    that combination.
    """

    ceiling: float

    def __post_init__(self) -> None:
        if self.ceiling < 0:
            raise ValueError(f"anti-support ceiling must be non-negative, got {self.ceiling}")

    def __call__(self, table: ContingencyTable) -> bool:
        for cell in table.occupied_cells():
            if bin(cell).count("1") >= 2 and table.observed(cell) > self.ceiling:
                return False
        return True


def level1_pair_may_have_support(
    count_a: float,
    count_b: float,
    n: float,
    support: CellSupport,
) -> bool:
    """The paper's special level-1 pruning test for a pair (§4).

    Sound only when ``support.fraction > 0.25``, i.e. at least two of
    the four cells of the pair's table must reach ``s``.  The four cell
    counts are bounded by::

        O(ab)   <= min(count_a, count_b)
        O(a~b)  <= min(count_a, n - count_b)
        O(~ab)  <= min(n - count_a, count_b)
        O(~a~b) <= min(n - count_a, n - count_b)

    If fewer than the required number of those bounds reach ``s``, no
    pair of these two items can be supported, and the candidate is
    pruned using only the level-1 counts.  This covers both directions
    the paper mentions: many rare items (the cells requiring presence
    are capped) *and* many very common items (the cells requiring
    absence are capped).

    Note: Figure 1's Step 3 prunes more aggressively — it requires
    ``O(ia) > s`` and ``O(ib) > s`` outright — which can discard pairs
    whose absence cells alone would satisfy ``p <= 0.5``.  We implement
    the sound bound-counting version derived in the running text of §4.
    """
    if not support.enables_level1_pruning:
        return True
    s = support.count
    absent_a = n - count_a
    absent_b = n - count_b
    bounds = (
        min(count_a, count_b),
        min(count_a, absent_b),
        min(absent_a, count_b),
        min(absent_a, absent_b),
    )
    achievable = sum(1 for bound in bounds if bound >= s)
    needed = support.fraction * 4
    return achievable >= needed
