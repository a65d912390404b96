"""Contingency tables over itemsets.

Section 3 of the paper views an itemset ``{i1..ik}`` through its
``2^k``-cell contingency table: cell ``r`` counts the baskets matching a
specific presence/absence pattern of the k items.  Expected cell values
are computed under the independence assumption,
``E[r] = n * prod_j E[r_j]/n``, from the single-item occurrence counts.

Cells are addressed by an integer in ``[0, 2^k)`` whose bit ``j`` (least
significant first) says whether the ``j``-th item of the (sorted)
itemset is *present*.  So for a pair, cell ``0b11`` is "both present"
and cell ``0b00`` is "neither".

Tables are stored sparsely — only occupied cells — which is what makes
the paper's ``O(min(n, 2^i))`` chi-squared evaluation possible.  Two
construction strategies are provided:

* :meth:`ContingencyTable.from_database` uses the database's vertical
  bitmaps and a superset Möbius inversion to obtain exact cell counts
  from ``2^k`` intersection popcounts (fast for the small itemsets a
  level-wise miner visits);
* :func:`count_cells_single_pass` implements the paper's alternative of
  one pass over the database per level, counting many itemsets at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase

__all__ = [
    "ContingencyTable",
    "ExpectedValueValidity",
    "count_cells",
    "count_cells_single_pass",
    "expected_spectrum",
    "pair_cells",
]

# Above this many items, the Möbius/bitmap construction (which touches
# all 2^k masks) gives way to a single sparse pass over the baskets.
_MAX_DENSE_ITEMS = 12


def expected_spectrum(probabilities: Sequence[float], n: float) -> list[float]:
    """E[r] of every cell in ascending order, built by doubling: ``O(2^k)``
    multiplications in :meth:`ContingencyTable.expected`'s factor order,
    so each value is bit-identical to the per-cell evaluation."""
    spectrum = [float(n)]
    for p in probabilities:
        spectrum = [e * (1.0 - p) for e in spectrum] + [e * p for e in spectrum]
    return spectrum


def pair_cells(n: int, count_a: int, count_b: int, both: int) -> dict[int, int]:
    """The occupied cells of a pair's 2x2 table; bit 0 is item ``a``.

    Empty cells are omitted like every counting backend omits them: a
    zero entry would send ``chi2_from_cells`` down its dense branch.
    """
    cells: dict[int, int] = {}
    if both:
        cells[0b11] = both
    only_a = count_a - both
    if only_a:
        cells[0b01] = only_a
    only_b = count_b - both
    if only_b:
        cells[0b10] = only_b
    neither = n - count_a - count_b + both
    if neither:
        cells[0b00] = neither
    return cells


def _cell_marginals(cells: Mapping[int, float], k: int) -> tuple[float, ...]:
    """Each item's occurrences, summed over the cells in ascending order.

    The marginals are float sums and a mapping's insertion order is
    whatever its producer chose; the canonical order keeps the tables
    of every counting backend identical even for float-valued counts.
    """
    marginals = [0.0] * k
    for cell in sorted(cells):
        count = cells[cell]
        for j in range(k):
            if (cell >> j) & 1:
                marginals[j] += count
    return tuple(marginals)


@dataclass(frozen=True, slots=True)
class ExpectedValueValidity:
    """Rule-of-thumb validity of the chi-squared approximation (§3.3).

    Statistics texts (Moore [22]) recommend trusting the chi-squared
    test only when every cell has expected value > 1 and at least 80% of
    cells have expected value > 5.
    """

    min_expected: float
    fraction_above_five: float

    @property
    def is_valid(self) -> bool:
        """True when the table passes both rule-of-thumb conditions."""
        return self.min_expected > 1.0 and self.fraction_above_five >= 0.8


class ContingencyTable:
    """A sparse ``2^k``-cell contingency table for one itemset.

    The table always covers the *whole* database, so the single-item
    marginals used for expectations are recoverable from the table
    itself and the counts sum to ``n``.
    """

    __slots__ = ("_itemset", "_n", "_counts", "_marginals")

    def __init__(
        self,
        itemset: Itemset,
        counts: Mapping[int, float],
        n: float | None = None,
    ) -> None:
        k = len(itemset)
        if k == 0:
            raise ValueError("a contingency table needs at least one item")
        n_cells = 1 << k
        cleaned: dict[int, float] = {}
        for cell, count in counts.items():
            if not 0 <= cell < n_cells:
                raise ValueError(f"cell index {cell} out of range for {k} items")
            if count < 0:
                raise ValueError(f"cell counts must be non-negative, got {count}")
            if count:
                cleaned[cell] = count
        total = sum(cleaned[cell] for cell in sorted(cleaned))
        if n is None:
            n = total
        elif total - n > 1e-9 * max(1.0, n):
            raise ValueError(f"cell counts sum to {total}, more than n={n}")
        if n <= 0:
            raise ValueError("the table must contain at least one observation")
        self._itemset = itemset
        self._n = n
        self._counts = cleaned
        self._marginals: tuple[float, ...] = _cell_marginals(cleaned, k)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_database(cls, db: BasketDatabase, itemset: Itemset) -> "ContingencyTable":
        """Exact cell counts for ``itemset`` over ``db``.

        Bypasses the public constructor's validation: counts produced by
        the counting kernels are sound by construction, and the table
        marginals are exactly the database item counts.
        """
        counts = count_cells(db, itemset)
        table = object.__new__(cls)
        table._itemset = itemset
        table._n = db.n_baskets
        table._counts = counts
        # A list, not a generator: measurably cheaper at this call rate.
        table._marginals = tuple([float(db.item_count(i)) for i in itemset.items])
        return table

    @classmethod
    def from_cell_counts(
        cls, itemset: Itemset, cells: Mapping[int, int], n: float
    ) -> "ContingencyTable":
        """Assemble a table from exact counted cells over a whole database.

        How the miner builds the table of an itemset entering SIG from
        any counting backend's cells: bypasses the validating
        constructor (counts from the counting kernels are sound by
        construction) and derives the marginals from the cells, so every
        backend produces identical tables.
        """
        occupied = {cell: count for cell, count in cells.items() if count}
        table = object.__new__(cls)
        table._itemset = itemset
        table._n = n
        table._counts = occupied
        table._marginals = _cell_marginals(occupied, len(itemset))
        return table

    @classmethod
    def from_percentages(
        cls,
        itemset: Itemset,
        percentages: Mapping[int, float],
        n: float = 100.0,
    ) -> "ContingencyTable":
        """Build a table from cell *percentages*, as the paper's examples do.

        ``percentages`` maps cell index to percent of baskets; counts are
        scaled so they sum to ``n``.
        """
        total = sum(percentages[cell] for cell in sorted(percentages))
        if total <= 0:
            raise ValueError("percentages must sum to a positive value")
        scale = n / total
        counts = {cell: pct * scale for cell, pct in percentages.items()}
        return cls(itemset, counts, n=n)

    # -- shape ----------------------------------------------------------------

    @property
    def itemset(self) -> Itemset:
        """The itemset this table describes."""
        return self._itemset

    @property
    def n(self) -> float:
        """Total number of observations (baskets)."""
        return self._n

    @property
    def n_items(self) -> int:
        """Number of items, i.e. table dimensionality k."""
        return len(self._itemset)

    @property
    def n_cells(self) -> int:
        """Total number of cells, ``2^k``."""
        return 1 << len(self._itemset)

    def cells(self) -> range:
        """All cell indices, occupied or not."""
        return range(self.n_cells)

    def occupied_cells(self) -> Iterator[int]:
        """Cell indices with a non-zero observed count, ascending."""
        return iter(sorted(self._counts))

    def nonzero_counts(self) -> Mapping[int, float]:
        """Read-only view of the occupied cells (cell -> observed count).

        The hot paths (chi-squared, cell support) iterate this directly
        rather than going through :meth:`observed` per cell.
        """
        return self._counts

    def marginal_probabilities(self) -> tuple[float, ...]:
        """p(i_j) for every itemset position, precomputed once."""
        n = self._n
        return tuple(m / n for m in self._marginals)

    @property
    def n_occupied(self) -> int:
        """Number of cells with a non-zero observed count."""
        return len(self._counts)

    def cell_pattern(self, cell: int) -> tuple[bool, ...]:
        """Presence flags of the cell, ordered like ``itemset.items``."""
        return tuple(bool((cell >> j) & 1) for j in range(self.n_items))

    def cell_of_pattern(self, pattern: Sequence[bool]) -> int:
        """Inverse of :meth:`cell_pattern`."""
        if len(pattern) != self.n_items:
            raise ValueError(
                f"pattern has {len(pattern)} flags for a {self.n_items}-item table"
            )
        cell = 0
        for j, present in enumerate(pattern):
            if present:
                cell |= 1 << j
        return cell

    # -- observed and expected -------------------------------------------------

    def observed(self, cell: int) -> float:
        """O(r): the observed count of a cell, always ``float``-typed.

        Empty cells return ``0.0`` (not the int ``0``) so callers of
        ``from_percentages`` tables — whose occupied counts are floats —
        see one consistent type across all cells.
        """
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell index {cell} out of range")
        return float(self._counts.get(cell, 0.0))

    def marginal(self, position: int) -> float:
        """O(i_j): occurrences of the ``position``-th item of the itemset."""
        return self._marginals[position]

    def item_probability(self, position: int) -> float:
        """Estimated p(i_j) = O(i_j) / n."""
        return self._marginals[position] / self._n

    def expected(self, cell: int) -> float:
        """E[r] under full independence of the items (paper §3)."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell index {cell} out of range")
        value = self._n
        for j in range(self.n_items):
            p = self._marginals[j] / self._n
            value *= p if (cell >> j) & 1 else 1.0 - p
        return value

    def observed_expected(self, occupied_only: bool = False) -> Iterator[tuple[float, float]]:
        """Yield ``(observed, expected)`` pairs over cells.

        With ``occupied_only`` the iteration is the sparse one the
        paper's massaged chi-squared formula needs.
        """
        cells = self.occupied_cells() if occupied_only else self.cells()
        for cell in cells:
            yield self.observed(cell), self.expected(cell)

    # -- diagnostics -----------------------------------------------------------

    def validity(self) -> ExpectedValueValidity:
        """Rule-of-thumb check for the chi-squared approximation (§3.3),
        read off the table's :func:`expected_spectrum`."""
        expected_list = expected_spectrum(self.marginal_probabilities(), self._n)
        return ExpectedValueValidity(
            min_expected=min(expected_list),
            fraction_above_five=sum(1 for e in expected_list if e > 5.0) / self.n_cells,
        )

    def to_dense(self):
        """The table as a numpy array of shape ``(2,) * k``.

        Axis ``j`` corresponds to the ``j``-th item of the itemset;
        index 1 means present, 0 absent.
        """
        import numpy as np

        arr = np.zeros((2,) * self.n_items)
        for cell, count in self._counts.items():
            idx = tuple((cell >> j) & 1 for j in range(self.n_items))
            arr[idx] = count
        return arr

    def restrict(self, positions: Sequence[int]) -> "ContingencyTable":
        """Marginalise the table down to a subset of its items.

        ``positions`` index into the itemset; the result is the
        contingency table of the sub-itemset, obtained by summing out
        the dropped dimensions.  This is the paper's "merely restrict
        the range of r" operation, done without re-reading the database.
        """
        positions = sorted(set(positions))
        if not positions:
            raise ValueError("cannot restrict to zero items")
        if positions[-1] >= self.n_items:
            raise ValueError(f"position {positions[-1]} out of range")
        sub_items = Itemset(self._itemset[p] for p in positions)
        sub_counts: dict[int, float] = {}
        for cell, count in self._counts.items():
            sub_cell = 0
            for new_j, p in enumerate(positions):
                if (cell >> p) & 1:
                    sub_cell |= 1 << new_j
            sub_counts[sub_cell] = sub_counts.get(sub_cell, 0) + count
        return ContingencyTable(sub_items, sub_counts, n=self._n)

    def __repr__(self) -> str:
        return (
            f"ContingencyTable(itemset={self._itemset!r}, n={self._n}, "
            f"occupied={self.n_occupied}/{self.n_cells})"
        )


def count_cells(db: BasketDatabase, itemset: Itemset) -> dict[int, int]:
    """Exact sparse cell counts (cell index -> count) for one itemset.

    The shared counting kernel behind :meth:`ContingencyTable.from_database`
    and the sharded parallel engine (`repro.parallel`): narrow itemsets go
    through the bitmap/Möbius path, wide ones through one sparse scan.
    Counts cover the whole database, so they sum to ``db.n_baskets``.
    """
    if len(itemset) == 0:
        raise ValueError("a contingency table needs at least one item")
    if len(itemset) <= _MAX_DENSE_ITEMS:
        return _cells_by_moebius(db, itemset)
    return _cells_by_scan(db, itemset)


def _cells_pair(db: BasketDatabase, a: int, b: int) -> dict[int, int]:
    """Specialised pair counting: one bitmap AND, the rest by subtraction.

    This is the miner's hottest operation at level 2, so it bypasses the
    generic Möbius machinery.
    """
    both = (db.item_bitmap(a) & db.item_bitmap(b)).bit_count()
    return pair_cells(db.n_baskets, db.item_count(a), db.item_count(b), both)


def _cells_triple(db: BasketDatabase, a: int, b: int, c: int) -> dict[int, int]:
    """Specialised triple counting: four ANDs + inclusion-exclusion."""
    n = db.n_baskets
    bm_a, bm_b, bm_c = db.item_bitmap(a), db.item_bitmap(b), db.item_bitmap(c)
    ab = bm_a & bm_b
    n_ab = ab.bit_count()
    n_ac = (bm_a & bm_c).bit_count()
    n_bc = (bm_b & bm_c).bit_count()
    n_abc = (ab & bm_c).bit_count()
    n_a, n_b, n_c = db.item_count(a), db.item_count(b), db.item_count(c)
    cells = {
        0b111: n_abc,
        0b011: n_ab - n_abc,
        0b101: n_ac - n_abc,
        0b110: n_bc - n_abc,
        0b001: n_a - n_ab - n_ac + n_abc,
        0b010: n_b - n_ab - n_bc + n_abc,
        0b100: n_c - n_ac - n_bc + n_abc,
        0b000: n - n_a - n_b - n_c + n_ab + n_ac + n_bc - n_abc,
    }
    return {cell: count for cell, count in cells.items() if count}


def _cells_by_moebius(db: BasketDatabase, itemset: Itemset) -> dict[int, int]:
    """Cell counts from subset supports via superset Möbius inversion.

    First computes ``g[m]`` = number of baskets containing all items of
    mask ``m`` (2^k popcounts over the item bitmaps, sharing work along
    a DFS), then inverts ``count[c] = sum_{m >= c} (-1)^{|m \\ c|} g[m]``
    in-place in ``O(k 2^k)``.  Sizes 2 and 3 — the bulk of any level-wise
    mine — take closed-form shortcuts.
    """
    items = itemset.items
    k = len(items)
    if k == 2:
        return _cells_pair(db, items[0], items[1])
    if k == 3:
        return _cells_triple(db, items[0], items[1], items[2])
    n_cells = 1 << k
    g = [0] * n_cells
    g[0] = db.n_baskets

    # DFS over masks: extend the running intersection one item at a time.
    # The stack holds (mask, bitmap-of-mask, next item position); a bitmap
    # of -1 stands for "all baskets" so the root never materialises it.
    stack: list[tuple[int, int, int]] = [(0, -1, 0)]
    while stack:
        mask, bitmap, start = stack.pop()
        for j in range(start, k):
            new_mask = mask | (1 << j)
            if bitmap == -1:
                new_bitmap = db.item_bitmap(items[j])
            else:
                new_bitmap = bitmap & db.item_bitmap(items[j])
            g[new_mask] = new_bitmap.bit_count()
            stack.append((new_mask, new_bitmap, j + 1))

    # In-place superset Möbius inversion.
    for j in range(k):
        bit = 1 << j
        for mask in range(n_cells):
            if not mask & bit:
                g[mask] -= g[mask | bit]
    return {cell: count for cell, count in enumerate(g) if count}


def _cells_by_scan(db: BasketDatabase, itemset: Itemset) -> dict[int, int]:
    """Cell counts by one sparse pass over the baskets.

    Only cells that actually occur are touched, so this works for
    itemsets far too wide for a dense table.  Cell 0 (all absent) is
    derived from the total rather than counted.
    """
    bit_of = {item: 1 << j for j, item in enumerate(itemset.items)}
    counts: dict[int, int] = {}
    seen = 0
    for basket in db:
        cell = 0
        for item in basket:
            bit = bit_of.get(item)
            if bit is not None:
                cell |= bit
        if cell:
            counts[cell] = counts.get(cell, 0) + 1
            seen += 1
    remainder = db.n_baskets - seen
    if remainder:
        counts[0] = remainder
    return counts


def count_cells_single_pass(
    db: BasketDatabase, itemsets: Iterable[Itemset]
) -> list[dict[int, int]]:
    """Exact sparse cells for many itemsets in one database pass.

    This is the strategy §4 of the paper describes for a level-wise
    miner: "make one pass over the database at each level, constructing
    all the necessary contingency tables at once".  An inverted index
    from items to the candidate itemsets containing them confines the
    per-basket work to candidates the basket actually intersects; the
    all-absent cell is recovered from the total count afterwards.
    Results align with ``itemsets``.
    """
    itemsets = list(itemsets)
    bit_of: dict[Itemset, dict[int, int]] = {}
    by_item: dict[int, list[Itemset]] = {}
    for s in itemsets:
        bits = {item: 1 << j for j, item in enumerate(s.items)}
        bit_of[s] = bits
        for item in s:
            by_item.setdefault(item, []).append(s)

    counts: dict[Itemset, dict[int, int]] = {s: {} for s in itemsets}
    touched_total: dict[Itemset, int] = {s: 0 for s in itemsets}
    for basket in db:
        patterns: dict[Itemset, int] = {}
        for item in basket:
            for s in by_item.get(item, ()):
                patterns[s] = patterns.get(s, 0) | bit_of[s][item]
        # replint: disable=RPR003 -- integer increments only; addition is exact, order cannot change the counts
        for s, cell in patterns.items():
            cells = counts[s]
            cells[cell] = cells.get(cell, 0) + 1
            touched_total[s] += 1

    n = db.n_baskets
    for s in itemsets:
        remainder = n - touched_total[s]
        if remainder:
            counts[s][0] = remainder
    return [counts[s] for s in itemsets]
