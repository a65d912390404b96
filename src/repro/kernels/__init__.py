"""Vectorized counting kernels (`repro.kernels`).

The NumPy-accelerated counting layer: a :class:`PackedBitmapIndex`
stores the vertical database as a ``(n_items, ceil(n/64))`` ``uint64``
matrix (built once per database, cached on it like the big-int
bitmaps), and three kernels count contingency cells on it —

* a **batched level-2 sweep** (`repro.kernels.sweep`) that counts all
  candidate pairs of a level in one vectorized row-broadcast AND +
  popcount pass (plus a level-3 twin),
* a **blocked level-k kernel** (`repro.kernels.blocked`) that walks the
  subset-support DFS once per level for a whole batch of candidates, in
  cache-resident chunks, and
* a **basket-major scan** (`repro.kernels.scan`) that unpacks wide
  itemsets' rows to ``uint8`` chunks and bins cell ids with
  ``np.unique``.

A static width table (:data:`KERNEL_BY_WIDTH`, applied by
:func:`kernel_for_width`) picks the kernel for each same-width group.

Every kernel computes exact integer counts, bit-identical to the
pure-Python kernels in :mod:`repro.core.contingency` (the differential
backend-equivalence suite enforces this).  The miner reaches this layer
through ``counting="vectorized"``; the sharded parallel engine composes
with it by running the same batch entry point per shard — either over a
shard-local database or over a zero-copy slice of the shared-memory
packed index (:mod:`repro.parallel.shm`).

When NumPy is missing, :func:`count_cells_batch` and
:func:`count_tables_vectorized` silently fall back to the pure-Python
kernels, so callers never need to gate on :data:`HAS_NUMPY` themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core import contingency as _contingency
from repro.core.contingency import ContingencyTable, count_cells
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.kernels.packed import HAS_NUMPY, PackedBitmapIndex, popcount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "HAS_NUMPY",
    "KERNEL_BY_WIDTH",
    "PackedBitmapIndex",
    "count_cells_batch",
    "count_cells_batch_packed",
    "count_cells_vectorized",
    "count_tables_vectorized",
    "kernel_for_width",
    "popcount",
]

# The kernel for each itemset width, as ``(widest k, kernel)`` rows in
# increasing order: closed-form grams for pairs and triples, the blocked
# subset-lattice kernel up to the pure-Python dense ceiling (2^12
# cells), and the basket-major scan up to the widest cell id int64
# holds.  Wider itemsets need big-int cell ids and only a database can
# count them (the pure-Python sparse scan).
KERNEL_BY_WIDTH = (
    (1, "unit"),
    (3, "gram"),
    (_contingency._MAX_DENSE_ITEMS, "blocked"),
    (63, "scan"),
)

# Widest itemset whose cell ids fit the scan kernel's int64 arithmetic.
_MAX_SCAN_ITEMS = KERNEL_BY_WIDTH[-1][0]


def kernel_for_width(k: int) -> str:
    """The kernel that counts width-``k`` itemsets on a packed index.

    >>> [kernel_for_width(k) for k in (1, 2, 3, 4, 12, 13, 63)]
    ['unit', 'gram', 'gram', 'blocked', 'blocked', 'scan', 'scan']
    """
    if k < 1:
        raise ValueError("a contingency table needs at least one item")
    for widest, kernel in KERNEL_BY_WIDTH:
        if k <= widest:
            return kernel
    raise ValueError(f"packed kernels cap at {_MAX_SCAN_ITEMS} items, got {k}")


def count_cells_batch(
    db: BasketDatabase,
    itemsets: Sequence[Itemset],
    metrics: "MetricsRegistry | None" = None,
) -> list[dict[int, int]]:
    """Exact sparse cell counts for a batch of itemsets, vectorized.

    The batch entry point behind ``counting="vectorized"`` and the
    parallel engine's shards: itemsets are grouped by width and each
    group is handed to the kernel :func:`kernel_for_width` names.
    Results align with the input order and are bit-identical to
    :func:`repro.core.contingency.count_cells` per itemset.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives one
    ``kernel_dispatch{path=...}`` increment per itemset recording which
    kernel counted it, plus the ``numpy_present`` gauge — the dispatch
    visibility the observability layer surfaces in run reports.
    """
    itemsets = list(itemsets)
    dispatch = _dispatch_recorder(metrics)
    if not HAS_NUMPY:
        dispatch("fallback", len(itemsets))
        return [count_cells(db, itemset) for itemset in itemsets]
    index = db.packed_index()
    results: list[dict[int, int] | None] = [None] * len(itemsets)
    packed_slots: list[int] = []
    packed_items: list[tuple[int, ...]] = []
    for slot, itemset in enumerate(itemsets):
        items = itemset.items
        k = len(items)
        if k == 0:
            raise ValueError("a contingency table needs at least one item")
        if k > _MAX_SCAN_ITEMS:
            # Cell ids overflow int64 past 63 items; the sparse Python
            # scan handles arbitrary widths with big-int cells.
            dispatch("fallback")
            results[slot] = _contingency._cells_by_scan(db, itemset)
        else:
            packed_slots.append(slot)
            packed_items.append(items)
    if packed_items:
        counted = count_cells_batch_packed(index, packed_items, record=dispatch)
        for slot, cells in zip(packed_slots, counted):
            results[slot] = cells
    return results  # type: ignore[return-value]


def count_cells_batch_packed(
    index: PackedBitmapIndex,
    candidates: Sequence[tuple[int, ...]],
    record=None,
) -> list[dict[int, int]]:
    """Sparse cell counts for sorted item-id tuples over a packed index.

    The database-free core of :func:`count_cells_batch`: everything it
    needs lives in the :class:`PackedBitmapIndex`, so shared-memory pool
    workers call it directly on a zero-copy view of the parent's packed
    matrix.  Candidates are grouped by width, each group counted by the
    kernel :func:`kernel_for_width` names.  Widths past the 63-item scan
    ceiling raise — only a database can count those (big-int cell ids);
    the callers route them beforehand.

    ``record`` is an optional ``(path, n)`` callable receiving one call
    per group, wired to the ``kernel_dispatch`` counters by
    :func:`count_cells_batch`.
    """
    from repro.kernels.blocked import count_cells_blocked
    from repro.kernels.scan import count_cells_scan
    from repro.kernels.sweep import count_pairs_batch, count_triples_batch

    candidates = list(candidates)
    results: list[dict[int, int] | None] = [None] * len(candidates)
    groups: dict[int, list[int]] = {}
    for slot, items in enumerate(candidates):
        groups.setdefault(len(items), []).append(slot)
    for k in sorted(groups):
        slots = groups[k]
        group = [candidates[slot] for slot in slots]
        path = kernel_for_width(k)
        if record is not None:
            record(path, len(group))
        if path == "unit":
            n = index.n_baskets
            counted = []
            for items in group:
                count = int(index.counts[items[0]])
                cells = {0b1: count, 0b0: n - count}
                counted.append({cell: c for cell, c in cells.items() if c})
        elif path == "gram":
            if k == 2:
                counted = count_pairs_batch(index, group)
            else:
                counted = count_triples_batch(index, group)
        elif path == "blocked":
            counted = count_cells_blocked(index, group)
        else:
            counted = [count_cells_scan(index, items) for items in group]
        for slot, cells in zip(slots, counted):
            results[slot] = cells
    return results  # type: ignore[return-value]


def _dispatch_recorder(metrics: "MetricsRegistry | None"):
    """A ``record(path, n=1)`` closure onto ``kernel_dispatch`` counters.

    Returns a shared no-op when metrics are absent so the dispatch loop
    stays unconditional.  Also stamps the ``numpy_present`` gauge, the
    run report's "which environment actually ran" signal.
    """
    if metrics is None:
        return _NO_DISPATCH
    metrics.gauge("numpy_present").set(1.0 if HAS_NUMPY else 0.0)

    def record(path: str, n: int = 1) -> None:
        metrics.counter("kernel_dispatch", path=path).inc(n)

    return record


def _NO_DISPATCH(path: str, n: int = 1) -> None:
    return None


def count_cells_vectorized(
    db: BasketDatabase,
    itemset: Itemset,
    metrics: "MetricsRegistry | None" = None,
) -> dict[int, int]:
    """Exact sparse cell counts for one itemset via the vectorized kernels."""
    return count_cells_batch(db, [itemset], metrics=metrics)[0]


def count_tables_vectorized(
    db: BasketDatabase,
    itemsets: Iterable[Itemset],
    metrics: "MetricsRegistry | None" = None,
) -> dict[Itemset, ContingencyTable]:
    """Contingency tables for a batch of itemsets via the vectorized kernels.

    :func:`count_cells_batch`'s cells, each assembled with
    :meth:`ContingencyTable.from_cell_counts` — for callers that want
    table objects; the miner itself decides on the cells.
    """
    itemsets = list(itemsets)
    n = db.n_baskets
    counted = count_cells_batch(db, itemsets, metrics=metrics)
    return {
        itemset: ContingencyTable.from_cell_counts(itemset, cells, n)
        for itemset, cells in zip(itemsets, counted)
    }
