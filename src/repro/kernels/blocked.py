"""Blocked level-k counting kernel — batched over the candidate axis.

The array form of the pure-Python Möbius kernel: where
``repro.core.contingency._cells_by_moebius`` walks the subset-support
DFS once per candidate (paying Python loop overhead ``2^k`` times per
itemset), this kernel processes a whole same-width batch at once.  The DFS over
item masks runs exactly once; at every mask the running intersection is
a ``(c, n_words)`` *matrix* — one row per candidate — so the AND and
the popcount are single vectorized operations across the entire batch.
The superset-to-cell Möbius inversion then folds the ``(c, 2^k)``
support matrix with one strided subtraction per item, the candidate
axis riding along for free.

Blocking: candidates are processed in chunks sized so the live working
set (the ``k`` gathered item-row blocks plus at most ``k`` path
intersections) stays within :data:`BLOCK_WORDS` words of scratch, i.e.
cache-resident for the levels a miner actually visits, regardless of
how many candidates a level has.

Exactness: every support is an integer popcount summed in ``int64`` and
the inversion is integer subtraction, so the resulting cells are
bit-identical to the pure-Python kernels (the differential backend-equivalence suite pins
this down for k = 2..6 explicitly).

The dense ``2^k`` table walk caps the kernel at
:data:`BLOCKED_MAX_ITEMS` items; the width table in
:mod:`repro.kernels` routes wider itemsets to the basket-major scan.
"""

from __future__ import annotations

from repro.kernels.packed import PackedBitmapIndex, popcount

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = ["BLOCKED_MAX_ITEMS", "BLOCK_WORDS", "count_cells_blocked", "mask_supports"]

# Dense-table ceiling, shared with the pure-Python Möbius kernel (2^k
# cells per row).
BLOCKED_MAX_ITEMS = 12

# Scratch budget in uint64 words for one chunk's live arrays (~16 MiB).
BLOCK_WORDS = 1 << 21


def mask_supports(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """``g[i, m]`` = baskets containing every item of mask ``m`` of row ``i``.

    ``ids`` is a ``(c, k)`` integer array of item ids; the result is the
    ``(c, 2^k)`` subset-support matrix (``g[:, 0] = n``).  One DFS over
    the ``2^k`` masks, sharing the running intersection along the path;
    every node costs one batched AND plus one batched popcount.
    """
    c, k = ids.shape
    g = np.empty((c, 1 << k), dtype=np.int64)
    g[:, 0] = index.n_baskets
    if c == 0 or k == 0:
        return g
    packed = index.packed
    gathered = [packed[ids[:, j]] for j in range(k)]

    def descend(mask: int, rows, start: int) -> None:
        for j in range(start, k):
            new_mask = mask | (1 << j)
            new_rows = gathered[j] if rows is None else rows & gathered[j]
            g[:, new_mask] = popcount(new_rows).sum(axis=1, dtype=np.int64)
            if j + 1 < k:
                descend(new_mask, new_rows, j + 1)

    descend(0, None, 0)
    return g


def count_cells_blocked(index: PackedBitmapIndex, candidates) -> list[dict[int, int]]:
    """Sparse cell counts for a same-width batch of sorted item-id tuples.

    All candidates must have the same width ``k`` with
    ``1 <= k <= BLOCKED_MAX_ITEMS``; the dispatcher owns the grouping.
    Results align with the input order.
    """
    n_candidates = len(candidates)
    if n_candidates == 0:
        return []
    ids = np.asarray(candidates, dtype=np.intp).reshape(n_candidates, -1)
    k = ids.shape[1]
    if k > BLOCKED_MAX_ITEMS:
        raise ValueError(
            f"blocked kernel handles at most {BLOCKED_MAX_ITEMS} items, got {k}"
        )
    width = max(1, index.n_words)
    # Live scratch per candidate row: k gathered blocks + <= k path rows.
    step = max(1, BLOCK_WORDS // (width * max(1, 2 * k)))
    results: list[dict[int, int]] = []
    for start in range(0, n_candidates, step):
        g = mask_supports(index, ids[start : start + step])
        # In-place superset Möbius inversion along the cell axis, the
        # candidate axis vectorized: for every mask without bit j,
        # subtract the mask with bit j set.
        chunk = g.shape[0]
        for j in range(k):
            folded = g.reshape(chunk, -1, 2, 1 << j)
            folded[:, :, 0, :] -= folded[:, :, 1, :]
        for row in g.tolist():
            results.append({cell: count for cell, count in enumerate(row) if count})
    return results
