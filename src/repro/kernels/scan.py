"""Batched single-pass scan for wide itemsets, basket-major.

Itemsets wider than the Möbius cutoff have too many cells for a dense
``2^k`` table walk, but their *occupied* cells are at most ``n``.  The
pure-Python fallback classifies each basket with a dict probe per item;
this kernel instead unpacks the items' packed bitmap rows to a
``(k, n)`` 0/1 ``uint8`` matrix — basket-major after the transpose the
shifts imply — folds the k presence bits of each basket into its cell
id with vectorized shifts, and reads the sparse table off
``np.unique(..., return_counts=True)``.

Baskets are processed in bounded chunks so the unpacked bit matrix
never exceeds ~:data:`CHUNK_BYTES` of scratch.  Cell ids are built in
``int64``, which caps the kernel at 63 items; the width table in
:mod:`repro.kernels` routes anything wider to the pure-Python scan.
"""

from __future__ import annotations

from repro.kernels.packed import PackedBitmapIndex

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = ["CHUNK_BYTES", "MAX_SCAN_ITEMS", "count_cells_scan"]

# Scratch budget for one chunk's unpacked (k, chunk_baskets) bit matrix.
CHUNK_BYTES = 1 << 24
# int64 cell ids: bit 63 is the sign bit, so 63 items is the ceiling.
MAX_SCAN_ITEMS = 63


def count_cells_scan(index: PackedBitmapIndex, items) -> dict[int, int]:
    """Sparse cell counts for one wide itemset (``k <= 63``)."""
    k = len(items)
    if k > MAX_SCAN_ITEMS:
        raise ValueError(f"scan kernel handles at most {MAX_SCAN_ITEMS} items, got {k}")
    rows = index.rows(items)
    n = index.n_baskets
    counts: dict[int, int] = {}
    if n == 0:
        return counts

    # Chunk along the word axis: every word is a self-contained run of
    # 64 baskets, so per-chunk cell ids never mix across chunks.
    words_per_chunk = max(1, CHUNK_BYTES // (64 * max(1, k)))
    for word_start in range(0, rows.shape[1], words_per_chunk):
        block = rows[:, word_start : word_start + words_per_chunk]
        as_bytes = np.ascontiguousarray(block).astype("<u8").view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        # Padding bits past n_baskets are zero in every row, but they
        # would still count as cell 0 — slice them off.
        basket_start = word_start * 64
        valid = min(n - basket_start, bits.shape[1])
        cells = np.zeros(valid, dtype=np.int64)
        for j in range(k):
            cells |= bits[j, :valid].astype(np.int64) << j
        values, tallies = np.unique(cells, return_counts=True)
        for cell, tally in zip(values.tolist(), tallies.tolist()):
            counts[cell] = counts.get(cell, 0) + tally
    return counts
