"""The packed-bitmap vertical index and vectorized popcount.

:class:`PackedBitmapIndex` is the NumPy counterpart of the database's
Python big-int bitmaps: the whole vertical database as one
``(n_items, ceil(n/64))`` ``uint64`` array, item-major, bit ``i`` of a
row saying whether basket ``i`` contains the item.  Word ``w`` of a row
covers baskets ``[64w, 64w + 64)`` with little-endian bit order inside
the word, exactly the layout ``int.to_bytes(..., "little")`` produces —
so a row round-trips to the big-int bitmap bit for bit.

All kernels in this package reduce to two array operations on this
index: a bitwise AND of row blocks and a population count.  Popcount
uses ``np.bitwise_count`` where NumPy provides it (>= 1.26) and a
16-bit lookup table otherwise; both return exact integers, so every
kernel built on them is exact by construction.

This module imports cleanly without NumPy (``HAS_NUMPY`` is False and
the index constructor raises); callers gate on :data:`HAS_NUMPY` and
fall back to the pure-Python kernels in :mod:`repro.core.contingency`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.basket import BasketDatabase

try:
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

__all__ = ["HAS_NUMPY", "PackedBitmapIndex", "popcount"]


if HAS_NUMPY and hasattr(np, "bitwise_count"):

    def popcount(array):
        """Per-element population count of a ``uint64`` array (exact)."""
        return np.bitwise_count(array)

elif HAS_NUMPY:  # pragma: no cover - NumPy < 1.26 fallback
    # 16-bit lookup table, built by doubling: popcount(2i) = popcount(i),
    # popcount(2i + 1) = popcount(i) + 1.
    _LUT16 = np.zeros(1, dtype=np.uint8)
    while _LUT16.size < (1 << 16):
        _LUT16 = np.concatenate([_LUT16, _LUT16 + 1])

    def popcount(array):
        """Per-element population count via four 16-bit table lookups."""
        halfwords = _LUT16[array.reshape(-1).view(np.uint16)]
        return halfwords.reshape(array.shape + (4,)).sum(axis=-1, dtype=np.uint8)

else:  # pragma: no cover - exercised in minimal installs

    def popcount(array):
        raise RuntimeError("popcount requires numpy; install the [fast] extra")


class PackedBitmapIndex:
    """The vertical database as a dense ``(n_items, n_words)`` uint64 array.

    Attributes:
        packed: the bitmap matrix; row ``i`` is item ``i``'s bitmap.
        counts: per-item basket counts, ``int64``, equal to
            ``BasketDatabase.item_counts()``.
        n_baskets: number of baskets (bits in use per row).
        n_words: ``ceil(n_baskets / 64)``, at least 1 so shapes stay
            valid on an empty database.
    """

    __slots__ = ("packed", "counts", "n_baskets", "n_words")

    def __init__(self, packed, counts, n_baskets: int) -> None:
        self.packed = packed
        self.counts = counts
        self.n_baskets = n_baskets
        self.n_words = packed.shape[1]

    @classmethod
    def from_database(cls, db: "BasketDatabase") -> "PackedBitmapIndex":
        """Pack a database's big-int bitmaps into the uint64 matrix.

        ``int.to_bytes(..., "little")`` runs in C and preserves the bit
        numbering, so the packed rows are bit-identical to the bitmaps
        the pure-Python kernels intersect.
        """
        if not HAS_NUMPY:
            raise RuntimeError(
                "PackedBitmapIndex requires numpy; install the [fast] extra"
            )
        n = db.n_baskets
        n_items = db.n_items
        n_words = max(1, (n + 63) // 64)
        row_bytes = n_words * 8
        buffer = b"".join(
            db.item_bitmap(item).to_bytes(row_bytes, "little")
            for item in range(n_items)
        )
        packed = np.frombuffer(buffer, dtype="<u8").astype(np.uint64, copy=False)
        packed = packed.reshape(n_items, n_words)
        counts = np.asarray(db.item_counts(), dtype=np.int64).reshape(n_items)
        return cls(packed, counts, n)

    def rows(self, items):
        """The bitmap rows of the given item ids, as a ``(k, n_words)`` view."""
        return self.packed[np.asarray(items, dtype=np.intp)]

    def row_bits(self, rows):
        """Unpack uint64 rows to per-basket 0/1 ``uint8`` columns.

        Returns a ``(k, n_baskets)`` array; the padding bits past
        ``n_baskets`` in the last word are sliced off.  Used by the
        basket-major scan kernel.
        """
        as_bytes = np.ascontiguousarray(rows).astype("<u8").view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self.n_baskets]

    def __repr__(self) -> str:
        return (
            f"PackedBitmapIndex(items={self.packed.shape[0]}, "
            f"baskets={self.n_baskets}, words={self.n_words})"
        )
