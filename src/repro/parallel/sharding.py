"""Row sharding of basket databases.

The counting layer's unit of distribution: a :class:`Shard` is a
contiguous slice of a :class:`~repro.data.basket.BasketDatabase`'s rows
that can count contingency-table cells for a batch of itemsets on its
own.  Because every cell count ``O(r)`` is a sum over baskets, it is a
sum over shards::

    O(r)  =  sum_s  O_s(r)        (the shard-merge identity)

so exact global tables are recovered by summing per-shard sparse cell
dictionaries — no approximation, no inter-shard communication.  Shards
are self-contained and picklable, which lets the engine ship them to
worker processes once (via the pool initializer) and afterwards refer to
them by index.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.core.itemsets import Itemset, ItemVocabulary
from repro.data.basket import BasketDatabase

__all__ = ["Shard", "shard_database", "merge_shard_counts"]


class Shard:
    """A contiguous run of baskets that counts cells independently.

    The shard lazily materialises its own :class:`BasketDatabase` (and
    thus its own per-item vertical bitmaps) on first use; the lazy
    database is dropped from the pickled state so only the raw basket
    tuples travel to worker processes.

    The shard counts with :func:`repro.kernels.count_cells_batch`: the
    NumPy packed-bitmap kernels when NumPy imports on the worker, the
    pure-Python big-int path otherwise — bit-identical either way.

    ``fault`` is a failure-injection hook used by the resilience tests:
    ``"crash"`` makes :meth:`count_cells` raise, ``"hang"`` makes it
    sleep far past any reasonable task timeout.  Production code never
    sets it.
    """

    __slots__ = ("index", "start", "baskets", "n_items", "fault", "_db")

    def __init__(
        self,
        index: int,
        start: int,
        baskets: Sequence[tuple[int, ...]],
        n_items: int,
        fault: str | None = None,
    ) -> None:
        self.index = index
        self.start = start
        self.baskets = tuple(baskets)
        self.n_items = n_items
        self.fault = fault
        self._db: BasketDatabase | None = None

    # -- pickling (exclude the lazily built database) -------------------------

    def __getstate__(self) -> tuple:
        return (self.index, self.start, self.baskets, self.n_items, self.fault)

    def __setstate__(self, state: tuple) -> None:
        self.index, self.start, self.baskets, self.n_items, self.fault = state
        self._db = None

    # -- counting -------------------------------------------------------------

    @property
    def n_baskets(self) -> int:
        """Number of baskets in this shard."""
        return len(self.baskets)

    def database(self) -> BasketDatabase:
        """The shard's rows as a standalone database (built once)."""
        if self._db is None:
            vocabulary = ItemVocabulary(f"item{i}" for i in range(self.n_items))
            self._db = BasketDatabase(self.baskets, vocabulary)
        return self._db

    def count_cells(
        self, candidates: Sequence[tuple[int, ...]], metrics=None
    ) -> list[dict[int, int]]:
        """Sparse cell counts, one dict per candidate, over this shard only.

        ``candidates`` are plain sorted id-tuples (the cheap wire format);
        each returned dict maps cell index to the shard-local count, the
        counts of any one dict summing to :attr:`n_baskets`.  ``metrics``
        (a :class:`repro.obs.MetricsRegistry`) receives the worker-side
        ``kernel_dispatch`` counters for this task.
        """
        if self.fault == "crash":
            raise RuntimeError(f"injected crash in shard {self.index}")
        if self.fault == "hang":  # pragma: no cover - timing-dependent
            time.sleep(30.0)
        from repro.kernels import count_cells_batch

        itemsets = [Itemset._from_sorted(items) for items in candidates]
        return count_cells_batch(self.database(), itemsets, metrics=metrics)

    def __repr__(self) -> str:
        return (
            f"Shard(index={self.index}, start={self.start}, "
            f"baskets={self.n_baskets}, items={self.n_items})"
        )


def shard_database(db: BasketDatabase, n_shards: int) -> list[Shard]:
    """Partition ``db`` into at most ``n_shards`` contiguous row shards.

    Shard sizes differ by at most one basket, shards never overlap, and
    concatenating them in index order recovers the database's row order
    exactly — the layout is a pure function of ``(n_baskets, n_shards)``
    so repeated runs shard identically.  Databases smaller than
    ``n_shards`` get one shard per basket.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n = db.n_baskets
    n_shards = min(n_shards, max(n, 1))
    baskets = list(db)
    shards: list[Shard] = []
    base, extra = divmod(n, n_shards)
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(Shard(index, start, baskets[start : start + size], db.n_items))
        start += size
    return shards


def merge_shard_counts(
    per_shard: Iterable[Sequence[dict[int, int]]],
) -> list[dict[int, int]]:
    """Sum per-shard cell counts into global counts (the merge identity).

    ``per_shard`` holds one result per shard, each a sequence of sparse
    cell dicts aligned with the candidate order.  Addition of integer
    counts is associative and commutative, so the merge is deterministic
    regardless of which worker finished first.
    """
    merged: list[dict[int, int]] | None = None
    for shard_counts in per_shard:
        if merged is None:
            merged = [dict(cells) for cells in shard_counts]
            continue
        if len(shard_counts) != len(merged):
            raise ValueError(
                f"shard returned {len(shard_counts)} candidate counts, expected {len(merged)}"
            )
        for accumulator, cells in zip(merged, shard_counts):
            for cell, count in cells.items():
                accumulator[cell] = accumulator.get(cell, 0) + count
    if merged is None:
        raise ValueError("cannot merge zero shards")
    return merged
