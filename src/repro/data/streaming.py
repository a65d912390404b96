"""Streaming basket sources for databases larger than main memory.

Section 4 closes with an open problem: "Hashing with collisions is
necessary when the database is much larger than main memory.  Our
algorithm fails if we allow collisions, since we need hash table lookup;
it is an open problem to modify our algorithm for very large databases."

The observation unlocking a partial answer: only the *counting* step
touches the database — the NOTSIG/CAND tables hold itemsets, not
baskets, and stay small.  So the algorithm runs unmodified over a
database that never resides in memory, provided counting uses the
one-pass-per-level strategy (§4's own alternative,
:func:`repro.core.contingency.count_cells_single_pass`) instead of the
vertical bitmap index.

:class:`StreamingBasketDatabase` is that source: backed by a basket
file, it re-reads the file on every iteration, keeps only the
vocabulary and per-item counts (one priming pass) in memory, and
refuses the bitmap operations that would require materialising the
data.  The miner detects the missing bitmap support and insists on
``counting="single_pass"``.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

from repro.core.itemsets import Itemset, ItemVocabulary

__all__ = ["StreamingBasketDatabase"]


class StreamingBasketDatabase:
    """A basket database that never loads the baskets into memory.

    Supports the subset of the :class:`~repro.data.basket.BasketDatabase`
    interface that single-pass mining needs: iteration (one file read
    per pass), ``n_baskets``, ``vocabulary``, and per-item counts.  The
    bitmap methods raise, signalling that per-candidate counting is
    unavailable.  Because correctness depends on every pass reading the
    same bytes, the file is fingerprinted (size + mtime) at open and
    every subsequent pass raises :class:`RuntimeError` if the file has
    changed since.

    Args:
        path: basket file, one basket per line.
        numeric: ids (``True``) or names (``False``) per line.
    """

    __slots__ = (
        "_path",
        "_numeric",
        "_vocabulary",
        "_n_baskets",
        "_item_counts",
        "_fingerprint",
    )

    def __init__(self, path: str | os.PathLike[str], numeric: bool = False) -> None:
        self._path = os.fspath(path)
        self._numeric = numeric
        self._vocabulary = ItemVocabulary()
        self._item_counts: list[int] = []
        # Every pass must see the bytes the priming pass saw: level-k
        # counts against a mutated file would silently disagree with the
        # level-1 marginals.  A size + mtime fingerprint catches the
        # file changing between (not during) passes.
        self._fingerprint = self._stat_fingerprint()
        n_baskets = 0
        # Priming pass: vocabulary + item counts (the level-1 data).
        for basket in self._read():
            n_baskets += 1
            for item in basket:
                self._item_counts[item] += 1
        self._n_baskets = n_baskets

    def _stat_fingerprint(self) -> tuple[int, int]:
        info = os.stat(self._path)
        return (info.st_size, info.st_mtime_ns)

    def _read(self) -> Iterator[tuple[int, ...]]:
        fingerprint = self._stat_fingerprint()
        if fingerprint != self._fingerprint:
            raise RuntimeError(
                f"basket file {self._path!r} changed since it was opened "
                f"(size/mtime {self._fingerprint} -> {fingerprint}); "
                "re-create the StreamingBasketDatabase to pick up the new contents"
            )
        with open(self._path, "r", encoding="utf-8") as handle:
            for line in handle:
                tokens = line.split()
                if self._numeric:
                    ids = sorted({int(token) for token in tokens})
                    if ids and ids[0] < 0:
                        raise ValueError(f"item ids must be non-negative, got {ids[0]}")
                    for item in ids:
                        while item >= len(self._vocabulary):
                            fresh = self._vocabulary.add(f"item{len(self._vocabulary)}")
                            self._item_counts.append(0)
                else:
                    # Order-preserving dedupe: iterating a set here would
                    # make vocabulary ids depend on the process hash seed.
                    ids = sorted(
                        self._vocabulary.add(token) for token in dict.fromkeys(tokens)
                    )
                    while len(self._item_counts) < len(self._vocabulary):
                        self._item_counts.append(0)
                yield tuple(ids)

    # -- BasketSource protocol -------------------------------------------------

    @property
    def vocabulary(self) -> ItemVocabulary:
        """Item vocabulary discovered during the priming pass."""
        return self._vocabulary

    @property
    def n_baskets(self) -> int:
        """Number of baskets (counted once; the file must not change)."""
        return self._n_baskets

    @property
    def n_items(self) -> int:
        """Vocabulary size."""
        return len(self._vocabulary)

    def __len__(self) -> int:
        return self._n_baskets

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """One full pass over the file per iteration."""
        return self._read()

    def item_count(self, item: int) -> int:
        """O(i) from the priming pass."""
        return self._item_counts[item]

    def item_counts(self) -> tuple[int, ...]:
        """All single-item counts from the priming pass."""
        return tuple(self._item_counts)

    # -- unsupported operations ---------------------------------------------

    def item_bitmap(self, item: int) -> int:
        raise NotImplementedError(
            "a streaming database has no vertical index; "
            "mine with counting='single_pass'"
        )

    def itemset_bitmap(self, itemset: Itemset) -> int:
        raise NotImplementedError(
            "a streaming database has no vertical index; "
            "mine with counting='single_pass'"
        )

    def support_count(self, itemset: Itemset) -> int:
        """Exact support by one scan (no index)."""
        wanted = set(itemset)
        if not wanted:
            return self._n_baskets
        count = 0
        for basket in self._read():
            if wanted.issubset(basket):
                count += 1
        return count
