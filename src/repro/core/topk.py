"""The K strongest pair correlations, straight off the vertical bitmaps.

A pair's ``2x2`` contingency table is fixed by the two item counts and
one co-occurrence count, and the co-occurrence count is one bitmap AND
and popcount (:meth:`~repro.data.basket.BasketDatabase.item_bitmap`).
So the exhaustive top-K needs no tree and no candidate generation:
:func:`top_k_pairs` visits every pair of items once, scores it with the
closed-form 2x2 statistic, and keeps a running K-th best.

Reported statistics go through the miner's own recipe,
:func:`~repro.core.correlation.chi2_from_cells` on the pair's
:func:`~repro.core.contingency.pair_cells`, so they are bit-identical to
the miner's.  The closed form only ranks: every pair within
:data:`_PRUNE_SLACK` of the K-th closed-form value is re-scored exactly
before the final ordering, so rounding differences between the two
expressions cannot change which pairs make the cut.  Tables are built
only for the K entries returned.

Ranking is deterministic: descending chi-squared, ascending itemset on
exact ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from repro.core.contingency import ContingencyTable, pair_cells
from repro.core.correlation import chi2_from_cells
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.core.report import cells_to_dict
from repro.data.basket import BasketDatabase

__all__ = ["TopKEntry", "entries_to_dicts", "top_k_pairs"]

# Relative slack below the K-th best closed-form value within which a
# pair is still re-scored exactly: the closed form and chi_squared()
# travel through different float expressions, so a pair at the boundary
# must never be dropped on the closed form alone.
_PRUNE_SLACK = 1e-9


def _chi2_closed_form(n: float, count_a: float, count_b: float, both: float) -> float:
    """chi2 of a 2x2 table from its marginals and co-occurrence count.

    ``chi2 = n (n*nab - na*nb)^2 / (na nb (n-na)(n-nb))``; degenerate
    marginals (an item in no basket or in every basket) make every
    deviation structurally zero, so the statistic is 0.
    """
    denominator = count_a * count_b * (n - count_a) * (n - count_b)
    if denominator <= 0:
        return 0.0
    deviation = n * both - count_a * count_b
    return n * deviation * deviation / denominator


def _slack_below(value: float) -> float:
    """The lowest closed-form value that may still tie ``value`` exactly."""
    return value - _PRUNE_SLACK * max(1.0, value)


@dataclass(frozen=True, slots=True)
class TopKEntry:
    """One ranked pair: the itemset, its exact chi2, and its table."""

    itemset: Itemset
    statistic: float
    table: ContingencyTable

    @property
    def cooccurrence(self) -> int:
        """Baskets containing both items (the full-presence cell)."""
        return int(self.table.nonzero_counts().get(0b11, 0))


def entries_to_dicts(
    entries: Iterable[TopKEntry], vocabulary: ItemVocabulary | None = None
) -> list[dict[str, object]]:
    """JSON-compatible ranked entries; items become names when decodable."""
    payload = []
    for rank, entry in enumerate(entries, start=1):
        items: list[object] = [
            vocabulary.name_of(item) if vocabulary is not None else item
            for item in entry.itemset.items
        ]
        payload.append(
            {
                "rank": rank,
                "items": items,
                "chi2": entry.statistic,
                "cooccurrence": entry.cooccurrence,
                "cells": cells_to_dict(entry.table),
            }
        )
    return payload


def top_k_pairs(
    db: BasketDatabase, k: int, min_cooccurrence: int = 1
) -> tuple[TopKEntry, ...]:
    """The ``k`` strongest pair correlations among pairs co-occurring
    at least ``min_cooccurrence`` times, strongest first.

    Fewer than ``k`` entries come back when fewer pairs meet the floor.
    Pairs that never co-occur are outside the universe; the level-wise
    miner remains the tool for exhaustive significance sweeps.

    >>> db = BasketDatabase.from_baskets(
    ...     [["tea", "coffee"]] * 45 + [["tea"]] * 5 + [["coffee"]] * 25 + [[]] * 25)
    >>> [entry.cooccurrence for entry in top_k_pairs(db, 1)]
    [45]
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if min_cooccurrence < 1:
        raise ValueError(f"min_cooccurrence must be >= 1, got {min_cooccurrence}")
    n = db.n_baskets
    counts = db.item_counts()
    # An item rarer than the floor cannot co-occur often enough with any
    # partner, so it never enters the pair loop.
    items = [item for item in range(db.n_items) if counts[item] >= min_cooccurrence]
    bitmaps = [db.item_bitmap(item) for item in items]

    # ``best`` is a min-heap of the k largest closed-form values so far;
    # ``cutoff`` only rises, so a pair below it can never re-enter.
    best: list[float] = []
    cutoff = float("-inf")
    survivors: list[tuple[float, int, int, int]] = []
    for position, first in enumerate(items):
        bitmap = bitmaps[position]
        count_first = counts[first]
        for offset in range(position + 1, len(items)):
            both = (bitmap & bitmaps[offset]).bit_count()
            if both < min_cooccurrence:
                continue
            second = items[offset]
            score = _chi2_closed_form(n, count_first, counts[second], both)
            if score < cutoff:
                continue
            survivors.append((score, first, second, both))
            if len(best) < k:
                heapq.heappush(best, score)
            elif score > best[0]:
                heapq.heapreplace(best, score)
            if len(best) == k:
                cutoff = _slack_below(best[0])

    ranked: list[tuple[float, tuple[int, int], float, dict[int, int]]] = []
    for score, first, second, both in survivors:
        if score < cutoff:
            continue
        count_first, count_second = counts[first], counts[second]
        cells = pair_cells(n, count_first, count_second, both)
        statistic = chi2_from_cells(cells, (count_first, count_second), n)
        ranked.append((-statistic, (first, second), statistic, cells))
    ranked.sort(key=lambda row: row[:2])
    entries = []
    for _, pair, statistic, cells in ranked[:k]:
        itemset = Itemset(pair)
        table = ContingencyTable.from_cell_counts(itemset, cells, n)
        entries.append(TopKEntry(itemset, statistic, table))
    return tuple(entries)
