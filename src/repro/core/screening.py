"""Exhaustive pairwise correlation screening — Table 2 as an API.

Section 5.1's headline artifact is a *complete pairwise screen*: the
chi-squared value, significance decision, and four interest values for
every pair of items.  The miner produces only the significant ones;
analysts usually want the full matrix (the paper's census discussion
dwells as much on the NON-correlated pairs as on the correlated ones).

:func:`pairwise_screen` computes it directly from the database's
vertical bitmaps — one AND per pair — and returns row objects ready for
sorting, filtering, or rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from repro.core.contingency import ContingencyTable
from repro.core.correlation import chi_squared
from repro.core.interest import interest
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.stats.criticals import critical_value

__all__ = ["PairScreen", "pairwise_screen"]


@dataclass(frozen=True, slots=True)
class PairScreen:
    """One row of a pairwise correlation screen (one Table 2 line).

    ``interests`` are ordered as the paper prints them:
    ``(I(ab), I(~a b), I(a ~b), I(~a ~b))``; degenerate cells yield
    ``nan``.
    """

    itemset: Itemset
    statistic: float
    correlated: bool
    interests: tuple[float, float, float, float]

    @property
    def most_extreme_interest(self) -> float:
        """The interest value farthest from 1 on the log scale.

        0 and inf are maximally extreme (impossible / exclusive cells).
        """

        def extremeness(value: float) -> float:
            if value <= 0.0 or math.isinf(value):
                return math.inf
            return abs(math.log(value))

        defined = [value for value in self.interests if not math.isnan(value)]
        if not defined:
            return math.nan
        return max(defined, key=extremeness)


def pairwise_screen(
    db: BasketDatabase,
    significance: float = 0.95,
    items: list[int] | None = None,
) -> list[PairScreen]:
    """Chi-squared + interest for every item pair (or a subset of items).

    Returns one :class:`PairScreen` per pair, in lexicographic item
    order.  Cost: one bitmap intersection per pair — the census's 45
    pairs take about a millisecond.
    """
    if db.n_baskets == 0:
        raise ValueError("cannot screen an empty database")
    universe = sorted(set(items)) if items is not None else list(db.vocabulary.ids())
    cutoff = critical_value(significance, 1)
    rows: list[PairScreen] = []
    for a, b in combinations(universe, 2):
        table = ContingencyTable.from_database(db, Itemset((a, b)))
        statistic = chi_squared(table)
        # Bit 0 is item a: the cells of I(ab), I(~a b), I(a ~b), I(~a ~b).
        interests = (
            interest(table, 0b11),
            interest(table, 0b10),
            interest(table, 0b01),
            interest(table, 0b00),
        )
        rows.append(
            PairScreen(
                itemset=Itemset((a, b)),
                statistic=statistic,
                correlated=statistic >= cutoff,
                interests=interests,
            )
        )
    return rows
