"""Candidate-generation-free correlated-pair mining over an FP-tree.

Two modes, both exact:

* :meth:`FPTreePairEngine.count_cells` — a drop-in counting backend
  for the level-wise miner.  One ancestor-chain sweep over the tree
  yields every pair's co-occurrence count; the four ``2x2`` cells
  follow from the item marginals, so each level-2 candidate is counted
  without touching the baskets again.  (Higher levels fall back to the
  bitmap kernels — the FP-tree argument is about the pair level, which
  is where the candidate count explodes.)

* :meth:`FPTreePairEngine.top_k` — the K strongest pair correlations
  under a branch-and-bound prune.  The chi-squared statistic of a pair
  is a quadratic in the co-occurrence count ``nab`` opening upward, so
  its maximum over the feasible range

      ``nab in [max(0, na + nb - n, s), min(na, nb)]``

  is attained at an endpoint: an *upper bound from the marginal
  supports alone* (``s`` is the co-occurrence support floor defining
  the search universe).  Header subtrees whose best achievable pair
  cannot beat the current K-th best are skipped without walking their
  ancestor chains, and within walked subtrees each discovered pair's
  bound gates the exact table-and-statistic evaluation.  A slack
  margin keeps the prune strictly conservative under floating-point
  rounding, so the pruned result is *identical* to the unpruned one —
  which the property suite asserts.

Ranking is deterministic: descending chi-squared, ascending itemset on
ties.  Exact statistics are computed through the same
:class:`~repro.core.contingency.ContingencyTable` /
:func:`~repro.core.correlation.chi_squared` path as every other
backend, keeping the reported values bit-identical to the miner's.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.contingency import ContingencyTable, count_cells, pair_cells
from repro.core.correlation import chi_squared
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.core.topk import (
    TopKEntry,
    _chi2_closed_form,
    _slack_below,
    entries_to_dicts,
)
from repro.data.basket import BasketDatabase
from repro.fptree.tree import FPTree
from repro.obs import NULL_TELEMETRY, Telemetry

__all__ = [
    "FPTreePairEngine",
    "SweepStats",
    "TopKEntry",
    "TopKResult",
    "chi2_pair_upper_bound",
    "item_chi2_upper_bound",
]

def chi2_pair_upper_bound(
    n: float, count_a: float, count_b: float, min_cooccurrence: float = 1
) -> float | None:
    """Largest chi2 any pair with these marginals could reach.

    The statistic is an upward-opening quadratic in the co-occurrence
    count, so its maximum over the feasible range is at one of the two
    endpoints.  Returns ``None`` when no feasible co-occurrence count
    meets ``min_cooccurrence`` — no qualifying pair can exist at all.
    """
    low = max(0.0, count_a + count_b - n, float(min_cooccurrence))
    high = min(count_a, count_b)
    if low > high:
        return None
    return max(
        _chi2_closed_form(n, count_a, count_b, low),
        _chi2_closed_form(n, count_a, count_b, high),
    )


def item_chi2_upper_bound(
    n: float,
    count_b: float,
    partner_min: float,
    partner_max: float,
    min_cooccurrence: float = 1,
) -> float | None:
    """Bound over *every* partner marginal in ``[partner_min, partner_max]``.

    The subtree prune needs ``max over na of chi2_pair_upper_bound(na,
    nb)`` without touching each partner.  Over the continuous relaxation
    the maximum sits at one of a handful of points:

    * the high endpoint ``nab = nb`` gives a term decreasing in ``na``
      — maximal at ``partner_min``;
    * the low endpoint with ``na + nb - n >= s`` (strong overlap forced)
      gives a term decreasing in ``na`` — maximal where that regime
      starts, ``na = n - nb + s``;
    * the low endpoint pinned at the support floor ``nab = s`` is
      maximal at an interval end or at its single interior critical
      point ``na = n s / (2 s - nb)`` (existing only for ``nb < 2 s``).

    Evaluating the pair bound at those candidate marginals (clamped to
    the partner range) dominates every integer partner count, which the
    property suite cross-checks against exhaustive enumeration.
    """
    partner_min = max(partner_min, count_b)
    if partner_min > partner_max:
        return None
    candidates = [partner_min, partner_max]
    switch = n - count_b + min_cooccurrence
    if partner_min < switch < partner_max:
        candidates.append(switch)
    if count_b < 2 * min_cooccurrence:
        critical = n * min_cooccurrence / (2 * min_cooccurrence - count_b)
        if partner_min < critical < partner_max:
            candidates.append(critical)
    best: float | None = None
    for count_a in candidates:
        bound = chi2_pair_upper_bound(n, count_a, count_b, min_cooccurrence)
        if bound is not None and (best is None or bound > best):
            best = bound
    return best


@dataclass(slots=True)
class SweepStats:
    """What one sweep did — the branch-and-bound's accounting.

    ``subtrees_walked + subtrees_pruned == header_items`` and
    ``pairs_evaluated + pairs_pruned == pairs_discovered`` always hold;
    the telemetry counters mirror these fields exactly (a test gate).
    Pruned subtrees never discover their pairs, so an unpruned run of
    the same sweep reports a larger ``pairs_discovered``.
    """

    nodes: int = 0
    header_items: int = 0
    subtrees_walked: int = 0
    subtrees_pruned: int = 0
    pairs_discovered: int = 0
    pairs_evaluated: int = 0
    pairs_pruned: int = 0

    @property
    def subtree_prune_fraction(self) -> float:
        """Share of header subtrees skipped without walking."""
        if not self.header_items:
            return 0.0
        return self.subtrees_pruned / self.header_items

    def to_dict(self) -> dict[str, object]:
        return {
            "nodes": self.nodes,
            "header_items": self.header_items,
            "subtrees_walked": self.subtrees_walked,
            "subtrees_pruned": self.subtrees_pruned,
            "subtree_prune_fraction": self.subtree_prune_fraction,
            "pairs_discovered": self.pairs_discovered,
            "pairs_evaluated": self.pairs_evaluated,
            "pairs_pruned": self.pairs_pruned,
        }


@dataclass(frozen=True, slots=True)
class TopKResult:
    """The K strongest pair correlations, strongest first.

    ``entries`` may be shorter than ``k`` when fewer pairs meet the
    co-occurrence floor.  ``stats`` describes the sweep that produced
    the ranking; with ``prune`` the entries are identical to the
    unpruned ranking by construction, only the stats differ.
    """

    k: int | None
    min_cooccurrence: int
    prune: bool
    n_baskets: int
    entries: tuple[TopKEntry, ...]
    stats: SweepStats = field(compare=False)

    def itemsets(self) -> list[Itemset]:
        """The ranked itemsets, strongest correlation first."""
        return [entry.itemset for entry in self.entries]

    def to_dict(self, vocabulary: ItemVocabulary | None = None) -> dict[str, object]:
        """JSON-compatible payload; items become names when decodable."""
        return {
            "k": self.k,
            "min_cooccurrence": self.min_cooccurrence,
            "prune": self.prune,
            "n_baskets": self.n_baskets,
            "entries": entries_to_dicts(self.entries, vocabulary),
            "stats": self.stats.to_dict(),
        }

    def serialize(self, vocabulary: ItemVocabulary | None = None) -> str:
        """Canonical JSON text — byte-identical across identical runs."""
        return json.dumps(self.to_dict(vocabulary), indent=2, sort_keys=True) + "\n"


class FPTreePairEngine:
    """FP-tree-backed exact pair counting and top-K correlation search.

    Builds the tree once per database; both the level-2 counting sweep
    and every ``top_k`` call reuse it.  All instrumentation goes
    through the supplied :class:`~repro.obs.Telemetry` (disabled by
    default): spans ``fptree.build`` / ``fptree.sweep`` and counters
    ``fptree_nodes``, ``fptree_subtrees{outcome=}``,
    ``fptree_pairs{outcome=}``.

    >>> db = BasketDatabase.from_baskets(
    ...     [["tea", "coffee"]] * 45 + [["tea"]] * 5 + [["coffee"]] * 25 + [[]] * 25)
    >>> engine = FPTreePairEngine(db)
    >>> [entry.cooccurrence for entry in engine.top_k(1).entries]
    [45]
    """

    def __init__(self, db: BasketDatabase, telemetry: Telemetry | None = None) -> None:
        self.db = db
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._counts = db.item_counts()
        with self.telemetry.tracer.span(
            "fptree.build", n_baskets=db.n_baskets, n_items=db.n_items
        ) as span:
            self.tree = FPTree.from_database(db)
            span.annotate(nodes=self.tree.n_nodes)
        self.telemetry.metrics.counter("fptree_nodes").inc(self.tree.n_nodes)
        self._cooccurrence: dict[tuple[int, int], int] | None = None

    def close(self) -> None:
        """Symmetry with the parallel engine's lifecycle; nothing to free."""

    # -- exact counting (the miner's backend hook) ----------------------------

    def pair_cooccurrence(self) -> dict[tuple[int, int], int]:
        """Co-occurrence count of every co-occurring pair, keyed ``(i, j)``
        with ``i < j`` by item id.  Pairs that never co-occur are absent.

        One full sweep: each header item's ancestor chains are walked
        once, so each pair is counted exactly once (at its deeper-ranked
        item).  The result is cached — the tree is immutable.
        """
        if self._cooccurrence is not None:
            return self._cooccurrence
        tree = self.tree
        metrics = self.telemetry.metrics
        cooccurrence: dict[tuple[int, int], int] = {}
        with self.telemetry.tracer.span(
            "fptree.sweep", mode="exhaustive", header_items=len(tree.order)
        ):
            for item in tree.order:
                for partner, both in tree.conditional_counts(item).items():
                    key = (partner, item) if partner < item else (item, partner)
                    cooccurrence[key] = both
            metrics.counter("fptree_subtrees", outcome="walked").inc(len(tree.order))
        self._cooccurrence = cooccurrence
        return cooccurrence

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        """Exact sparse cells of ``candidates`` (the counting-backend API).

        Pairs follow from the sweep's co-occurrence counts and the item
        marginals — including pairs that never co-occur, whose
        full-presence cell is simply zero.  Wider itemsets fall back to
        the bitmap kernels: the FP-tree speedup targets level 2.
        """
        counts = self._counts
        n = self.db.n_baskets
        counted: list[dict[int, int]] = []
        for candidate in candidates:
            if len(candidate) != 2:
                counted.append(count_cells(self.db, candidate))
                continue
            first, second = candidate.items
            both = self.pair_cooccurrence().get((first, second), 0)
            counted.append(pair_cells(n, counts[first], counts[second], both))
        return counted

    # -- top-K branch-and-bound ----------------------------------------------

    def top_k(
        self,
        k: int | None,
        min_cooccurrence: int = 1,
        prune: bool = True,
    ) -> TopKResult:
        """The ``k`` strongest pair correlations among pairs co-occurring
        at least ``min_cooccurrence`` times.

        ``k=None`` ranks the whole universe (pruning then has nothing to
        cut and is disabled).  Pairs that never co-occur are outside the
        universe by construction — the level-wise miner remains the tool
        for exhaustive significance sweeps including disjoint pairs.

        Ordering is total and deterministic: descending chi2, ascending
        itemset on exact float ties.
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if min_cooccurrence < 1:
            raise ValueError(
                f"min_cooccurrence must be >= 1, got {min_cooccurrence}"
            )
        if k is None:
            prune = False

        tree = self.tree
        n = self.db.n_baskets
        counts = self._counts
        stats = SweepStats(nodes=tree.n_nodes, header_items=len(tree.order))
        metrics = self.telemetry.metrics

        # Header subtrees in descending bound order (ties by tree rank):
        # the K-th best rises as fast as possible, and once one subtree
        # prunes, every later one does too.  Items whose bound is None
        # cannot form any qualifying pair, whatever the heap holds.
        ranked_counts = [counts[item] for item in tree.order]
        if prune:
            bounds: list[float | None] = [None]
            for position in range(1, len(tree.order)):
                bounds.append(
                    item_chi2_upper_bound(
                        n,
                        ranked_counts[position],
                        partner_min=ranked_counts[position - 1],
                        partner_max=ranked_counts[0],
                        min_cooccurrence=min_cooccurrence,
                    )
                )
            order = sorted(
                range(len(tree.order)),
                key=lambda position: (
                    -(bounds[position] if bounds[position] is not None else float("-inf")),
                    position,
                ),
            )
        else:
            bounds = [None] * len(tree.order)
            order = list(range(len(tree.order)))

        # The running selection, ascending by (-chi2, items): the last
        # element is the current K-th best.  Tuples compare on the first
        # two fields only — items are unique, the entry never compares.
        selection: list[tuple[float, tuple[int, ...], TopKEntry]] = []

        def threshold() -> float | None:
            if k is None or len(selection) < k:
                return None
            return _slack_below(-selection[-1][0])

        with self.telemetry.tracer.span(
            "fptree.sweep",
            mode="topk",
            k=-1 if k is None else k,
            prune=prune,
            min_cooccurrence=min_cooccurrence,
            header_items=len(tree.order),
        ):
            for index, position in enumerate(order):
                if prune:
                    bound = bounds[position]
                    cutoff = threshold()
                    if bound is None:
                        stats.subtrees_pruned += 1
                        continue
                    if cutoff is not None and bound < cutoff:
                        # Bounds descend from here on: everything left
                        # is out, including the None-bound tail.
                        stats.subtrees_pruned += len(order) - index
                        break
                item = tree.order[position]
                count_b = counts[item]
                stats.subtrees_walked += 1
                conditional = tree.conditional_counts(item)
                for partner in sorted(conditional):
                    both = conditional[partner]
                    if both < min_cooccurrence:
                        continue
                    stats.pairs_discovered += 1
                    count_a = counts[partner]
                    if prune:
                        cutoff = threshold()
                        if cutoff is not None:
                            pair_bound = chi2_pair_upper_bound(
                                n, count_a, count_b, min_cooccurrence
                            )
                            if pair_bound is None or pair_bound < cutoff:
                                stats.pairs_pruned += 1
                                continue
                    stats.pairs_evaluated += 1
                    first, second = (
                        (partner, item) if partner < item else (item, partner)
                    )
                    itemset = Itemset((first, second))
                    table = ContingencyTable.from_cell_counts(
                        itemset, pair_cells(n, counts[first], counts[second], both), n
                    )
                    statistic = chi_squared(table)
                    entry = (-statistic, itemset.items, TopKEntry(itemset, statistic, table))
                    if k is None or len(selection) < k:
                        insort(selection, entry)
                    elif entry[:2] < selection[-1][:2]:
                        insort(selection, entry)
                        selection.pop()
            metrics.counter("fptree_subtrees", outcome="walked").inc(
                stats.subtrees_walked
            )
            metrics.counter("fptree_subtrees", outcome="pruned").inc(
                stats.subtrees_pruned
            )
            metrics.counter("fptree_pairs", outcome="discovered").inc(
                stats.pairs_discovered
            )
            metrics.counter("fptree_pairs", outcome="evaluated").inc(
                stats.pairs_evaluated
            )
            metrics.counter("fptree_pairs", outcome="pruned").inc(stats.pairs_pruned)

        return TopKResult(
            k=k,
            min_cooccurrence=min_cooccurrence,
            prune=prune,
            n_baskets=n,
            entries=tuple(entry for _, _, entry in selection),
            stats=stats,
        )
