"""High-level mining API.

The friendly entry points a downstream user starts with: test one
itemset, mine a whole database, or compare the correlation framework
against support-confidence on the same data — the comparison the paper
runs in Examples 1 and 4.

This module also hosts the *incremental* mining layer the streaming
service builds on: :class:`IncrementalMiner` maintains the SIG/NOTSIG
border across appends, one immutable
:class:`~repro.data.basket.BasketDatabase` per generation, recounting
only what a delta of baskets can have changed, while staying
bit-identical to a cold batch re-mine of the accumulated database at
every generation (the differential property suite in ``tests/service``
asserts exactly that).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.border import Border
from repro.core.contingency import _MAX_DENSE_ITEMS, ContingencyTable, count_cells
from repro.core.correlation import CorrelationTest
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.core.rules import AssociationRule, CorrelationRule
from repro.data.appendable import BasketLog, extend
from repro.data.basket import BasketDatabase
from repro.measures.cellsupport import CellSupport

if TYPE_CHECKING:  # avoid a circular import; algorithms import core
    from repro.algorithms.chi2support import MiningResult
    from repro.obs import Telemetry

__all__ = [
    "correlation_rule",
    "mine_correlations",
    "FrameworkComparison",
    "compare_frameworks",
    "AppendOutcome",
    "IncrementalMiner",
]


def _resolve_itemset(db: BasketDatabase, items: Iterable[int | str]) -> Itemset:
    resolved: list[int] = []
    for item in items:
        if isinstance(item, str):
            resolved.append(db.vocabulary.id_of(item))
        else:
            resolved.append(item)
    return Itemset(resolved)


def correlation_rule(
    db: BasketDatabase,
    items: Iterable[int | str],
    significance: float = 0.95,
) -> CorrelationRule:
    """Test one itemset for correlation and package the evidence.

    ``items`` may mix item ids and names.  ``minimal`` is not checked
    here (a single-itemset query has no subset context); the miner sets
    it for discovered rules.

    >>> db = BasketDatabase.from_baskets(
    ...     [["tea", "coffee"]] * 20 + [["coffee"]] * 70 + [["tea"]] * 5 + [[]] * 5)
    >>> rule = correlation_rule(db, ["tea", "coffee"])
    >>> rule.result.correlated
    False
    """
    itemset = _resolve_itemset(db, items)
    if len(itemset) < 2:
        raise ValueError("correlation needs at least two items")
    table = ContingencyTable.from_database(db, itemset)
    test = CorrelationTest(significance=significance)
    return CorrelationRule(itemset=itemset, result=test(table), table=table, minimal=False)


def mine_correlations(
    db: BasketDatabase,
    significance: float = 0.95,
    support_count: float = 1,
    support_fraction: float = 0.26,
    max_level: int | None = None,
    counting: str = "bitmap",
    workers: int | None = None,
    telemetry: "Telemetry | None" = None,
    **kwargs: object,
) -> "MiningResult":
    """Mine all significant (supported, minimally correlated) itemsets.

    The main entry point; see :class:`ChiSquaredSupportMiner` for the
    advanced knobs reachable through ``kwargs``.  ``counting`` selects
    the table-counting backend, one of :data:`repro.counting.BACKENDS`
    (``"bitmap"``, ``"single_pass"``, the NumPy batch-sweep
    ``"vectorized"``, the sharded multi-process ``"parallel"``, whose
    shards themselves run the vectorized kernels, or the FP-tree sweep
    ``"fptree"``); ``workers`` sizes the parallel engine's pool and is
    ignored by the serial backends.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) turns on the run's
    observability: hierarchical spans, mining metrics, and the Table-5
    run report, all reachable afterwards through the returned result's
    ``run_report()`` / ``render_telemetry()`` or the bundle itself.
    The default is the shared no-op bundle, which costs nearly nothing.
    """
    from repro.algorithms.chi2support import ChiSquaredSupportMiner

    miner = ChiSquaredSupportMiner(
        significance=significance,
        support=CellSupport(count=support_count, fraction=support_fraction),
        max_level=max_level,
        counting=counting,
        workers=workers,
        telemetry=telemetry,
        **kwargs,  # type: ignore[arg-type]
    )
    return miner.mine(db)


@dataclass(frozen=True, slots=True)
class FrameworkComparison:
    """Both frameworks' verdicts on one itemset, side by side."""

    correlation: CorrelationRule
    association_rules: tuple[AssociationRule, ...]

    @property
    def chi_squared(self) -> float:
        """The correlation framework's statistic."""
        return self.correlation.statistic

    def accepted_association_rules(
        self, min_support: float, min_confidence: float
    ) -> list[AssociationRule]:
        """The rules the support-confidence framework would report."""
        return [rule for rule in self.association_rules if rule.passes(min_support, min_confidence)]


def compare_frameworks(
    db: BasketDatabase,
    items: Iterable[int | str],
    significance: float = 0.95,
    min_confidence: float = 0.0,
) -> FrameworkComparison:
    """Run both frameworks on one itemset (the Examples 1 and 4 setup).

    Association rules are generated for every antecedent/consequent
    partition of the itemset; filter with
    :meth:`FrameworkComparison.accepted_association_rules`.
    """
    from repro.algorithms.apriori import apriori
    from repro.algorithms.rulegen import rules_for_itemset

    itemset = _resolve_itemset(db, items)
    rule = correlation_rule(db, itemset, significance=significance)
    frequencies = apriori(db, min_support_count=1, max_size=len(itemset))
    if itemset in frequencies:
        association = tuple(rules_for_itemset(frequencies, itemset, min_confidence))
    else:
        association = ()
    return FrameworkComparison(correlation=rule, association_rules=association)


# -- incremental mining --------------------------------------------------------


class _IncrementalCellEngine:
    """Serves the grown generation's cells from the previous generation's.

    Handed to :class:`~repro.algorithms.chi2support.ChiSquaredSupportMiner`
    as the run's counting backend, so the *decision cascade* (support
    test, statistic, border updates, candidate join) is the batch
    miner's own code — the only thing incremental about the run is where
    the cells come from:

    * itemsets counted at the previous generation add the delta's cells
      (counted over the small delta-only database) to their stored cells;
    * never-before-seen candidates are counted over the grown database,
      then join the store.  The one exception is an itemset too wide for
      the bitmap kernels: :func:`~repro.core.contingency.count_cells`
      scans baskets for it, and the grown generation's baskets become
      readable only at the commit, so it is counted over the previous
      generation plus the delta instead.

    Every count goes through :func:`~repro.core.contingency.count_cells`;
    no registry backend runs inside an append.  All cells are exact
    integers, so every decision made on them is bit-identical to a cold
    batch mine on any backend.
    """

    def __init__(
        self,
        db: BasketDatabase,
        base_db: BasketDatabase,
        delta_db: BasketDatabase,
        cached_cells: dict[Itemset, dict[int, int]],
    ) -> None:
        self.db = db
        self._base_db = base_db
        self._delta_db = delta_db
        self._cached = cached_cells
        self.new_cells: dict[Itemset, dict[int, int]] = {}
        self.served = 0
        self.recounted = 0

    def _count(
        self, db: BasketDatabase, itemsets: Sequence[Itemset]
    ) -> dict[Itemset, dict[int, int]]:
        """Exact sparse cells of each itemset over ``db``."""
        return {itemset: count_cells(db, itemset) for itemset in itemsets}

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        fresh = [c for c in candidates if c not in self._cached]
        wide = [c for c in fresh if len(c) > _MAX_DENSE_ITEMS]
        grown = self._count(self.db, [c for c in fresh if len(c) <= _MAX_DENSE_ITEMS])
        base = self._count(self._base_db, wide)
        delta = self._count(self._delta_db, [c for c in candidates if c not in grown])
        counted: list[dict[int, int]] = []
        for candidate in candidates:
            cells = grown.get(candidate)
            if cells is None:
                stored = self._cached.get(candidate)
                cells = dict(stored if stored is not None else base[candidate])
                for cell, count in delta[candidate].items():
                    cells[cell] = cells.get(cell, 0) + count
            self.new_cells[candidate] = cells
            counted.append(cells)
        self.served += len(candidates) - len(fresh)
        self.recounted += len(fresh)
        return counted


@dataclass(slots=True)
class AppendOutcome:
    """What one committed append changed.

    ``promoted``/``demoted`` are the border delta: itemsets that entered
    or left the SIG border at this generation.  ``tables_served`` /
    ``tables_recounted`` measure the incremental win — candidates whose
    stored cells only needed the delta's cells added versus a fresh
    count over the grown database.  ``result`` is the full post-append mining
    result (``None`` only while the database is still empty).
    """

    generation: int
    n_appended: int
    n_baskets: int
    n_items: int
    new_items: tuple[str, ...]
    promoted: list[Itemset] = field(default_factory=list)
    demoted: list[Itemset] = field(default_factory=list)
    tables_served: int = 0
    tables_recounted: int = 0
    hypotheses_tested: int = 0
    result: "MiningResult | None" = None


class IncrementalMiner:
    """Maintains mining state over a growing sequence of baskets.

    Every generation is an immutable :class:`BasketDatabase`.  Each
    :meth:`append` builds the next one with
    :func:`~repro.data.appendable.extend`, re-runs the Figure 1 decision
    cascade on it (serving cells incrementally — see
    :class:`_IncrementalCellEngine`), and only then commits: it extends
    the shared basket log and swaps references.  A counting failure
    mid-append therefore leaves the previous generation current, and no
    generation ever changes once built.

    The maintained invariant, enforced by the differential property
    suite: after every append, :attr:`result` is bit-identical to
    ``mine_correlations`` run cold on the accumulated database with the
    same parameters, whichever batch counting backend that run uses.

    >>> miner = IncrementalMiner(support_count=2, support_fraction=0.3)
    >>> outcome = miner.append([["tea", "coffee"]] * 45 + [["tea"]] * 5
    ...                        + [["coffee"]] * 25 + [[]] * 25)
    >>> [miner.db.vocabulary.decode(i) for i in outcome.promoted]
    [('tea', 'coffee')]
    >>> miner.append([["tea"], ["coffee", "milk"]]).generation
    2
    """

    def __init__(
        self,
        significance: float = 0.95,
        support_count: float = 1,
        support_fraction: float = 0.26,
        max_level: int | None = None,
        telemetry_factory: "Callable[[], Telemetry] | None" = None,
    ) -> None:
        self.significance = significance
        self.support = CellSupport(count=support_count, fraction=support_fraction)
        self.max_level = max_level
        self._telemetry_factory = telemetry_factory
        # Every generation reads a prefix of this one append-only list.
        self._log: list[tuple[int, ...]] = []
        self.db = BasketDatabase(BasketLog(self._log, 0), ItemVocabulary())
        self._generation = 0
        self._cells: dict[Itemset, dict[int, int]] = {}
        self._result: "MiningResult | None" = None
        self._cumulative_tests = 0

    @property
    def generation(self) -> int:
        """The number of committed appends."""
        return self._generation

    @property
    def result(self) -> "MiningResult | None":
        """The current mining result; ``None`` until data arrives."""
        return self._result

    @property
    def cumulative_tests(self) -> int:
        """Chi-squared evaluations performed across all generations."""
        return self._cumulative_tests

    @property
    def border(self) -> Border:
        """The current SIG border (empty before any data)."""
        return self._result.border if self._result is not None else Border()

    def _telemetry(self) -> "Telemetry":
        if self._telemetry_factory is not None:
            return self._telemetry_factory()
        from repro.obs import NULL_TELEMETRY

        return NULL_TELEMETRY

    def append(
        self, baskets: Iterable[Iterable[str]] | Iterable[Iterable[int]], numeric: bool = False
    ) -> AppendOutcome:
        """Append baskets, update the border, and report what changed.

        Phase A (fallible, zero mutation): build the grown generation and
        run the full decision cascade on it with cells served
        incrementally.  Phase B (infallible): extend the basket log and
        swap in the new generation, cell store and result.  Any
        exception during phase A leaves the previous generation exactly
        as it was.
        """
        old_db = self.db
        old_border = self.border
        # -- phase A: everything that can fail, against immutable state --
        db, delta = extend(old_db, self._log, baskets, numeric)
        if delta.n_baskets == 0:
            # Nothing can change: no baskets means no new items either.
            self._generation += 1
            return AppendOutcome(
                generation=self._generation,
                n_appended=0,
                n_baskets=old_db.n_baskets,
                n_items=old_db.n_items,
                new_items=(),
                result=self._result,
            )
        engine = _IncrementalCellEngine(db, old_db, delta, self._cells)
        from repro.algorithms.chi2support import ChiSquaredSupportMiner

        miner = ChiSquaredSupportMiner(
            significance=self.significance,
            support=self.support,
            max_level=self.max_level,
            telemetry=self._telemetry(),
        )
        result = miner._mine(db, engine)

        # -- phase B: the infallible commit, a log extend and reference swaps --
        self._log.extend(delta)
        self.db = db
        self._generation += 1
        self._cells = engine.new_cells
        self._result = result
        promoted, demoted = result.border.diff(old_border)
        hypotheses = sum(
            stats.candidates - stats.discarded for stats in result.level_stats
        )
        self._cumulative_tests += hypotheses
        return AppendOutcome(
            generation=self._generation,
            n_appended=delta.n_baskets,
            n_baskets=db.n_baskets,
            n_items=db.n_items,
            new_items=tuple(db.vocabulary.decode(range(old_db.n_items, db.n_items))),
            promoted=promoted,
            demoted=demoted,
            tables_served=engine.served,
            tables_recounted=engine.recounted,
            hypotheses_tested=hypotheses,
            result=result,
        )
