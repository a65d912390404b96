"""Algorithm chi-squared-support — Figure 1 of the paper.

The level-wise border search for *significant* itemsets (supported and
minimally correlated):

1.  Count ``O(i)`` for every item (one database pass).
2.  Seed ``CAND`` with the item pairs that survive level-1 pruning.
3.  For each candidate, count its contingency-table cells.  If fewer
    than ``p%`` of the cells have count >= ``s``, discard it (support
    pruning).  Otherwise compare its chi-squared value against the
    significance cutoff: correlated itemsets go to ``SIG`` (output) and
    are *not* expanded (their supersets are non-minimal — significance
    pruning); uncorrelated-but-supported itemsets go to ``NOTSIG``.
4.  The next level's ``CAND`` is every set S whose size-|S|-1 subsets
    are all in ``NOTSIG``, generated by joining pairs of ``NOTSIG``
    elements and probing the remaining subsets in the (perfect) hash
    table.  Loop until ``CAND`` is empty.

The implementation exposes every design choice §4 discusses as a knob,
so the ablation benchmarks can measure each one:

* ``table_backend`` — ``"dict"`` or ``"fks"`` perfect hashing for
  NOTSIG/CAND membership;
* ``counting`` — the cell-counting backend, one of the names in
  :data:`repro.counting.BACKENDS`: ``"bitmap"`` (vertical bitmaps +
  Möbius inversion per candidate), ``"single_pass"`` (one scan per
  level counting every candidate at once, the paper's alternative — and the
  only option for streaming databases), ``"vectorized"`` (the NumPy
  packed-bitmap kernels of :mod:`repro.kernels`, falling back to the
  bitmap path when NumPy is missing), ``"parallel"`` (the sharded
  multi-process engine of :mod:`repro.parallel`, sized by ``workers``),
  or ``"fptree"`` (one ancestor-chain sweep of a prefix tree yields
  every level-2 candidate's cells; levels above 2 fall back to bitmaps);
* ``level1_pruning`` — toggle the special p > 0.25 pair pruning;
* ``statistic`` — ``"chi2"`` (default) or ``"g"`` (likelihood-ratio
  G-test, an upward-closed drop-in);
* ``min_expected_cell`` — §3.3's small-cell policy.

Either knob only picks which cells recipe of :mod:`repro.core.correlation`
each supported candidate is decided with; a table is built only for SIG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb

from repro.core.border import Border
from repro.core.contingency import ContingencyTable
from repro.core.correlation import (
    CorrelationTest,
    chi2_from_cells,
    chi2_from_cells_ignoring_small,
    g_from_cells,
)
from repro.core.itemsets import Itemset
from repro.core.lattice import apriori_join
from repro.core.rules import CorrelationRule
from repro.counting import CountingBackend, check_backend, open_backend
from repro.data.basket import BasketDatabase
from repro.hashing.itemset_table import ItemsetTable
from repro.measures.cellsupport import (
    AntiSupport,
    CellSupport,
    level1_pair_may_have_support,
)
from repro.obs import NULL_TELEMETRY, Telemetry

__all__ = ["LevelStats", "MiningResult", "ChiSquaredSupportMiner"]


@dataclass(frozen=True, slots=True)
class LevelStats:
    """Pruning effectiveness counters for one lattice level (Table 5).

    Attributes:
        level: itemset size.
        lattice_itemsets: ``C(k, level)`` — itemsets that exist at this
            level, i.e. what a miner without pruning would examine.
        candidates: ``|CAND|`` — itemsets actually examined.
        discarded: candidates failing the support test.
        significant: ``|SIG|`` additions (supported and correlated).
        not_significant: ``|NOTSIG|`` additions (supported, uncorrelated).
        wall_seconds: elapsed time for the whole level (counting, the
            support/significance tests, and the next level's join), as
            measured by the run's tracer; ``0.0`` when telemetry is
            disabled (the default).
        counting_seconds: the share of ``wall_seconds`` spent in the
            level's one ``count_cells`` call (its ``mine.level.count``
            span); ``0.0`` when telemetry is disabled.
    """

    level: int
    lattice_itemsets: int
    candidates: int
    discarded: int
    significant: int
    not_significant: int
    wall_seconds: float = 0.0
    counting_seconds: float = 0.0


@dataclass(slots=True)
class MiningResult:
    """Everything the chi-squared-support miner produces.

    ``rules`` are the significant itemsets in discovery order (all are
    minimal correlated itemsets by construction); ``border`` is the same
    set as an antichain structure; ``level_stats`` reproduces Table 5's
    counters; ``supported_uncorrelated`` is the final NOTSIG content,
    useful for "surprisingly uncorrelated" analyses like the paper's
    {i1, i4} census discussion.
    """

    rules: list[CorrelationRule]
    border: Border
    level_stats: list[LevelStats]
    supported_uncorrelated: list[Itemset]
    significance: float
    support: CellSupport
    items_examined: int = 0
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    _by_itemset: dict[Itemset, CorrelationRule] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_itemset = {rule.itemset: rule for rule in self.rules}

    @property
    def hypotheses_tested(self) -> int:
        """Statistic evaluations behind this result: the supported candidates."""
        return sum(stats.candidates - stats.discarded for stats in self.level_stats)

    def rule_for(self, itemset: Itemset) -> CorrelationRule | None:
        """The rule discovered for ``itemset``, if any."""
        return self._by_itemset.get(itemset)

    def itemsets(self) -> list[Itemset]:
        """The significant itemsets, sorted."""
        return sorted(self._by_itemset)

    def rules_at_level(self, size: int) -> list[CorrelationRule]:
        """Rules whose itemset has exactly ``size`` items."""
        return [rule for rule in self.rules if len(rule.itemset) == size]

    def rules_containing(self, item: int) -> list[CorrelationRule]:
        """Rules whose itemset includes ``item``."""
        return [rule for rule in self.rules if item in rule.itemset]

    def top(self, n: int = 10) -> list[CorrelationRule]:
        """The ``n`` rules with the largest chi-squared values."""
        return sorted(self.rules, key=lambda rule: -rule.statistic)[:n]

    def run_report(self) -> dict[str, object]:
        """The telemetry run report for this run (see :mod:`repro.obs`)."""
        return self.telemetry.run_report(self.level_stats)

    def render_telemetry(self) -> str:
        """The human-readable run report (Table 5 plus timings/rollups)."""
        return self.telemetry.render_summary(self.level_stats)


class ChiSquaredSupportMiner:
    """Configured instance of the Figure 1 algorithm.

    >>> from repro.data.basket import BasketDatabase
    >>> db = BasketDatabase.from_baskets(
    ...     [["tea", "coffee"]] * 45 + [["tea"]] * 5 + [["coffee"]] * 25 + [[]] * 25)
    >>> miner = ChiSquaredSupportMiner(significance=0.95, support=CellSupport(2, 0.3))
    >>> result = miner.mine(db)
    >>> [db.vocabulary.decode(rule.itemset) for rule in result.rules]
    [('tea', 'coffee')]
    """

    def __init__(
        self,
        significance: float = 0.95,
        support: CellSupport | None = None,
        max_level: int | None = None,
        table_backend: str = "dict",
        counting: str = "bitmap",
        level1_pruning: bool = True,
        statistic: str = "chi2",
        min_expected_cell: float = 0.0,
        workers: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if isinstance(support, AntiSupport):
            # §4: "Anti-support cannot be used with the chi-squared test
            # at this time ... the chi-squared statistic is not accurate
            # for very rare events."
            raise ValueError(
                "anti-support cannot be combined with the chi-squared test; "
                "use it as a standalone filter or with a random-walk search"
            )
        check_backend(counting)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if statistic not in ("chi2", "g"):
            raise ValueError(f"unknown statistic {statistic!r}")
        # The test holds the cutoff and packages SIG evidence; it also
        # rejects a negative min_expected_cell.
        self.test = CorrelationTest(
            significance=significance, min_expected_cell=min_expected_cell
        )
        # The one statistic recipe a run calls on each supported
        # candidate's (cells, item counts, n).  min_expected_cell > 0
        # applies §3.3's interim policy: cells with tiny expectation are
        # dropped from the sum.
        if statistic == "g":
            self.from_cells = g_from_cells
        elif min_expected_cell > 0.0:
            self.from_cells = partial(
                chi2_from_cells_ignoring_small, min_expected=min_expected_cell
            )
        else:
            self.from_cells = chi2_from_cells
        self.support = support if support is not None else CellSupport(count=1, fraction=0.26)
        self.max_level = max_level
        self.table_backend = table_backend
        self.counting = counting
        self.level1_pruning = level1_pruning
        self.statistic_name = statistic
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # -- candidate generation ---------------------------------------------------

    def _initial_candidates(self, db: BasketDatabase) -> list[Itemset]:
        """Step 3: item pairs surviving the level-1 pruning."""
        n = db.n_baskets
        counts = db.item_counts()
        k = db.n_items
        candidates: list[Itemset] = []
        for a in range(k):
            for b in range(a + 1, k):
                if self.level1_pruning and not level1_pair_may_have_support(
                    counts[a], counts[b], n, self.support
                ):
                    continue
                candidates.append(Itemset((a, b)))
        return candidates

    def _next_candidates(self, notsig: ItemsetTable, level: int) -> list[Itemset]:
        """Step 8: join NOTSIG pairs, keep sets with all subsets in NOTSIG.

        The join produces each candidate from two of its subsets; the
        remaining ``level - 1`` subsets are probed in the NOTSIG hash
        table, each in constant time (§4's perfect-hashing argument).
        """
        candidates: list[Itemset] = []
        for candidate in apriori_join(notsig.keys()):
            if all(subset in notsig for subset in candidate.immediate_subsets()):
                candidates.append(candidate)
        return candidates

    # -- main loop -----------------------------------------------------------

    def mine(self, db: BasketDatabase) -> MiningResult:
        """Run the algorithm over a database and return all outputs."""
        if db.n_baskets == 0:
            raise ValueError("cannot mine an empty database")
        return self._mine(db, None)

    def _mine(self, db: BasketDatabase, backend: CountingBackend | None) -> MiningResult:
        """The run, counting through ``backend`` when one is handed in.

        ``None`` opens the configured backend for this run and closes it
        afterwards.  The incremental miner hands in its own cell engine
        instead (which it keeps), so both miners share this loop.
        """
        rules: list[CorrelationRule] = []
        border = Border()
        stats: list[LevelStats] = []
        all_notsig: list[Itemset] = []
        with self.telemetry.tracer.span(
            "mine",
            counting=self.counting,
            statistic=self.statistic_name,
            n_baskets=db.n_baskets,
            n_items=db.n_items,
        ):
            owned = backend is None
            if owned:
                backend = open_backend(
                    self.counting, db, workers=self.workers, telemetry=self.telemetry
                )
            try:
                with self.telemetry.tracer.span("mine.seed_pairs"):
                    candidates = self._initial_candidates(db)
                examined = self._mine_levels(
                    db, candidates, backend, rules, border, stats, all_notsig
                )
            finally:
                if owned:
                    backend.close()

        return MiningResult(
            rules=rules,
            border=border,
            level_stats=stats,
            supported_uncorrelated=sorted(all_notsig),
            significance=self.test.significance,
            support=self.support,
            items_examined=examined,
            telemetry=self.telemetry,
        )

    def _mine_levels(
        self,
        db: BasketDatabase,
        candidates: list[Itemset],
        backend: CountingBackend,
        rules: list[CorrelationRule],
        border: Border,
        stats: list[LevelStats],
        all_notsig: list[Itemset],
    ) -> int:
        """The level-wise loop; returns how many candidates it examined."""
        k = db.n_items
        level = 2
        examined = 0
        test = self.test
        cutoff = test.cutoff
        support = self.support
        from_cells = self.from_cells
        item_counts = db.item_counts()
        n = db.n_baskets
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        while candidates and (self.max_level is None or level <= self.max_level):
            n_candidates = len(candidates)
            with tracer.span(
                "mine.level", level=level, candidates=n_candidates
            ) as level_span:
                notsig = ItemsetTable(backend=self.table_backend)
                discarded = 0
                significant = 0

                with tracer.span(
                    "mine.level.count", backend=self.counting, candidates=n_candidates
                ) as count_span:
                    counted = backend.count_cells(candidates)

                examined += n_candidates
                for candidate, cells in zip(candidates, counted, strict=True):
                    items = candidate.items
                    if not support.supports_cells(cells, len(items)):
                        discarded += 1
                        continue
                    stat = from_cells(cells, [item_counts[item] for item in items], n)
                    if stat >= cutoff:
                        # Only SIG itemsets get a table and packaged evidence.
                        table = ContingencyTable.from_cell_counts(candidate, cells, n)
                        rule = CorrelationRule(
                            itemset=candidate,
                            result=test.evidence(table, stat),
                            table=table,
                            minimal=True,
                        )
                        rules.append(rule)
                        # Antichain-safe by construction: every subset of the
                        # candidate was in NOTSIG, so nothing below it is in
                        # the border, and its supersets are never generated.
                        border.add_minimal(candidate)
                        significant += 1
                    else:
                        notsig.insert(candidate, None)

                # Mirror this level's Table 5 counters into the metrics
                # registry; Telemetry.reconcile() later cross-checks them
                # against the LevelStats built below, exactly.
                metrics.counter("candidates", level=level).inc(n_candidates)
                metrics.counter("candidates_pruned", level=level, reason="support").inc(
                    discarded
                )
                metrics.counter("candidates_pruned", level=level, reason="chi2").inc(
                    significant
                )
                metrics.counter("itemsets", level=level, kind="significant").inc(
                    significant
                )
                metrics.counter("itemsets", level=level, kind="not_significant").inc(
                    len(notsig)
                )

                all_notsig.extend(notsig.keys())
                if self.max_level is not None and level >= self.max_level:
                    # Don't pay for a join whose output the level cap discards.
                    next_candidates: list[Itemset] = []
                else:
                    with tracer.span("mine.level.join", level=level):
                        next_candidates = self._next_candidates(notsig, level)

            stats.append(
                LevelStats(
                    level=level,
                    lattice_itemsets=comb(k, level),
                    candidates=n_candidates,
                    discarded=discarded,
                    significant=significant,
                    not_significant=len(notsig),
                    wall_seconds=level_span.duration,
                    counting_seconds=count_span.duration,
                )
            )
            candidates = next_candidates
            level += 1
        return examined
