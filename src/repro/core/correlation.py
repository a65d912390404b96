"""The chi-squared correlation test on contingency tables.

Implements the paper's core statistic,

    chi2 = sum_r (O(r) - E[r])^2 / E[r],

both as the textbook full-table sum and in the *sparse* form derived in
Section 4,

    chi2 = sum_{r : O(r) != 0} O(r) (O(r) - 2 E[r]) / E[r]  +  n,

which only visits occupied cells and therefore costs
``O(min(n, 2^k))``.  The two forms are algebraically identical
(``sum_r E[r] = n``); a property test pins that down.

Every statistic the miner uses is a function of one itemset's occupied
cells, item counts and ``n`` (:func:`chi2_from_cells`, §3.3's
:func:`chi2_from_cells_ignoring_small`, :func:`g_from_cells`); the table
forms return the same floats.  A :class:`CorrelationTest` bundles the
decision at a cutoff (3.84 at the paper's 95% level for the 1-dof
tables) with the evidence: p-value and the validity diagnostics of §3.3.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.contingency import ContingencyTable, ExpectedValueValidity, expected_spectrum
from repro.stats import chi2 as chi2_dist
from repro.stats.criticals import critical_value
from repro.stats.gtest import g_statistic

__all__ = [
    "chi2_from_cells",
    "chi2_from_cells_ignoring_small",
    "g_from_cells",
    "chi_squared_dense",
    "chi_squared_sparse",
    "chi_squared",
    "chi_squared_ignoring_small_cells",
    "CorrelationResult",
    "CorrelationTest",
    "RobustResult",
    "robust_independence_test",
]


_DEGENERATE = (
    "observed count in a cell with zero expectation; "
    "the independence model is degenerate for this table"
)


def _dense_sum(
    cells: Mapping[int, float],
    probabilities: Sequence[float],
    n: float,
    floor: float = 0.0,
) -> float:
    """The full-table sum over all ``2^k`` cells, in ascending cell order.

    Expectations come from :func:`expected_spectrum`, bit-identical to
    the per-cell evaluation.  Cells whose expectation is below ``floor``
    are left out (§3.3's small-cell policy; a zero floor keeps them
    all).  Cells whose expected value is zero are skipped when their
    observed count is also zero (a structural zero — an item occurring
    in every basket or in none — contributes nothing); a positive
    observation with zero expectation is a degenerate table and raises.
    """
    total = 0.0
    for cell, expected in enumerate(expected_spectrum(probabilities, n)):
        if expected < floor:
            continue
        observed = cells.get(cell, 0)
        if expected == 0.0:
            if observed:
                raise ZeroDivisionError(_DEGENERATE)
            continue
        deviation = observed - expected
        total += deviation * deviation / expected
    return total


def _sparse_sum(
    cells: Mapping[int, float], probabilities: Sequence[float], n: float
) -> float:
    """The paper's massaged formula over the occupied cells only.

    Cells are visited in ascending index order: float addition is not
    associative, and the occupied-cell dict's insertion order differs
    between counting backends (bitmap closed forms, single-pass scans,
    datacube roll-ups, shard merges).  A canonical summation order keeps
    the statistic bit-identical across all of them — which the
    differential backend-equivalence suite asserts.
    """
    k = len(probabilities)
    total = 0.0
    for cell in sorted(cells):
        observed = cells[cell]
        expected = n
        for j in range(k):
            p = probabilities[j]
            expected *= p if (cell >> j) & 1 else 1.0 - p
        if expected == 0.0:
            raise ZeroDivisionError(_DEGENERATE)
        total += observed * (observed - 2.0 * expected) / expected
    # sum_r E[r] = n except for probability mass that the independence
    # model places on structurally impossible patterns; for tables built
    # from a real database the marginals make that mass zero.  The
    # rearranged sum can cancel to a tiny negative value for a perfectly
    # independent table; clamp it, the statistic is non-negative.
    return max(total + n, 0.0)


def chi2_from_cells(
    cells: Mapping[int, float], marginals: Sequence[float], n: float
) -> float:
    """The chi-squared statistic of one itemset from its counted cells.

    ``cells`` maps each *occupied* cell (non-zero count) to its count,
    exactly as every counting backend returns them; ``marginals`` are
    the k item occurrence counts in itemset order and ``n`` the number
    of baskets.  The one recipe behind :func:`chi_squared` and the
    miner's decision loop: the sparse formula when some cell is empty,
    exactly as the paper's ``O(min(n, 2^i))`` analysis prescribes, the
    full-table sum otherwise.
    """
    probabilities = [m / n for m in marginals]
    if len(cells) < 1 << len(probabilities):
        return _sparse_sum(cells, probabilities, n)
    return _dense_sum(cells, probabilities, n)


def chi2_from_cells_ignoring_small(
    cells: Mapping[int, float], marginals: Sequence[float], n: float, min_expected: float
) -> float:
    """§3.3's full-table sum over the cells whose expectation is at
    least ``min_expected``; arguments as for :func:`chi2_from_cells`."""
    return _dense_sum(cells, [m / n for m in marginals], n, min_expected)


def g_from_cells(
    cells: Mapping[int, float], marginals: Sequence[float], n: float
) -> float:
    """The likelihood-ratio G statistic; arguments as for :func:`chi2_from_cells`.

    Occupied cells in ascending order, each with the expectation of
    :meth:`ContingencyTable.expected`, as the table form visits them.
    """
    probabilities = [m / n for m in marginals]
    pairs = []
    for cell in sorted(cells):
        expected = n
        for j, p in enumerate(probabilities):
            expected *= p if (cell >> j) & 1 else 1.0 - p
        pairs.append((cells[cell], expected))
    return g_statistic(pairs)


def chi_squared_dense(table: ContingencyTable) -> float:
    """Full-table chi-squared sum over all ``2^k`` cells.

    The textbook form, bit-identical to summing
    ``(O(r) - E[r])^2 / E[r]`` with :meth:`~ContingencyTable.expected`
    per cell in ascending cell order.
    """
    return _dense_sum(table.nonzero_counts(), table.marginal_probabilities(), table.n)


def chi_squared_sparse(table: ContingencyTable) -> float:
    """Occupied-cells-only chi-squared via the paper's massaged formula."""
    return _sparse_sum(table.nonzero_counts(), table.marginal_probabilities(), table.n)


def chi_squared(table: ContingencyTable) -> float:
    """Chi-squared statistic of a table, via :func:`chi2_from_cells`."""
    marginals = [table.marginal(j) for j in range(table.n_items)]
    return chi2_from_cells(table.nonzero_counts(), marginals, table.n)


def chi_squared_ignoring_small_cells(
    table: ContingencyTable, min_expected: float
) -> float:
    """Chi-squared restricted to cells with expectation >= ``min_expected``.

    Section 3.3's interim policy for tables that fail the rule-of-thumb
    validity check: "In the meantime, we merely ignore cells with small
    expected value", justified by a support argument — a correlation
    carried only by a cell whose expectation is below 1 involves events
    too rare to act on.  With ``min_expected = 0`` this is the plain
    statistic.  Note the same section's caveat: on adversarial data the
    truncation can skew results arbitrarily.
    """
    if min_expected < 0:
        raise ValueError(f"min_expected must be non-negative, got {min_expected}")
    return _dense_sum(
        table.nonzero_counts(), table.marginal_probabilities(), table.n, min_expected
    )


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    """Outcome of a chi-squared correlation test on one itemset.

    Attributes:
        statistic: the chi-squared value.
        cutoff: the critical value the statistic was compared against.
        correlated: ``statistic >= cutoff``.
        p_value: upper-tail probability of the statistic at 1 dof (the
            paper's binomial-table convention, Appendix A).
        validity: rule-of-thumb diagnostics of the approximation (§3.3).
    """

    statistic: float
    cutoff: float
    correlated: bool
    p_value: float
    validity: ExpectedValueValidity

    @property
    def reliable(self) -> bool:
        """Whether the chi-squared approximation can be trusted (§3.3)."""
        return self.validity.is_valid


class CorrelationTest:
    """Chi-squared correlation test at a fixed significance level.

    The paper treats every binary contingency table as having one degree
    of freedom (Appendix A: "no matter what k is, the chi-squared
    statistic has only one degree of freedom"), which is also what makes
    the test upward closed; ``df`` is exposed for the multinomial
    generalisation.

    >>> from repro.core.itemsets import Itemset
    >>> from repro.core.contingency import ContingencyTable
    >>> # Example 1 of the paper: tea (bit 0) and coffee (bit 1).
    >>> table = ContingencyTable.from_percentages(
    ...     Itemset([0, 1]), {0b11: 20, 0b01: 5, 0b10: 70, 0b00: 5}, n=100)
    >>> test = CorrelationTest(significance=0.95)
    >>> round(test(table).statistic, 2)
    3.7
    """

    __slots__ = ("significance", "df", "cutoff", "min_expected_cell")

    def __init__(
        self,
        significance: float = 0.95,
        df: int = 1,
        min_expected_cell: float = 0.0,
    ) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {significance}")
        if df < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {df}")
        if min_expected_cell < 0:
            raise ValueError(
                f"min_expected_cell must be non-negative, got {min_expected_cell}"
            )
        self.significance = significance
        self.df = df
        self.cutoff = critical_value(significance, df)
        # §3.3's interim policy: ignore cells below this expectation.
        self.min_expected_cell = min_expected_cell

    def statistic(self, table: ContingencyTable) -> float:
        """The chi-squared value of ``table``."""
        if self.min_expected_cell > 0.0:
            return chi_squared_ignoring_small_cells(table, self.min_expected_cell)
        return chi_squared(table)

    def __call__(self, table: ContingencyTable) -> CorrelationResult:
        """Run the full test: statistic, decision, p-value, validity."""
        return self.evidence(table, self.statistic(table))

    def evidence(self, table: ContingencyTable, statistic: float) -> CorrelationResult:
        """The decision, p-value and validity for a statistic already
        computed on ``table`` (the miner's SIG itemsets, or a query)."""
        return CorrelationResult(
            statistic=statistic,
            cutoff=self.cutoff,
            correlated=statistic >= self.cutoff,
            p_value=chi2_dist.sf(statistic, self.df),
            validity=table.validity(),
        )

    def is_correlated(self, table: ContingencyTable) -> bool:
        """Significance decision only."""
        return self.statistic(table) >= self.cutoff

    def __repr__(self) -> str:
        return f"CorrelationTest(significance={self.significance}, df={self.df})"


@dataclass(frozen=True, slots=True)
class RobustResult:
    """Outcome of :func:`robust_independence_test`.

    ``method`` records which test produced the decision: ``"chi2"``,
    ``"fisher"`` (2x2 exact), or ``"permutation"`` (Monte-Carlo exact
    for wider tables).
    """

    method: str
    p_value: float
    correlated: bool
    statistic: float | None
    validity: ExpectedValueValidity


def robust_independence_test(
    table: ContingencyTable,
    significance: float = 0.95,
    permutation_rounds: int = 1000,
    seed: int = 0,
) -> RobustResult:
    """Independence test that degrades gracefully on small expectations.

    Implements the escalation §3.3 wishes for: use chi-squared where its
    approximation is trustworthy (the Moore rule of thumb), otherwise
    fall back to an exact test — Fisher's conditional test for 2x2
    tables, a Monte-Carlo exact test for wider ones.
    """
    validity = table.validity()
    alpha = 1.0 - significance
    if validity.is_valid:
        test = CorrelationTest(significance=significance)
        result = test(table)
        return RobustResult(
            method="chi2",
            p_value=result.p_value,
            correlated=result.correlated,
            statistic=result.statistic,
            validity=validity,
        )
    if table.n_items == 2:
        from repro.stats.fisher import fisher_exact_2x2

        a = round(table.observed(0b11))
        b = round(table.observed(0b01))
        c = round(table.observed(0b10))
        d = round(table.observed(0b00))
        fisher = fisher_exact_2x2(a, b, c, d)
        return RobustResult(
            method="fisher",
            p_value=fisher.p_value,
            correlated=fisher.p_value <= alpha,
            statistic=None,
            validity=validity,
        )
    from repro.stats.exact import permutation_p_value

    permutation = permutation_p_value(table, rounds=permutation_rounds, seed=seed)
    return RobustResult(
        method="permutation",
        p_value=permutation.p_value,
        correlated=permutation.p_value <= alpha,
        statistic=permutation.observed_statistic,
        validity=validity,
    )
