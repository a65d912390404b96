"""Rendering and serialisation of mining output.

The paper communicates through a handful of table shapes — the 2x2
contingency tables of the worked examples, the pair listings of Tables
2-4, the per-level pruning counters of Table 5.  This module renders
each of them as plain text (what the CLI and the benchmark harness
print) and serialises rules and results to JSON-compatible dicts for
downstream tooling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.contingency import ContingencyTable
from repro.core.interest import interest_table
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.core.rules import CorrelationRule, format_cell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.chi2support import LevelStats, MiningResult

__all__ = [
    "render_contingency_2x2",
    "render_contingency",
    "render_rules",
    "render_level_stats",
    "rule_to_dict",
    "cells_to_dict",
    "mining_result_to_dict",
    "significance_summary",
]

# Surfaced with every batch of discoveries (Hämäläinen & Webb, arXiv
# 1405.1360): a per-test significance level does not control the number
# of false discoveries across a mining run that tests thousands of
# hypotheses.
_MULTIPLE_HYPOTHESIS_NOTE = (
    "each itemset is tested at the per-comparison level alpha; across "
    "hypotheses_tested tests, roughly expected_false_discoveries spurious "
    "correlations are expected by chance alone (see Hamalainen & Webb, "
    "arXiv:1405.1360). bonferroni_alpha is the per-test level that would "
    "bound the family-wise error rate at alpha."
)


def significance_summary(
    significance: float,
    hypotheses_tested: int,
    discoveries: int,
    cumulative_tests: int | None = None,
) -> dict[str, object]:
    """The multiple-hypothesis caveat attached to query responses.

    ``hypotheses_tested`` counts the chi-squared evaluations behind the
    current result; ``cumulative_tests`` (optional) counts evaluations
    across a service's whole lifetime of re-mines.  The expected number
    of false discoveries under the global null is ``alpha`` per test —
    the paper's per-itemset cutoff says nothing about the batch.
    """
    alpha = 1.0 - significance
    summary: dict[str, object] = {
        "significance": significance,
        "alpha": alpha,
        "hypotheses_tested": hypotheses_tested,
        "discoveries": discoveries,
        "expected_false_discoveries": hypotheses_tested * alpha,
        "bonferroni_alpha": alpha / hypotheses_tested if hypotheses_tested else alpha,
        "note": _MULTIPLE_HYPOTHESIS_NOTE,
    }
    if cumulative_tests is not None:
        summary["cumulative_tests"] = cumulative_tests
    return summary


def cells_to_dict(table: ContingencyTable) -> dict[str, int]:
    """The occupied cells keyed by presence flags, first item first.

    ``"10"`` is the pair cell with only the first item present; the
    wire form of the point-query and top-K responses.
    """
    width = table.n_items
    return {
        format(cell, f"0{width}b")[::-1]: int(count)
        for cell, count in sorted(table.nonzero_counts().items())
    }


def _names(itemset: Itemset, vocabulary: ItemVocabulary | None) -> list[str]:
    if vocabulary is not None:
        return list(vocabulary.decode(itemset))
    return [f"i{item}" for item in itemset]


def render_contingency_2x2(
    table: ContingencyTable, vocabulary: ItemVocabulary | None = None
) -> str:
    """The paper's 2x2 layout with row and column sums (Example 1).

    Rows are the first item (present, then absent), columns the second.
    """
    if table.n_items != 2:
        raise ValueError(f"need a 2-item table, got {table.n_items} items")
    a_name, b_name = _names(table.itemset, vocabulary)

    o = {
        (1, 1): table.observed(0b11),
        (1, 0): table.observed(0b01),
        (0, 1): table.observed(0b10),
        (0, 0): table.observed(0b00),
    }
    row_present = o[(1, 1)] + o[(1, 0)]
    row_absent = o[(0, 1)] + o[(0, 0)]
    col_present = o[(1, 1)] + o[(0, 1)]
    col_absent = o[(1, 0)] + o[(0, 0)]

    def fmt(value: float) -> str:
        return f"{value:g}"

    width = max(
        8,
        *(len(fmt(v)) for v in o.values()),
        len(fmt(table.n)),
        len(b_name) + 1,
        len(a_name) + 1,
    )
    header = f"{'':<{width}} {b_name:>{width}} {'~' + b_name:>{width}} {'sum':>{width}}"
    row1 = (
        f"{a_name:<{width}} {fmt(o[(1, 1)]):>{width}} {fmt(o[(1, 0)]):>{width}} "
        f"{fmt(row_present):>{width}}"
    )
    row2 = (
        f"{'~' + a_name:<{width}} {fmt(o[(0, 1)]):>{width}} {fmt(o[(0, 0)]):>{width}} "
        f"{fmt(row_absent):>{width}}"
    )
    totals = (
        f"{'sum':<{width}} {fmt(col_present):>{width}} {fmt(col_absent):>{width}} "
        f"{fmt(table.n):>{width}}"
    )
    return "\n".join((header, row1, row2, totals))


def render_contingency(
    table: ContingencyTable, vocabulary: ItemVocabulary | None = None
) -> str:
    """Generic per-cell listing: pattern, observed, expected, interest."""
    lines = [f"{'cell':<40} {'observed':>10} {'expected':>12} {'interest':>9}"]
    for cell in interest_table(table):
        label = format_cell(table.itemset, cell.pattern, vocabulary)
        interest_text = "nan" if math.isnan(cell.interest) else f"{cell.interest:.3f}"
        lines.append(
            f"[{label}]".ljust(40)
            + f" {cell.observed:>10g} {cell.expected:>12.2f} {interest_text:>9}"
        )
    return "\n".join(lines)


def render_rules(
    rules: Sequence[CorrelationRule],
    vocabulary: ItemVocabulary | None = None,
    limit: int | None = None,
) -> str:
    """Table 4-style listing: itemset, chi-squared, major dependence."""
    lines = [f"{'correlated items':<40} {'chi2':>10}  major dependence"]
    shown = rules if limit is None else rules[:limit]
    for rule in shown:
        names = " ".join(_names(rule.itemset, vocabulary))
        major = rule.major_dependence()
        cell = format_cell(rule.itemset, major.pattern, vocabulary)
        lines.append(
            f"{names:<40} {rule.statistic:>10.3f}  [{cell}] I={major.interest:.3f}"
        )
    hidden = len(rules) - len(shown)
    if hidden > 0:
        lines.append(f"... and {hidden} more")
    return "\n".join(lines)


def render_level_stats(stats: Sequence["LevelStats"]) -> str:
    """Table 5-style pruning counters."""
    header = (
        f"{'level':>5} {'itemsets':>16} {'|CAND|':>9} {'discards':>9} "
        f"{'|SIG|':>7} {'|NOTSIG|':>9}"
    )
    lines = [header, "-" * len(header)]
    for level in stats:
        lines.append(
            f"{level.level:>5} {level.lattice_itemsets:>16,} {level.candidates:>9} "
            f"{level.discarded:>9} {level.significant:>7} {level.not_significant:>9}"
        )
    return "\n".join(lines)


def rule_to_dict(
    rule: CorrelationRule, vocabulary: ItemVocabulary | None = None
) -> dict[str, object]:
    """JSON-compatible representation of one correlation rule."""
    major = rule.major_dependence()
    return {
        "items": _names(rule.itemset, vocabulary),
        "item_ids": list(rule.itemset.items),
        "chi_squared": rule.statistic,
        "p_value": rule.p_value,
        "cutoff": rule.result.cutoff,
        "minimal": rule.minimal,
        "reliable": rule.result.reliable,
        "major_dependence": {
            "pattern": list(major.pattern),
            "observed": major.observed,
            "expected": major.expected,
            "interest": None if math.isnan(major.interest) else major.interest,
        },
    }


def mining_result_to_dict(
    result: "MiningResult", vocabulary: ItemVocabulary | None = None
) -> dict[str, object]:
    """JSON-compatible representation of a full mining run."""
    return {
        "significance": result.significance,
        "support": {
            "count": result.support.count,
            "fraction": result.support.fraction,
        },
        "rules": [rule_to_dict(rule, vocabulary) for rule in result.rules],
        "levels": [
            {
                "level": level.level,
                "lattice_itemsets": level.lattice_itemsets,
                "candidates": level.candidates,
                "discarded": level.discarded,
                "significant": level.significant,
                "not_significant": level.not_significant,
            }
            for level in result.level_stats
        ],
        "supported_uncorrelated": [
            _names(itemset, vocabulary) for itemset in result.supported_uncorrelated
        ],
    }
