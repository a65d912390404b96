"""Core: itemsets, contingency tables, the chi-squared correlation test,
interest, borders, and the high-level mining API."""

from repro.core.border import Border
from repro.core.categorical import (
    CategoricalResult,
    CategoricalTable,
    categorical_chi_squared_test,
)
from repro.core.contingency import (
    ContingencyTable,
    ExpectedValueValidity,
    count_cells_single_pass,
)
from repro.core.correlation import (
    CorrelationResult,
    CorrelationTest,
    RobustResult,
    chi2_from_cells,
    chi_squared,
    chi_squared_dense,
    chi_squared_ignoring_small_cells,
    chi_squared_sparse,
    robust_independence_test,
)
from repro.core.interest import CellInterest, interest, interest_table, most_extreme_cell
from repro.core.itemsets import Itemset, ItemVocabulary, empty_itemset
from repro.core.mining import (
    FrameworkComparison,
    compare_frameworks,
    correlation_rule,
    mine_correlations,
)
from repro.core.report import (
    mining_result_to_dict,
    render_contingency,
    render_contingency_2x2,
    render_level_stats,
    render_rules,
    rule_to_dict,
)
from repro.core.rules import AssociationRule, CorrelationRule, format_cell
from repro.core.screening import PairScreen, pairwise_screen

__all__ = [
    "Border",
    "CategoricalResult",
    "CategoricalTable",
    "categorical_chi_squared_test",
    "ContingencyTable",
    "ExpectedValueValidity",
    "count_cells_single_pass",
    "CorrelationResult",
    "CorrelationTest",
    "RobustResult",
    "chi2_from_cells",
    "chi_squared",
    "chi_squared_dense",
    "chi_squared_ignoring_small_cells",
    "chi_squared_sparse",
    "robust_independence_test",
    "CellInterest",
    "interest",
    "interest_table",
    "most_extreme_cell",
    "Itemset",
    "ItemVocabulary",
    "empty_itemset",
    "FrameworkComparison",
    "compare_frameworks",
    "correlation_rule",
    "mine_correlations",
    "AssociationRule",
    "CorrelationRule",
    "format_cell",
    "PairScreen",
    "pairwise_screen",
    "mining_result_to_dict",
    "render_contingency",
    "render_contingency_2x2",
    "render_level_stats",
    "render_rules",
    "rule_to_dict",
]
