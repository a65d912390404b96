"""repro — correlation rule mining beyond market baskets.

A complete reproduction of Brin, Motwani & Silverstein, *Beyond Market
Baskets: Generalizing Association Rules to Correlations* (SIGMOD 1997):
the chi-squared correlation test over itemset contingency tables, the
interest measure, cell-based support, the level-wise border-mining
algorithm of Figure 1, a random-walk border sampler, the
support-confidence baselines (Apriori, PCY), and the paper's three
evaluation datasets (reconstructed census, synthetic news corpus, IBM
Quest market baskets).

Quickstart::

    from repro import BasketDatabase, mine_correlations

    db = BasketDatabase.from_baskets(
        [["tea", "coffee"]] * 20 + [["coffee"]] * 70 + [["tea"]] * 5 + [[]] * 5)
    result = mine_correlations(db, significance=0.95, support_count=5)
    for rule in result.rules:
        print(rule.describe(db.vocabulary))
"""

from repro.algorithms import (
    AprioriResult,
    ChiSquaredSupportMiner,
    LevelStats,
    MiningResult,
    PCYResult,
    RandomWalkMiner,
    RandomWalkResult,
    SamplingResult,
    apriori,
    generate_rules,
    pcy,
    toivonen_sample_mine,
)
from repro.core import (
    AssociationRule,
    Border,
    CategoricalResult,
    CategoricalTable,
    categorical_chi_squared_test,
    CellInterest,
    ContingencyTable,
    CorrelationResult,
    CorrelationRule,
    CorrelationTest,
    FrameworkComparison,
    Itemset,
    ItemVocabulary,
    chi_squared,
    compare_frameworks,
    correlation_rule,
    interest,
    interest_table,
    mine_correlations,
    mining_result_to_dict,
    most_extreme_cell,
    PairScreen,
    pairwise_screen,
    render_contingency,
    render_contingency_2x2,
    render_level_stats,
    render_rules,
    rule_to_dict,
)
from repro.data import BasketDatabase, CountDatacube
from repro.measures import AntiSupport, CellSupport
from repro.obs import Telemetry

__version__ = "1.0.0"

__all__ = [
    "AprioriResult",
    "ChiSquaredSupportMiner",
    "LevelStats",
    "MiningResult",
    "PCYResult",
    "RandomWalkMiner",
    "RandomWalkResult",
    "SamplingResult",
    "apriori",
    "generate_rules",
    "pcy",
    "toivonen_sample_mine",
    "AssociationRule",
    "Border",
    "CategoricalResult",
    "CategoricalTable",
    "categorical_chi_squared_test",
    "CellInterest",
    "ContingencyTable",
    "CorrelationResult",
    "CorrelationRule",
    "CorrelationTest",
    "FrameworkComparison",
    "Itemset",
    "ItemVocabulary",
    "chi_squared",
    "compare_frameworks",
    "correlation_rule",
    "interest",
    "interest_table",
    "mine_correlations",
    "mining_result_to_dict",
    "most_extreme_cell",
    "PairScreen",
    "pairwise_screen",
    "render_contingency",
    "render_contingency_2x2",
    "render_level_stats",
    "render_rules",
    "rule_to_dict",
    "BasketDatabase",
    "CountDatacube",
    "AntiSupport",
    "CellSupport",
    "Telemetry",
    "__version__",
]
