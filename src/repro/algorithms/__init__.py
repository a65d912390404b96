"""Mining algorithms: the paper's chi2-support miner and the baselines."""

from repro.algorithms.apriori import AprioriResult, apriori, brute_force_frequent
from repro.algorithms.chi2support import ChiSquaredSupportMiner, LevelStats, MiningResult
from repro.algorithms.closed import closed_frequent, maximal_frequent, support_border
from repro.algorithms.negative import NegativeImplication, mine_negative_implications
from repro.algorithms.pcy import PCYResult, pcy
from repro.algorithms.randomwalk import RandomWalkMiner, RandomWalkResult
from repro.algorithms.rulegen import generate_rules, rules_for_itemset
from repro.algorithms.sampling import (
    SamplingResult,
    negative_border,
    toivonen_sample_mine,
)

__all__ = [
    "AprioriResult",
    "apriori",
    "brute_force_frequent",
    "ChiSquaredSupportMiner",
    "LevelStats",
    "MiningResult",
    "closed_frequent",
    "maximal_frequent",
    "support_border",
    "NegativeImplication",
    "mine_negative_implications",
    "PCYResult",
    "pcy",
    "RandomWalkMiner",
    "RandomWalkResult",
    "generate_rules",
    "rules_for_itemset",
    "SamplingResult",
    "negative_border",
    "toivonen_sample_mine",
]
