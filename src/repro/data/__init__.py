"""Data substrates: basket databases, I/O, and the paper's three datasets."""

from repro.data.basket import BasketDatabase
from repro.data.census import (
    CENSUS_ATTRIBUTES,
    PAPER_N,
    TABLE2_CHI2,
    TABLE3_SUPPORT_PERCENTAGES,
    CensusAttribute,
    census_vocabulary,
    example3_sample,
    pairwise_targets,
    synthesize_census,
)
from repro.data.datacube import CountDatacube
from repro.data.census_records import census_schema, synthesize_census_records
from repro.data.discretize import (
    BinnedAttribute,
    BooleanAttribute,
    CategoryAttribute,
    DerivedAttribute,
    ThresholdAttribute,
    discretize,
)
from repro.data.corpusgen import (
    PLANTED_TOPICS,
    NewsCorpusParameters,
    Topic,
    generate_news_corpus,
)
from repro.data.io import (
    read_named_baskets,
    read_numeric_baskets,
    write_named_baskets,
    write_numeric_baskets,
)
from repro.data.ipf import IPFResult, PairwiseTarget, fit_pairwise, materialize_counts
from repro.data.parity import generate_parity_data, planted_border
from repro.data.streaming import StreamingBasketDatabase
from repro.data.quest import QuestParameters, generate_quest
from repro.data.text import TextPipeline, corpus_to_baskets, tokenize

__all__ = [
    "BasketDatabase",
    "CountDatacube",
    "BinnedAttribute",
    "BooleanAttribute",
    "CategoryAttribute",
    "DerivedAttribute",
    "ThresholdAttribute",
    "discretize",
    "census_schema",
    "synthesize_census_records",
    "CENSUS_ATTRIBUTES",
    "PAPER_N",
    "TABLE2_CHI2",
    "TABLE3_SUPPORT_PERCENTAGES",
    "CensusAttribute",
    "census_vocabulary",
    "example3_sample",
    "pairwise_targets",
    "synthesize_census",
    "PLANTED_TOPICS",
    "NewsCorpusParameters",
    "Topic",
    "generate_news_corpus",
    "read_named_baskets",
    "read_numeric_baskets",
    "write_named_baskets",
    "write_numeric_baskets",
    "IPFResult",
    "PairwiseTarget",
    "fit_pairwise",
    "materialize_counts",
    "generate_parity_data",
    "planted_border",
    "StreamingBasketDatabase",
    "QuestParameters",
    "generate_quest",
    "TextPipeline",
    "corpus_to_baskets",
    "tokenize",
]
