"""The benchmark's inputs, and the set-up that builds them.

Each workload's data has a fixed structure: the Quest pattern pool and
the news corpus are drawn from fixed generator seeds, so every run mines
the same lattice and the numbers of candidates, SIG and NOTSIG itemsets
repeat exactly.  ``--seed`` draws what varies from run to run: the
order of the baskets (and so every bitmap), the baskets appended, the
itemsets queried and the service's request mix.  Drawing the structure
from ``--seed`` as well would move the level-3 candidate count by about
5% between seeds on Quest, which is more than the run-to-run noise the
bounds in ``BENCHMARK.json`` must sit above.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from perfsuite.common import use_source

use_source()

from repro.data.basket import BasketDatabase  # noqa: E402
from repro.data.corpusgen import NewsCorpusParameters, generate_news_corpus  # noqa: E402
from repro.data.quest import QuestParameters, generate_quest  # noqa: E402
from repro.data.text import TextPipeline  # noqa: E402

# The generator seeds that fix each dataset's structure: the defaults
# of the repository's Quest and news-corpus generators.
QUEST_STRUCTURE_SEED = 1997
CORPUS_STRUCTURE_SEED = 1996

ALL_BACKENDS = ("bitmap", "vectorized", "parallel", "fptree")
PARALLEL_WORKERS = 2

# The timed rounds mine with bitmap and vectorized, and with parallel
# only where counting is half of a mine (quest-tall), the one place it
# could be fastest.  Elsewhere parallel takes 2 to 4 times a bitmap
# mine, and fptree 1.5 to 4 times, so each would take a large share of
# every round for a metric it cannot move (the FP-tree's end-to-end
# metric is ``topk_s``).  Traced runs still time every backend once per
# round (``counting.*.mine_s``).
SERIAL_BACKENDS = ("bitmap", "vectorized")

# Length of a run's stream of queried pairs; a run cycles through it.
QUERY_STREAM_LENGTH = 5_000


@dataclass(frozen=True)
class MiningWorkload:
    """A dataset mined level by level, and the backends its rounds time."""

    max_level: int
    generate: Callable[[random.Random], BasketDatabase]
    backends: tuple[str, ...] = SERIAL_BACKENDS


def _shuffled(baskets: list[tuple[int, ...]], base: BasketDatabase, rng: random.Random) -> BasketDatabase:
    rng.shuffle(baskets)
    return BasketDatabase(baskets, base.vocabulary)


def quest_levels(rng: random.Random) -> BasketDatabase:
    """Quest 3,000 x 50 (mean basket 20): 8,802 level-3 candidates, 4,847 SIG.

    Dominated by the per-itemset decision loop: counting is about a
    fifth of level 3 with the bitmap backend.  The 50-item packed index
    is 19 KB, so counting runs in cache.
    """
    base = generate_quest(
        QuestParameters(n_transactions=3_000, n_items=50, seed=QUEST_STRUCTURE_SEED)
    )
    return _shuffled(list(base), base, rng)


def quest_tall(rng: random.Random) -> BasketDatabase:
    """A Quest 25,000 x 80 draw (mean basket 10) repeated 10 times: 250,000 baskets.

    Counting is about half of a bitmap or vectorized mine here, and the
    2.5 MB packed index outgrows a core's 2 MiB L2 cache.  Repeating one
    draw keeps generation under a second while counting work scales with
    the 250,000 rows; the repeats only multiply every cell count by 10.
    """
    base = generate_quest(
        QuestParameters(
            n_transactions=25_000,
            n_items=80,
            avg_transaction_size=10.0,
            seed=QUEST_STRUCTURE_SEED,
        )
    )
    return _shuffled(list(base) * 10, base, rng)


def text_wide(rng: random.Random) -> BasketDatabase:
    """The §5.2 news corpus, 600 documents x 150 words, mined to pairs.

    All 11,130 pairs are candidates and about 1,200 are SIG; there is no
    level 3, so the join never runs.  Seed-pair generation and the
    NOTSIG path dominate, and the wide header suits the FP-tree.
    """
    documents = generate_news_corpus(
        NewsCorpusParameters(n_documents=600, seed=CORPUS_STRUCTURE_SEED)
    )
    base = TextPipeline(min_words=200, min_document_frequency=0.0).run(documents)
    return _shuffled(list(base), base, rng)


MINING_WORKLOADS = {
    "quest-levels": MiningWorkload(3, quest_levels),
    "quest-tall": MiningWorkload(3, quest_tall, (*SERIAL_BACKENDS, "parallel")),
    "text-wide": MiningWorkload(2, text_wide),
}

# The service workload: Quest with 40 items and 14,000 baskets, the
# first 2,000 loaded at set-up and the rest in 120 appends of 100.
SERVICE_ITEMS = 40
SERVICE_BACKFILL = 2_000
SERVICE_APPENDS = 120
SERVICE_APPEND_SIZE = 100
SERVICE_MAX_LEVEL = 3


def query_stream(items: list[int], rng: random.Random, skew: float | None = None) -> list[tuple[int, int]]:
    """``QUERY_STREAM_LENGTH`` item pairs to query, in the order they are asked.

    With ``skew`` unset every pair is equally likely.  Otherwise a pair's
    popularity rank is drawn from a Pareto distribution of shape ``skew``,
    so a few pairs are asked often and the rest form a long tail.
    """
    pairs = list(combinations(sorted(items), 2))
    rng.shuffle(pairs)
    if skew is None:
        return [rng.choice(pairs) for _ in range(QUERY_STREAM_LENGTH)]
    last = len(pairs) - 1
    return [
        pairs[min(int(rng.paretovariate(skew)) - 1, last)] for _ in range(QUERY_STREAM_LENGTH)
    ]


def service_baskets(rng: random.Random) -> list[tuple[int, ...]]:
    """The 14,000 baskets the service receives, in the order it receives them."""
    n = SERVICE_BACKFILL + SERVICE_APPENDS * SERVICE_APPEND_SIZE
    base = generate_quest(
        QuestParameters(n_transactions=n, n_items=SERVICE_ITEMS, seed=QUEST_STRUCTURE_SEED)
    )
    baskets = list(base)
    rng.shuffle(baskets)
    return baskets


def prepare(db: BasketDatabase) -> None:
    """Build the indexes every counting backend reads (bitmaps, packed index).

    The database builds them lazily on first use; building them here
    keeps that one-time cost out of the first timed mine.
    """
    db.item_counts()
    db.packed_index()


def set_up(workload: MiningWorkload, seed: int) -> tuple[BasketDatabase, float, float]:
    """Generate and index one workload's database: ``(db, generate_s, pack_s)``."""
    start = time.perf_counter()
    db = workload.generate(random.Random(seed))
    generated = time.perf_counter()
    prepare(db)
    packed = time.perf_counter()
    return db, generated - start, packed - generated
