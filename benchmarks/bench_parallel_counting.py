"""Speedup of the sharded parallel counting engine on Quest data.

Mines the same Quest-generator database with every counting backend and
reports wall-clock speedups against the paper's ``single_pass``
strategy.  The parallel engine wins twice over: each shard counts on its
own vertical bitmaps (the fast kernel), and with ``workers > 1`` the
shards count concurrently — so even on a single core it clears the
>= 1.5x bar versus the per-level scan, and on real multi-core hardware
the shard fan-out stacks on top.
"""

import time

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.data.quest import QuestParameters, generate_quest
from repro.measures.cellsupport import CellSupport

WORKERS = 4
SPEEDUP_FLOOR = 1.5


@pytest.fixture(scope="module")
def quest_bench_db():
    """A Quest database sized so every backend finishes in seconds."""
    return generate_quest(
        QuestParameters(n_transactions=8_000, n_items=160, seed=1997)
    )


def _mine(db, counting, workers=None):
    miner = ChiSquaredSupportMiner(
        significance=0.95,
        support=CellSupport(count=5, fraction=0.3),
        counting=counting,
        workers=workers,
        max_level=2,
    )
    return miner.mine(db)


def _timed(db, counting, workers=None):
    start = time.perf_counter()
    result = _mine(db, counting, workers)
    return time.perf_counter() - start, result


def test_parallel_counting_speedup(benchmark, report, quest_bench_db):
    db = quest_bench_db
    single_time, single = _timed(db, "single_pass")
    bitmap_time, bitmap = _timed(db, "bitmap")
    serial_time, serial = _timed(db, "parallel", workers=1)
    parallel = benchmark.pedantic(
        _mine, args=(db, "parallel", WORKERS), rounds=1, iterations=1
    )
    parallel_time = benchmark.stats.stats.mean

    # All four backends mine the same border.
    reference = sorted(rule.itemset for rule in single.rules)
    for other in (bitmap, serial, parallel):
        assert sorted(rule.itemset for rule in other.rules) == reference

    def row(label, seconds):
        return (
            f"{label:<22} {seconds:>8.3f}s   "
            f"{single_time / seconds if seconds else float('inf'):>6.2f}x vs single_pass"
        )

    report(
        "",
        f"Quest {db.n_baskets} baskets x {db.n_items} items, "
        f"{single.items_examined} candidates, {len(single.rules)} rules",
        "-" * 64,
        row("single_pass", single_time),
        row("bitmap", bitmap_time),
        row("parallel (workers=1)", serial_time),
        row(f"parallel (workers={WORKERS})", parallel_time),
        "-" * 64,
    )

    speedup = single_time / parallel_time
    assert speedup >= SPEEDUP_FLOOR, (
        f"parallel engine at workers={WORKERS} is only {speedup:.2f}x faster "
        f"than single_pass (need >= {SPEEDUP_FLOOR}x)"
    )
