"""Vectorized counting kernels vs the pure-Python backends.

Times level-2 (all pairs) and level-3 (Apriori-style triples) table
counting on the census and a Quest-generator database, for the three
serial backends:

* ``single_pass``  — one horizontal scan per level (the paper's baseline),
* ``bitmap``       — per-itemset big-int bitmap intersections,
* ``vectorized``   — the batched NumPy sweeps over the packed index.

Every backend must produce bit-identical cell counts; the run fails if
any table disagrees.  Each backend is opened through the counting
registry (:func:`repro.counting.open_backend`), exactly as the miner
opens it.  The report opens with the host it ran on.  Two entry points:

* ``python benchmarks/bench_vectorized_counting.py --output BENCH_counting.json``
  writes the machine-readable report (the ``make bench-counting`` target);
* ``pytest benchmarks/bench_vectorized_counting.py`` runs the same
  measurement as a ``bench``-marked test asserting the Quest level-2
  speedup floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from itertools import combinations

from repro.core.itemsets import Itemset
from repro.counting import open_backend
from repro.data.census import synthesize_census
from repro.data.quest import QuestParameters, generate_quest
from repro.kernels import HAS_NUMPY
from repro.obs import Telemetry

try:
    import pytest
except ImportError:  # pragma: no cover - standalone mode needs no pytest
    pytest = None

# Quest sized like bench_parallel_counting: every backend finishes in
# seconds, yet level 2 has ~12k candidate pairs — enough to expose the
# per-candidate overheads the batched sweep amortises away.
QUEST_PARAMS = dict(n_transactions=8_000, n_items=160, seed=1997)

# Acceptance bar: the vectorized level-2 sweep on Quest must beat the
# paper's single_pass baseline by at least this factor.
SPEEDUP_FLOOR = 5.0

# Level-3 candidates come from the most frequent items so the candidate
# count stays bounded on Quest (C(160, 3) would be ~670k).
LEVEL3_TOP_ITEMS = 40

BACKENDS = ("single_pass", "bitmap", "vectorized")


def host_info() -> dict:
    """The machine the report was measured on."""
    numpy_version = None
    if HAS_NUMPY:
        import numpy

        numpy_version = numpy.__version__
    return {
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _count_with(backend: str, db, itemsets, telemetry=None):
    counter = open_backend(backend, db, telemetry=telemetry)
    try:
        return counter.count_cells(itemsets)
    finally:
        counter.close()


def _level_candidates(db, level: int) -> list[Itemset]:
    if level == 2:
        return [Itemset(pair) for pair in combinations(range(db.n_items), 2)]
    counts = db.item_counts()
    top = sorted(range(db.n_items), key=lambda item: -counts[item])
    top = sorted(top[: min(LEVEL3_TOP_ITEMS, db.n_items)])
    return [Itemset(triple) for triple in combinations(top, 3)]


def _bench_level(db, level: int, telemetry=None) -> dict:
    """Time every backend on one level's candidates; verify cell equality."""
    itemsets = _level_candidates(db, level)
    timings: dict[str, float] = {}
    counted: dict[str, list] = {}
    for backend in BACKENDS:
        # One tiny warmup batch so lazy submodule imports and NumPy/BLAS
        # first-call setup are not billed to whichever backend runs first.
        _count_with(backend, db, itemsets[:1])
        start = time.perf_counter()
        counted[backend] = _count_with(backend, db, itemsets, telemetry=telemetry)
        timings[backend] = time.perf_counter() - start

    reference = counted["single_pass"]
    for backend in BACKENDS[1:]:
        for itemset, ours, theirs in zip(itemsets, counted[backend], reference):
            assert ours == theirs, (
                f"{backend} disagrees with single_pass on {itemset}: "
                f"{ours} != {theirs}"
            )

    single = timings["single_pass"]
    return {
        "n_itemsets": len(itemsets),
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "speedup_vs_single_pass": {
            k: round(single / v, 2) if v else None for k, v in timings.items()
        },
        "cells_identical": True,
    }


def _bench_dataset(db, telemetry=None) -> dict:
    # The packed index is built lazily on the first vectorized call and
    # cached on the database; build it up front and report its cost
    # separately so per-level timings compare steady-state counting.
    start = time.perf_counter()
    if HAS_NUMPY:
        db.packed_index()
    index_build = time.perf_counter() - start
    return {
        "n_baskets": db.n_baskets,
        "n_items": db.n_items,
        "packed_index_build_s": round(index_build, 6),
        "levels": {
            "level2": _bench_level(db, 2, telemetry=telemetry),
            "level3": _bench_level(db, 3, telemetry=telemetry),
        },
    }


def run_benchmark() -> dict:
    census = synthesize_census()
    quest = generate_quest(QuestParameters(**QUEST_PARAMS))
    # The backends run with live telemetry so the report embeds the
    # kernel-dispatch counters (which sweep counted how many itemsets,
    # numpy presence) next to the timings — the structured
    # perf-trajectory data the observability layer provides.
    telemetry = Telemetry.create()
    return {
        "benchmark": "vectorized counting kernels vs pure-Python backends",
        "generated_by": "benchmarks/bench_vectorized_counting.py",
        "host": host_info(),
        "has_numpy": HAS_NUMPY,
        "backends": list(BACKENDS),
        "quest_params": dict(QUEST_PARAMS),
        "speedup_floor_vs_single_pass": SPEEDUP_FLOOR,
        "datasets": {
            "census": _bench_dataset(census, telemetry=telemetry),
            "quest": _bench_dataset(quest, telemetry=telemetry),
        },
        "metrics": telemetry.metrics.snapshot(),
    }


def _print_report(results: dict, out=sys.stdout) -> None:
    for name, data in results["datasets"].items():
        print(
            f"\n{name}: {data['n_baskets']} baskets x {data['n_items']} items "
            f"(index build {data['packed_index_build_s'] * 1e3:.1f}ms)",
            file=out,
        )
        for level, stats in data["levels"].items():
            print(f"  {level} ({stats['n_itemsets']} itemsets):", file=out)
            for backend in results["backends"]:
                seconds = stats["timings_s"][backend]
                speedup = stats["speedup_vs_single_pass"][backend]
                print(
                    f"    {backend:<12} {seconds * 1e3:>9.1f}ms   "
                    f"{speedup:>8.2f}x vs single_pass",
                    file=out,
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_counting.json",
        help="path for the JSON report (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    results = run_benchmark()
    _print_report(results)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.output}")

    quest_speedup = results["datasets"]["quest"]["levels"]["level2"][
        "speedup_vs_single_pass"
    ]["vectorized"]
    if HAS_NUMPY and quest_speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: vectorized level-2 sweep is only {quest_speedup:.2f}x "
            f"vs single_pass on Quest (need >= {SPEEDUP_FLOOR}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if pytest is not None:

    @pytest.mark.bench
    def test_vectorized_counting_speedup(report):
        if not HAS_NUMPY:
            pytest.skip("vectorized kernels need numpy (the [fast] extra)")
        results = run_benchmark()
        _print_report(results)
        quest_level2 = results["datasets"]["quest"]["levels"]["level2"]
        speedup = quest_level2["speedup_vs_single_pass"]["vectorized"]
        assert quest_level2["cells_identical"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized level-2 sweep is only {speedup:.2f}x vs single_pass "
            f"on Quest (need >= {SPEEDUP_FLOOR}x)"
        )


if __name__ == "__main__":
    sys.exit(main())
