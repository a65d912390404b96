"""Ablation: contingency-table counting strategy (§4).

The paper weighs making "k^i passes" (one per candidate — our bitmap
path makes this cheap via vertical indexes) against "one pass over the
database at each level, constructing all the necessary contingency
tables at once" (our single-pass path).  Both must agree on every cell;
the benchmark shows where each wins.  §6's datacube answers the same
tables as roll-ups of one materialised cube; it is timed directly
through :meth:`CountDatacube.table_for`, since it is no mining backend.
"""

import time

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.contingency import ContingencyTable
from repro.data.datacube import CountDatacube
from repro.measures.cellsupport import CellSupport


def _mine(db, counting):
    # Pairs only: the strategies differ in how tables are counted, not
    # in lattice depth, and the single-pass inverted index over a
    # level-3 candidate set costs minutes without saying anything new.
    miner = ChiSquaredSupportMiner(
        significance=0.95,
        support=CellSupport(count=5, fraction=0.3),
        counting=counting,
        max_level=2,
    )
    return miner.mine(db)


@pytest.mark.parametrize("counting", ["bitmap", "single_pass"])
def test_counting_strategy_on_text(benchmark, report, text_db, counting):
    result = benchmark.pedantic(_mine, args=(text_db, counting), rounds=1, iterations=1)
    report(
        "",
        f"{counting}: {len(result.rules)} rules from "
        f"{result.items_examined} candidates over {text_db.n_baskets} documents",
    )
    assert len(result.rules) > 0


def test_cube_rollups_on_text(report, text_db):
    """Build one cube over the vocabulary, then roll every examined table up."""
    reference = _mine(text_db, "bitmap")
    itemsets = [rule.itemset for rule in reference.rules]
    itemsets += reference.supported_uncorrelated
    start = time.perf_counter()
    cube = CountDatacube(text_db, text_db.vocabulary.ids())
    built = time.perf_counter()
    tables = [cube.table_for(itemset) for itemset in itemsets]
    done = time.perf_counter()
    report(
        "",
        f"cube: {cube.n_occupied} occupied patterns built in "
        f"{(built - start) * 1e3:.1f}ms; {len(tables)} roll-ups in "
        f"{(done - built) * 1e3:.1f}ms",
    )
    for itemset, table in zip(itemsets, tables):
        expected = ContingencyTable.from_database(text_db, itemset)
        assert dict(table.nonzero_counts()) == dict(expected.nonzero_counts())


def test_strategies_agree(benchmark, report, text_db):
    bitmap = benchmark.pedantic(_mine, args=(text_db, "bitmap"), rounds=1, iterations=1)
    single = _mine(text_db, "single_pass")
    assert sorted(r.itemset for r in bitmap.rules) == sorted(
        r.itemset for r in single.rules
    )
    assert [s.candidates for s in bitmap.level_stats] == [
        s.candidates for s in single.level_stats
    ]
    report("", "bitmap and single-pass counting produce identical results")
