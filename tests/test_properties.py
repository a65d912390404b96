"""Property-based tests (hypothesis) for the library's core invariants.

These pin down the mathematical claims of the paper on arbitrary data:
Theorem 1's upward closure, the sparse chi-squared identity of §4,
downward closure of cell-based support, downward closure of classic
support (and the Example 2 non-closure of confidence as a sanity bound),
Apriori's equivalence to brute force, the IPF fixed point, and border
antichain maintenance.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.algorithms.apriori import apriori, brute_force_frequent
from repro.core.border import Border
from repro.core.contingency import ContingencyTable, count_cells, count_cells_single_pass
from repro.core.correlation import chi_squared, chi_squared_dense, chi_squared_sparse
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.measures.cellsupport import CellSupport, level1_pair_may_have_support


# -- strategies -----------------------------------------------------------

def baskets_strategy(n_items: int = 4, min_baskets: int = 10, max_baskets: int = 80):
    basket = st.lists(
        st.integers(min_value=0, max_value=n_items - 1), max_size=n_items
    )
    return st.lists(basket, min_size=min_baskets, max_size=max_baskets)


def database(baskets: list[list[int]], n_items: int = 4) -> BasketDatabase:
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


cell_counts_2x2 = st.tuples(
    st.integers(0, 200), st.integers(0, 200), st.integers(0, 200), st.integers(0, 200)
).filter(lambda t: sum(t) > 0)


# -- chi-squared identities --------------------------------------------------

@given(cell_counts_2x2)
def test_sparse_equals_dense_2x2(cells):
    o11, o01, o10, o00 = cells
    # Both marginals must be non-degenerate for expectations to be positive
    # on occupied cells.
    table = ContingencyTable(
        Itemset([0, 1]), {0b11: o11, 0b01: o01, 0b10: o10, 0b00: o00}
    )
    for cell in table.occupied_cells():
        assume(table.expected(cell) > 0)
    sparse = chi_squared_sparse(table)
    dense = chi_squared_dense(table)
    assert abs(sparse - dense) <= 1e-6 * max(1.0, abs(dense))


@given(baskets_strategy())
def test_sparse_equals_dense_on_databases(baskets):
    db = database(baskets)
    table = ContingencyTable.from_database(db, Itemset([0, 1, 2]))
    for cell in table.occupied_cells():
        assume(table.expected(cell) > 0)
    assert abs(chi_squared_sparse(table) - chi_squared_dense(table)) < 1e-6


@given(baskets_strategy())
def test_chi_squared_nonnegative(baskets):
    db = database(baskets)
    table = ContingencyTable.from_database(db, Itemset([0, 1]))
    for cell in table.occupied_cells():
        assume(table.expected(cell) > 0)
    assert chi_squared(table) >= -1e-12


# -- Theorem 1: upward closure ------------------------------------------------

@given(baskets_strategy())
@settings(max_examples=60)
def test_chi_squared_upward_closed(baskets):
    """Adding an item never decreases the statistic (Theorem 1)."""
    db = database(baskets)
    pair = ContingencyTable.from_database(db, Itemset([0, 1]))
    triple = ContingencyTable.from_database(db, Itemset([0, 1, 2]))
    for table in (pair, triple):
        for cell in table.occupied_cells():
            assume(table.expected(cell) > 0)
    assert chi_squared(triple) >= chi_squared(pair) - 1e-7


@given(baskets_strategy(n_items=5))
@settings(max_examples=40)
def test_chi_squared_upward_closed_deeper(baskets):
    db = database(baskets, n_items=5)
    chain = [Itemset([0, 1]), Itemset([0, 1, 3]), Itemset([0, 1, 3, 4])]
    tables = [ContingencyTable.from_database(db, s) for s in chain]
    for table in tables:
        for cell in table.occupied_cells():
            assume(table.expected(cell) > 0)
    values = [chi_squared(t) for t in tables]
    assert values == sorted(values) or all(
        b >= a - 1e-7 for a, b in zip(values, values[1:])
    )


# -- support closures ---------------------------------------------------------

@given(
    baskets_strategy(),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.26, max_value=1.0),
)
@settings(max_examples=60)
def test_cell_support_downward_closed(baskets, count, fraction):
    db = database(baskets)
    measure = CellSupport(count=count, fraction=fraction)
    triple = ContingencyTable.from_database(db, Itemset([0, 1, 2]))
    if measure(triple):
        for sub in Itemset([0, 1, 2]).subsets(2):
            assert measure(ContingencyTable.from_database(db, sub))


@given(baskets_strategy(), st.integers(min_value=1, max_value=30))
def test_classic_support_downward_closed(baskets, threshold):
    db = database(baskets)
    triple = Itemset([0, 1, 2])
    if db.support_count(triple) >= threshold:
        for sub in triple.subsets(2):
            assert db.support_count(sub) >= threshold


@given(
    baskets_strategy(n_items=2),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.26, max_value=1.0),
)
@settings(max_examples=80)
def test_level1_pruning_sound(baskets, count, fraction):
    """The level-1 prune never kills a genuinely supported pair."""
    db = database(baskets, n_items=2)
    measure = CellSupport(count=count, fraction=fraction)
    table = ContingencyTable.from_database(db, Itemset([0, 1]))
    if measure(table):
        assert level1_pair_may_have_support(
            db.item_count(0), db.item_count(1), db.n_baskets, measure
        )


# -- full miner vs brute-force border ---------------------------------------

@given(baskets_strategy(n_items=4, min_baskets=30, max_baskets=60), st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_miner_border_matches_brute_force(baskets, support_count):
    """The Figure 1 miner's output equals the brute-force border of
    'supported, all-subsets-supported, correlated' on any database."""
    from repro.algorithms.chi2support import ChiSquaredSupportMiner
    from repro.core.correlation import CorrelationTest
    from repro.core.lattice import minimal_satisfying
    from repro.measures.cellsupport import CellSupport

    db = database(baskets)
    support = CellSupport(count=support_count, fraction=0.3)
    test = CorrelationTest(0.95)
    result = ChiSquaredSupportMiner(significance=0.95, support=support).mine(db)

    def significant(itemset: Itemset) -> bool:
        if len(itemset) < 2:
            return False
        table = ContingencyTable.from_database(db, itemset)
        if not support(table):
            return False
        for k in range(2, len(itemset)):
            for sub in itemset.subsets(k):
                if not support(ContingencyTable.from_database(db, sub)):
                    return False
        return test.is_correlated(table)

    expected = minimal_satisfying(range(4), significant, min_size=2)
    assert sorted(rule.itemset for rule in result.rules) == expected


# -- maximal/closed itemsets --------------------------------------------------

@given(baskets_strategy(n_items=5), st.integers(2, 20))
@settings(max_examples=30)
def test_closed_compression_lossless(baskets, threshold):
    from repro.algorithms.closed import closed_frequent, maximal_frequent

    db = database(baskets, n_items=5)
    result = apriori(db, min_support_count=threshold)
    closed = closed_frequent(result)
    for itemset, count in result.counts.items():
        recovered = max(
            (c for s, c in closed.items() if itemset.issubset(s)), default=None
        )
        assert recovered == count
    maximal = set(maximal_frequent(result))
    assert maximal <= set(closed)


# -- Apriori vs brute force -------------------------------------------------

@given(baskets_strategy(n_items=5), st.integers(min_value=1, max_value=15))
@settings(max_examples=40)
def test_apriori_matches_brute_force(baskets, threshold):
    db = database(baskets, n_items=5)
    assert (
        apriori(db, min_support_count=threshold).counts
        == brute_force_frequent(db, threshold)
    )


# -- counting strategies agree ------------------------------------------------

@given(baskets_strategy(n_items=5))
@settings(max_examples=40)
def test_single_pass_matches_moebius(baskets):
    db = database(baskets, n_items=5)
    itemsets = [Itemset([0, 1]), Itemset([2, 3, 4]), Itemset([0, 2, 4])]
    batch = count_cells_single_pass(db, itemsets)
    for itemset, cells in zip(itemsets, batch):
        assert cells == count_cells(db, itemset)


# -- contingency invariants ---------------------------------------------------

@given(baskets_strategy(n_items=4))
def test_contingency_counts_sum_to_n(baskets):
    db = database(baskets)
    table = ContingencyTable.from_database(db, Itemset([0, 1, 3]))
    assert sum(table.observed(c) for c in table.cells()) == db.n_baskets


@given(baskets_strategy(n_items=4))
def test_contingency_marginals_match_item_counts(baskets):
    db = database(baskets)
    itemset = Itemset([0, 2, 3])
    table = ContingencyTable.from_database(db, itemset)
    for position, item in enumerate(itemset.items):
        assert table.marginal(position) == db.item_count(item)


@given(baskets_strategy(n_items=4))
def test_expectations_sum_to_n(baskets):
    db = database(baskets)
    table = ContingencyTable.from_database(db, Itemset([0, 1, 2, 3]))
    total = sum(table.expected(c) for c in table.cells())
    assert abs(total - db.n_baskets) < 1e-6


@given(baskets_strategy(n_items=4))
def test_restrict_equals_direct_construction(baskets):
    db = database(baskets)
    full = ContingencyTable.from_database(db, Itemset([0, 1, 2, 3]))
    reduced = full.restrict([1, 3])
    direct = ContingencyTable.from_database(db, Itemset([1, 3]))
    for cell in direct.cells():
        assert reduced.observed(cell) == direct.observed(cell)


# -- border maintenance -------------------------------------------------------

itemsets_strategy = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=4), min_size=0, max_size=20
)


@given(itemsets_strategy)
def test_border_is_always_antichain(raw):
    border = Border(Itemset(s) for s in raw)
    border.validate()


@given(itemsets_strategy)
def test_border_insertion_order_invariant(raw):
    itemsets = [Itemset(s) for s in raw]
    assert Border(itemsets) == Border(reversed(itemsets))


@given(itemsets_strategy, st.frozensets(st.integers(0, 7), min_size=1, max_size=5))
def test_border_covers_iff_dominated(raw, probe_raw):
    border = Border(Itemset(s) for s in raw)
    probe = Itemset(probe_raw)
    expected = any(element.issubset(probe) for element in border)
    assert border.covers(probe) == expected


# -- hashing ------------------------------------------------------------------

@given(st.lists(st.frozensets(st.integers(0, 30), min_size=1, max_size=5), unique=True))
def test_itemset_table_backends_agree(raw):
    from repro.hashing.itemset_table import ItemsetTable

    itemsets = list({Itemset(s) for s in raw})
    pairs = [(s, i) for i, s in enumerate(itemsets)]
    dict_table = ItemsetTable(pairs, backend="dict")
    fks_table = ItemsetTable(pairs, backend="fks")
    assert len(dict_table) == len(fks_table)
    for s in itemsets:
        assert dict_table[s] == fks_table[s]
    assert Itemset([29, 30]) in dict_table or Itemset([29, 30]) not in fks_table


# -- IPF ------------------------------------------------------------------

@given(
    st.tuples(
        st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)
    )
)
@settings(max_examples=40)
def test_ipf_single_target_is_exact(cells):
    pytest.importorskip("numpy", reason="IPF needs the [fast] extra")
    from repro.data.ipf import PairwiseTarget, fit_pairwise

    target = PairwiseTarget(0, 1, cells)
    result = fit_pairwise(3, [target])
    fitted = result.pairwise(0, 1)
    wanted = target.normalized()
    for got, want in zip(fitted, wanted):
        assert abs(got - want) < 1e-6


@given(st.integers(0, 2**20), st.integers(1, 500))
def test_materialize_counts_total(seed, n):
    np = pytest.importorskip("numpy", reason="IPF needs the [fast] extra")

    from repro.data.ipf import materialize_counts

    joint = np.random.default_rng(seed).random(32) + 1e-9
    counts = materialize_counts(joint, n)
    assert counts.sum() == n
    assert (counts >= 0).all()


# -- datacube roll-ups ----------------------------------------------------

@given(baskets_strategy(n_items=5))
@settings(max_examples=40)
def test_datacube_rollup_matches_database(baskets):
    from repro.data.datacube import CountDatacube

    db = database(baskets, n_items=5)
    cube = CountDatacube(db, range(5))
    for items in ([0, 1], [2, 4], [0, 2, 3]):
        itemset = Itemset(items)
        rolled = cube.table_for(itemset)
        direct = ContingencyTable.from_database(db, itemset)
        for cell in direct.cells():
            assert rolled.observed(cell) == direct.observed(cell)
        assert cube.support_count(itemset) == db.support_count(itemset)


# -- Toivonen sampling soundness -----------------------------------------

@given(baskets_strategy(n_items=4, min_baskets=30), st.integers(0, 50))
@settings(max_examples=30)
def test_toivonen_soundness_and_miss_accounting(baskets, seed):
    from repro.algorithms.sampling import toivonen_sample_mine

    db = database(baskets)
    result = toivonen_sample_mine(
        db, min_support=0.2, sample_fraction=0.3, lowering=0.9, seed=seed
    )
    threshold = 0.2 * db.n_baskets
    # Soundness: everything reported is truly frequent with its exact count.
    for itemset, count in result.frequent.items():
        assert count == db.support_count(itemset) >= threshold
    # Completeness accounting: a truly frequent itemset not reported
    # must dominate a reported miss.
    exact = brute_force_frequent(db, min_support_count=int(-(-threshold // 1)))
    for itemset in exact:
        if itemset not in result.frequent:
            assert any(miss.issubset(itemset) for miss in result.misses)


# -- binomial identity (Appendix A) ----------------------------------------

@given(st.integers(1, 200), st.floats(0.01, 0.99), st.data())
def test_z_squared_identity(n, p, data):
    from repro.stats.binomial import chi_squared_from_binomial, standardized_count

    successes = data.draw(st.integers(0, n))
    z = standardized_count(successes, n, p)
    assert chi_squared_from_binomial(successes, n, p) == pytest.approx(
        z * z, rel=1e-9, abs=1e-9
    )


# -- itemset algebra laws ----------------------------------------------------

small_itemsets = st.frozensets(st.integers(0, 15), max_size=6).map(Itemset)


@given(small_itemsets, small_itemsets)
def test_union_commutative_and_idempotent(a, b):
    assert a | b == b | a
    assert a | a == a


@given(small_itemsets, small_itemsets, small_itemsets)
def test_union_associative(a, b, c):
    assert (a | b) | c == a | (b | c)


@given(small_itemsets, small_itemsets)
def test_difference_union_partition(a, b):
    assert (a - b) | (a & b) == a
    assert not set(a - b) & set(a & b)


@given(small_itemsets, small_itemsets)
def test_subset_consistency(a, b):
    assert a.issubset(a | b)
    assert (a & b).issubset(a)
    if a.issubset(b) and b.issubset(a):
        assert a == b


@given(small_itemsets)
def test_immediate_subsets_cover_all_subsets_once(a):
    subs = list(a.immediate_subsets())
    assert len(subs) == len(a)
    assert len(set(subs)) == len(subs)
    for sub in subs:
        assert len(sub) == len(a) - 1
        assert sub.issubset(a)


@given(small_itemsets)
def test_itemset_hash_consistent_with_equality(a):
    clone = Itemset(list(a))
    assert clone == a
    assert hash(clone) == hash(a)


# -- phi^2 * n equals chi-squared --------------------------------------------

@given(cell_counts_2x2)
def test_phi_squared_identity(cells):
    import math

    from repro.measures.interestingness import phi_coefficient

    o11, o01, o10, o00 = cells
    table = ContingencyTable(
        Itemset([0, 1]), {0b11: o11, 0b01: o01, 0b10: o10, 0b00: o00}
    )
    phi = phi_coefficient(table)
    assume(not math.isnan(phi))
    assert table.n * phi * phi == pytest.approx(
        chi_squared(table), rel=1e-6, abs=1e-6
    )


# -- G statistic is upward closed too (drop-in for Theorem 1) -------------

@given(baskets_strategy())
@settings(max_examples=40)
def test_g_statistic_upward_closed(baskets):
    from repro.stats.gtest import g_statistic

    db = database(baskets)
    pair = ContingencyTable.from_database(db, Itemset([0, 1]))
    triple = ContingencyTable.from_database(db, Itemset([0, 1, 2]))
    for table in (pair, triple):
        for cell in table.occupied_cells():
            assume(table.expected(cell) > 0)
    g_pair = g_statistic(pair.observed_expected(occupied_only=True))
    g_triple = g_statistic(triple.observed_expected(occupied_only=True))
    assert g_triple >= g_pair - 1e-7
