"""Unit tests for the Figure 1 chi2-support miner."""

import pytest

from repro.algorithms.chi2support import (
    ChiSquaredSupportMiner,
    mine_significant_itemsets,
)
from repro.core.contingency import ContingencyTable
from repro.core.correlation import CorrelationTest, chi_squared
from repro.core.itemsets import Itemset
from repro.core.lattice import minimal_satisfying
from repro.counting import BACKENDS
from repro.data.basket import BasketDatabase
from repro.measures.cellsupport import AntiSupport, CellSupport


def make_db_with_planted_pair(seed=0, n=400):
    """Items 0-1 strongly correlated; 2-3 independent noise."""
    import random

    rng = random.Random(seed)
    baskets = []
    for _ in range(n):
        basket = []
        if rng.random() < 0.5:
            basket += [0, 1]
        elif rng.random() < 0.3:
            basket.append(rng.choice([0, 1]))
        for item in (2, 3):
            if rng.random() < 0.4:
                basket.append(item)
        baskets.append(basket)
    return BasketDatabase.from_id_baskets(baskets, n_items=4)


class TestBasicMining:
    def test_finds_planted_pair(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert Itemset([0, 1]) in {r.itemset for r in result.rules}

    def test_independent_pair_in_notsig(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert Itemset([2, 3]) in result.supported_uncorrelated

    def test_border_matches_rules(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert {r.itemset for r in result.rules} >= set(result.border.elements())
        result.border.validate()

    def test_all_rules_are_significant_and_supported(self):
        db = make_db_with_planted_pair()
        support = CellSupport(5, 0.3)
        test = CorrelationTest(0.95)
        result = ChiSquaredSupportMiner(significance=0.95, support=support).mine(db)
        for rule in result.rules:
            table = ContingencyTable.from_database(db, rule.itemset)
            assert test.is_correlated(table)
            assert support(table)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner().mine(BasketDatabase.from_baskets([]))

    def test_rule_for_lookup(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert result.rule_for(Itemset([0, 1])) is not None
        assert result.rule_for(Itemset([2, 3])) is None


class TestMinimality:
    def test_output_is_antichain(self):
        db = make_db_with_planted_pair(seed=5)
        result = ChiSquaredSupportMiner(support=CellSupport(2, 0.3)).mine(db)
        itemsets = [r.itemset for r in result.rules]
        for i, a in enumerate(itemsets):
            for b in itemsets[i + 1:]:
                assert not a.issubset(b) and not b.issubset(a)

    def test_supersets_of_sig_never_examined(self):
        """Significance pruning: correlated itemsets are not expanded."""
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(2, 0.3)).mine(db)
        sig_pairs = {r.itemset for r in result.rules if len(r.itemset) == 2}
        for rule in result.rules:
            if len(rule.itemset) > 2:
                for pair in rule.itemset.subsets(2):
                    assert pair not in sig_pairs

    def test_matches_brute_force_border(self):
        """The miner's border equals brute-force minimal correlated+supported."""
        import random

        rng = random.Random(21)
        baskets = []
        for _ in range(300):
            basket = set()
            if rng.random() < 0.4:
                basket |= {0, 1}
            if rng.random() < 0.35:
                basket |= {2, 3}
            for item in range(5):
                if rng.random() < 0.3:
                    basket.add(item)
            baskets.append(sorted(basket))
        db = BasketDatabase.from_id_baskets(baskets, n_items=5)
        support = CellSupport(3, 0.3)
        test = CorrelationTest(0.95)

        result = ChiSquaredSupportMiner(significance=0.95, support=support).mine(db)

        # Ground truth via the lattice utility.  The miner's search space
        # is confined to itemsets whose subsets are supported and
        # uncorrelated, which matches minimal_satisfying over the
        # "supported and correlated" predicate only while support holds
        # below the border; enforce the same support-closure semantics.
        def significant(itemset: Itemset) -> bool:
            if len(itemset) < 2:
                return False
            table = ContingencyTable.from_database(db, itemset)
            if not support(table):
                return False
            # every proper subset of size >= 2 must be supported too
            # (the level-wise miner can only reach such itemsets)
            for k in range(2, len(itemset)):
                for sub in itemset.subsets(k):
                    if not support(ContingencyTable.from_database(db, sub)):
                        return False
            return test.is_correlated(table)

        expected = minimal_satisfying(range(5), significant, min_size=2)
        assert sorted(r.itemset for r in result.rules) == expected


class TestConfigurations:
    @pytest.mark.parametrize("backend", ["dict", "fks"])
    @pytest.mark.parametrize("counting", ["bitmap", "single_pass"])
    def test_backend_and_counting_equivalence(self, backend, counting):
        db = make_db_with_planted_pair(seed=9)
        result = ChiSquaredSupportMiner(
            support=CellSupport(5, 0.3),
            table_backend=backend,
            counting=counting,
        ).mine(db)
        baseline = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert sorted(r.itemset for r in result.rules) == sorted(
            r.itemset for r in baseline.rules
        )

    def test_level1_pruning_does_not_change_output(self):
        db = make_db_with_planted_pair(seed=2)
        support = CellSupport(30, 0.5)
        with_pruning = ChiSquaredSupportMiner(support=support, level1_pruning=True).mine(db)
        without = ChiSquaredSupportMiner(support=support, level1_pruning=False).mine(db)
        assert sorted(r.itemset for r in with_pruning.rules) == sorted(
            r.itemset for r in without.rules
        )
        assert with_pruning.items_examined <= without.items_examined

    def test_g_statistic_variant(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(
            support=CellSupport(5, 0.3), statistic="g"
        ).mine(db)
        assert Itemset([0, 1]) in {r.itemset for r in result.rules}

    def test_max_level_cap(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(
            support=CellSupport(1, 0.26), max_level=2
        ).mine(db)
        assert all(len(r.itemset) == 2 for r in result.rules)

    def test_antisupport_rejected(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(support=AntiSupport(5))

    def test_unknown_counting_rejected(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(counting="magic")

    def test_removed_cube_backend_names_the_valid_ones(self):
        # CountDatacube stays for the random walk; it is no mining backend.
        with pytest.raises(ValueError) as error:
            ChiSquaredSupportMiner(counting="cube")
        for name in BACKENDS:
            assert name in str(error.value)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            ChiSquaredSupportMiner(statistic="tau")


class TestLevelStats:
    def test_level2_bookkeeping(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        level2 = result.level_stats[0]
        assert level2.level == 2
        assert level2.lattice_itemsets == 6  # C(4, 2)
        assert (
            level2.candidates
            == level2.discarded + level2.significant + level2.not_significant
        )

    def test_examined_matches_candidates(self):
        db = make_db_with_planted_pair()
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert result.items_examined == sum(s.candidates for s in result.level_stats)


class TestResultQueries:
    @pytest.fixture
    def result(self):
        db = make_db_with_planted_pair(seed=5)
        return ChiSquaredSupportMiner(support=CellSupport(2, 0.3)).mine(db)

    def test_rules_at_level(self, result):
        for rule in result.rules_at_level(2):
            assert len(rule.itemset) == 2
        total = sum(len(result.rules_at_level(k)) for k in range(2, 6))
        assert total == len(result.rules)

    def test_rules_containing(self, result):
        for rule in result.rules_containing(0):
            assert 0 in rule.itemset

    def test_top_sorted_by_statistic(self, result):
        top = result.top(3)
        assert len(top) <= 3
        statistics = [rule.statistic for rule in top]
        assert statistics == sorted(statistics, reverse=True)
        if result.rules:
            assert top[0].statistic == max(rule.statistic for rule in result.rules)


class TestConvenienceWrapper:
    def test_scalar_parameters(self):
        db = make_db_with_planted_pair()
        result = mine_significant_itemsets(db, support_count=5, support_fraction=0.3)
        assert Itemset([0, 1]) in {r.itemset for r in result.rules}


class TestTablesOnlyForSig:
    def test_default_mine_builds_one_table_per_sig_rule(self, monkeypatch):
        """Candidates are decided on cells; only SIG itemsets get a table."""
        built = []
        for name in ("from_cell_counts", "from_database"):
            original = getattr(ContingencyTable, name)

            def counting(*args, _original=original, **kwargs):
                table = _original(*args, **kwargs)
                built.append(table)
                return table

            monkeypatch.setattr(ContingencyTable, name, counting)
        original_init = ContingencyTable.__init__

        def counting_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(ContingencyTable, "__init__", counting_init)

        db = make_db_with_planted_pair(seed=5, n=600)
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3)).mine(db)
        assert result.rules and result.supported_uncorrelated
        assert len(built) == len(result.rules)
        assert {id(table) for table in built} == {id(rule.table) for rule in result.rules}
