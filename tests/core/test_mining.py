"""Unit tests for the high-level mining API."""

import pytest

from repro.core.itemsets import Itemset
from repro.core.mining import compare_frameworks, correlation_rule, mine_correlations
from repro.data.basket import BasketDatabase


class TestCorrelationRuleQuery:
    def test_accepts_names(self, tea_coffee_db):
        rule = correlation_rule(tea_coffee_db, ["tea", "coffee"])
        assert rule.itemset == tea_coffee_db.vocabulary.encode(["tea", "coffee"])

    def test_accepts_ids(self, tea_coffee_db):
        rule = correlation_rule(tea_coffee_db, [0, 1])
        assert len(rule.itemset) == 2

    def test_mixed_names_and_ids(self, tea_coffee_db):
        tea_id = tea_coffee_db.vocabulary.id_of("tea")
        rule = correlation_rule(tea_coffee_db, [tea_id, "coffee"])
        assert len(rule.itemset) == 2

    def test_single_item_rejected(self, tea_coffee_db):
        with pytest.raises(ValueError):
            correlation_rule(tea_coffee_db, ["tea"])

    def test_unknown_name_raises(self, tea_coffee_db):
        with pytest.raises(ValueError, match="unknown item 'milk'"):
            correlation_rule(tea_coffee_db, ["tea", "milk"])

    @pytest.mark.parametrize("query", [correlation_rule, compare_frameworks])
    @pytest.mark.parametrize(
        ("items", "message"),
        [
            ([0, 5], "item id 5 out of range"),
            ([-1, 0], "item id -1 out of range"),
            ([0, 1.0], "items must be names or ids"),
            ([0, True], "items must be names or ids"),
        ],
    )
    def test_invalid_ids_rejected(self, tea_coffee_db, query, items, message):
        with pytest.raises(ValueError, match=message):
            query(tea_coffee_db, items)

    def test_not_marked_minimal(self, tea_coffee_db):
        assert correlation_rule(tea_coffee_db, ["tea", "coffee"]).minimal is False


class TestMineCorrelations:
    def test_finds_planted_pair(self, strongly_correlated_db):
        result = mine_correlations(strongly_correlated_db, support_count=2, support_fraction=0.3)
        found = {r.itemset for r in result.rules}
        expected = strongly_correlated_db.vocabulary.encode(["bread", "butter"])
        assert expected in found

    def test_nothing_on_independent_data(self, independent_db):
        result = mine_correlations(independent_db, support_count=2, support_fraction=0.3)
        assert result.rules == []

    def test_kwargs_forwarded(self, strongly_correlated_db):
        result = mine_correlations(
            strongly_correlated_db,
            support_count=2,
            support_fraction=0.3,
            table_backend="fks",
            counting="single_pass",
        )
        assert len(result.rules) == 1


class TestCompareFrameworks:
    def test_example1_shape(self, tea_coffee_db):
        comparison = compare_frameworks(tea_coffee_db, ["tea", "coffee"])
        # Support-confidence accepts tea => coffee...
        accepted = comparison.accepted_association_rules(0.05, 0.5)
        tea = tea_coffee_db.vocabulary.encode(["tea"])
        coffee = tea_coffee_db.vocabulary.encode(["coffee"])
        assert any(r.antecedent == tea and r.consequent == coffee for r in accepted)
        # ...while the correlation framework sees no significant correlation
        # and negative dependence in the both-present cell.
        assert not comparison.correlation.result.correlated
        both = comparison.correlation.table.cell_of_pattern((True, True))
        from repro.core.interest import interest

        assert interest(comparison.correlation.table, both) < 1.0

    def test_chi_squared_property(self, tea_coffee_db):
        comparison = compare_frameworks(tea_coffee_db, ["tea", "coffee"])
        assert comparison.chi_squared == pytest.approx(100 / 27, rel=1e-12)

    def test_rule_count_for_pair(self, tea_coffee_db):
        comparison = compare_frameworks(tea_coffee_db, ["tea", "coffee"])
        # A pair has two directed partitions.
        assert len(comparison.association_rules) == 2

    def test_rule_count_for_triple(self):
        db = BasketDatabase.from_baskets(
            [["a", "b", "c"]] * 10 + [["a", "b"]] * 5 + [["c"]] * 5 + [[]] * 5
        )
        comparison = compare_frameworks(db, ["a", "b", "c"])
        # 2^3 - 2 = 6 antecedent/consequent partitions.
        assert len(comparison.association_rules) == 6
