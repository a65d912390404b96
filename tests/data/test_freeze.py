"""A frozen generation stays as it was while the database keeps growing.

:meth:`AppendableBasketDatabase.freeze` is what the service publishes
to its readers, so later commits must never show through it, and it
must share the bitmaps rather than re-derive them.
"""

from __future__ import annotations

from repro.core.contingency import ContingencyTable
from repro.core.itemsets import Itemset
from repro.data.appendable import AppendableBasketDatabase
from repro.data.basket import BasketDatabase


def grown(baskets: list[list[str]]) -> AppendableBasketDatabase:
    db = AppendableBasketDatabase.empty()
    db.commit(db.stage_named(baskets))
    db.item_counts()  # the miner's first append builds the bitmaps
    return db


def test_later_commits_do_not_show_through():
    first = [["tea", "coffee"], ["tea"], ["coffee", "milk"]]
    db = grown(first)
    frozen = db.freeze()
    db.commit(db.stage_named([["tea", "coffee", "sugar"], ["sugar"]]))

    cold = BasketDatabase.from_baskets(first)
    assert frozen.n_baskets == 3 and frozen.n_items == 3
    assert list(frozen.vocabulary) == ["tea", "coffee", "milk"]
    assert "sugar" not in frozen.vocabulary
    assert frozen.item_counts() == cold.item_counts()
    assert [frozen.item_bitmap(i) for i in range(3)] == [cold.item_bitmap(i) for i in range(3)]
    assert list(frozen) == list(cold)
    pair = Itemset((0, 1))
    assert (
        ContingencyTable.from_database(frozen, pair).nonzero_counts()
        == ContingencyTable.from_database(cold, pair).nonzero_counts()
    )
    assert db.n_baskets == 5 and db.item_count(0) == 3


def test_freeze_shares_the_bitmaps():
    db = grown([["a", "b"], ["b"]])
    frozen = db.freeze()
    assert all(frozen.item_bitmap(i) is db.item_bitmap(i) for i in range(db.n_items))


def test_freeze_of_an_empty_database():
    frozen = AppendableBasketDatabase.empty().freeze()
    assert frozen.n_baskets == 0 and frozen.n_items == 0
    assert frozen.item_counts() == ()
