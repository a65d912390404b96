"""The bitmap top-K against the FP-tree engine it replaces in the service.

:func:`repro.core.topk.top_k_pairs` must return exactly what an
unpruned :meth:`FPTreePairEngine.top_k` returns: the same pairs, in the
same order, with bit-identical statistics and identical tables.  Ties
at the K-th place are the hard case, so the random databases below
often duplicate an item's column, which makes several pairs tie
exactly.  The committed FP-tree goldens pin the same entries on the
paper's Quest and census workloads.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.topk import entries_to_dicts, top_k_pairs
from repro.data.basket import BasketDatabase
from repro.data.quest import generate_quest
from repro.fptree import FPTreePairEngine
from tests.fptree.test_golden_topk import QUEST_PARAMETERS
from tests.goldens import GOLDEN_DIR


def fingerprint(entries):
    """Everything an entry carries, compared with ``==`` (no tolerance)."""
    return [
        (
            entry.itemset.items,
            entry.statistic,
            entry.table.n,
            sorted(entry.table.nonzero_counts().items()),
        )
        for entry in entries
    ]


def assert_matches_fptree(db: BasketDatabase, k: int, floor: int) -> None:
    expected = FPTreePairEngine(db).top_k(k, min_cooccurrence=floor, prune=False)
    actual = top_k_pairs(db, k, min_cooccurrence=floor)
    assert fingerprint(actual) == fingerprint(expected.entries)
    assert entries_to_dicts(actual, db.vocabulary) == expected.to_dict(db.vocabulary)["entries"]


@st.composite
def databases_with_twins(draw):
    """Random baskets where some items copy another item's column."""
    n_items = draw(st.integers(min_value=2, max_value=8))
    n_baskets = draw(st.integers(min_value=1, max_value=40))
    columns = [
        draw(st.lists(st.booleans(), min_size=n_baskets, max_size=n_baskets))
        for _ in range(n_items)
    ]
    for item in range(1, n_items):
        twin = draw(st.integers(min_value=-1, max_value=item - 1))
        if twin >= 0:
            columns[item] = columns[twin]
    baskets = [
        [item for item in range(n_items) if columns[item][row]] for row in range(n_baskets)
    ]
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    db=databases_with_twins(),
    k=st.integers(min_value=1, max_value=12),
    floor=st.integers(min_value=1, max_value=6),
)
def test_matches_unpruned_fptree(db, k, floor):
    assert_matches_fptree(db, k, floor)


def test_tie_at_the_kth_place_breaks_by_itemset():
    # Items 1, 2 and 3 are copies, so pairs {0,1}, {0,2} and {0,3} tie
    # exactly; k=2 cuts through that tie.
    column = [True, True, False, False, True, False]
    other = [True, False, False, True, True, False]
    baskets = [
        [item for item, present in enumerate([a, b, b, b]) if present]
        for a, b in zip(other, column)
    ]
    db = BasketDatabase.from_id_baskets(baskets, n_items=4)
    entries = top_k_pairs(db, 4)
    assert [entry.itemset.items for entry in entries][:3] == [(1, 2), (1, 3), (2, 3)]
    tied = [entry for entry in entries if entry.itemset.items[0] == 0]
    assert [entry.itemset.items for entry in tied] == [(0, 1)]
    for k in range(1, 8):
        assert_matches_fptree(db, k, 1)


def test_fewer_pairs_than_k_and_empty_databases():
    db = BasketDatabase.from_baskets([["a", "b"], ["a"], ["c"]])
    assert [entry.itemset.items for entry in top_k_pairs(db, 10)] == [(0, 1)]
    assert top_k_pairs(db, 10, min_cooccurrence=2) == ()
    assert top_k_pairs(BasketDatabase.from_baskets([]), 3) == ()


@pytest.mark.parametrize("k, floor", [(0, 1), (3, 0)])
def test_rejects_bad_parameters(k, floor):
    db = BasketDatabase.from_baskets([["a", "b"]])
    with pytest.raises(ValueError):
        top_k_pairs(db, k, min_cooccurrence=floor)


def golden_entries(name: str) -> list[dict]:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())["entries"]


def test_quest_golden_entries():
    db = generate_quest(QUEST_PARAMETERS)
    entries = entries_to_dicts(top_k_pairs(db, 15, min_cooccurrence=5), db.vocabulary)
    assert json.loads(json.dumps(entries)) == golden_entries("quest_topk")


def test_census_golden_entries(census_db):
    entries = entries_to_dicts(
        top_k_pairs(census_db, 10, min_cooccurrence=100), census_db.vocabulary
    )
    assert json.loads(json.dumps(entries)) == golden_entries("census_topk")
