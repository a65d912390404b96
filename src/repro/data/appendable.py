"""Growing a basket database one immutable generation at a time.

The streaming service's storage layer.  Every generation is an ordinary,
immutable :class:`BasketDatabase`; :func:`extend` builds the next one
from the current one and changes nothing, so a failed append leaves the
current generation exactly as it was.

Generations do not copy the basket sequence.  They share one append-only
list, each through a :class:`BasketLog` view of its own prefix: appending
to the list never changes an earlier prefix.  The grown generation that
:func:`extend` returns is readable only once its caller has extended the
list by the delta's baskets; its bitmaps and counts are complete at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

from repro.core.itemsets import ItemVocabulary
from repro.data.basket import BasketDatabase

__all__ = ["BasketLog", "extend"]


class BasketLog(Sequence[tuple[int, ...]]):
    """The first ``n`` baskets of a shared, append-only list.

    >>> shared = [(0,), (0, 1)]
    >>> log = BasketLog(shared, 1)
    >>> shared.append((1,))
    >>> len(log), list(log), log[-1]
    (1, [(0,)], (0,))
    """

    __slots__ = ("_baskets", "_n")

    def __init__(self, baskets: list[tuple[int, ...]], n: int) -> None:
        self._baskets = baskets
        self._n = n

    def _readable(self) -> list[tuple[int, ...]]:
        if len(self._baskets) < self._n:
            raise RuntimeError(
                f"basket log holds {len(self._baskets)} baskets, "
                f"this generation has {self._n}: its append is not committed"
            )
        return self._baskets

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return islice(self._readable(), self._n)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._readable()[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("basket index out of range")
        return self._readable()[index]


def extend(
    db: BasketDatabase,
    log: list[tuple[int, ...]],
    baskets: Iterable[Iterable[str]] | Iterable[Iterable[int]],
    numeric: bool = False,
) -> tuple[BasketDatabase, BasketDatabase]:
    """``(grown, delta)``: ``db`` plus ``baskets``, and the baskets alone.

    ``db`` must read its baskets as a prefix of ``log``; the grown
    generation reads ``log`` up to ``db.n_baskets + len(delta)`` and so
    becomes readable once the caller extends ``log`` by ``delta``.
    Names (or, with ``numeric``, ids) are encoded exactly as
    :meth:`BasketDatabase.from_baskets` /
    :meth:`~BasketDatabase.from_id_baskets` would encode the whole
    accumulated sequence, on a copy of ``db``'s vocabulary; ids past it
    get ``item{i}`` names.  ``delta`` shares the grown vocabulary.

    >>> log = []
    >>> empty = BasketDatabase(BasketLog(log, 0), ItemVocabulary())
    >>> grown, delta = extend(empty, log, [["tea", "coffee"], ["coffee"]])
    >>> log.extend(delta)
    >>> grown.n_baskets, list(grown.vocabulary), grown.item_counts(), list(grown)
    (2, ['tea', 'coffee'], (1, 2), [(0, 1), (1,)])
    """
    vocabulary = ItemVocabulary(db.vocabulary)
    if numeric:
        encoded = BasketDatabase.from_id_baskets(baskets)  # type: ignore[arg-type]
        for item in range(len(vocabulary), encoded.n_items):
            if vocabulary.add(f"item{item}") != item:
                raise ValueError(f"item id {item}: its name item{item} is already another item's")
        delta = BasketDatabase(list(encoded), vocabulary)
    else:
        delta = BasketDatabase.from_baskets(baskets, vocabulary)  # type: ignore[arg-type]
    n = db.n_baskets
    new_items = delta.n_items - db.n_items
    bitmaps = [db.item_bitmap(item) for item in range(db.n_items)] + [0] * new_items
    counts = list(db.item_counts()) + [0] * new_items
    for item, count in enumerate(delta.item_counts()):
        if count:
            bitmaps[item] |= delta.item_bitmap(item) << n
            counts[item] += count
    grown = BasketDatabase(BasketLog(log, n + delta.n_baskets), delta.vocabulary)
    grown._bitmaps = bitmaps
    grown._item_counts = counts
    return grown, delta
