"""An append-only basket database with staged, atomic growth.

The streaming service's storage layer.  A :class:`BasketDatabase` is
immutable by contract; :class:`AppendableBasketDatabase` relaxes that in
exactly one direction — baskets and items may be *added*, never changed
or removed — and keeps its per-item bitmaps and counts consistent
incrementally instead of rebuilding them.  A packed NumPy index built
before an append is dropped by the commit; :meth:`packed_index` packs
the grown database again on its next call.

Appends are two-phase so a failure can never corrupt the database:

1. :meth:`stage_named` / :meth:`stage_ids` encode the incoming baskets
   against the *current* vocabulary without mutating anything.  New
   names get provisional ids (``old_k``, ``old_k + 1``, ...) in exactly
   the order :meth:`BasketDatabase.from_baskets` would assign them, so a
   staged append commits to the same encoding a from-scratch build of
   the grown database produces.
2. :meth:`commit` applies a staged append: vocabulary additions, bitmap
   bit-sets, count bumps, the basket list extension, and dropping any
   packed index, then bumps :attr:`generation`.  Commit performs no
   fallible computation — every error is raised during staging (or by
   whatever validation the caller runs between the phases), while the
   database is still untouched.

``generation`` counts committed appends; caches and query engines key
their invalidation on it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.itemsets import ItemVocabulary
from repro.data.basket import BasketDatabase

__all__ = ["AppendableBasketDatabase", "StagedAppend"]


@dataclass(frozen=True, slots=True)
class StagedAppend:
    """An encoded, not-yet-applied delta of baskets.

    Attributes:
        baskets: the delta, encoded as sorted item-id tuples (new items
            use their provisional ids).
        new_names: names to add to the vocabulary, in provisional-id
            order (``new_names[j]`` becomes id ``base_items + j``).
        touched_items: every item id occurring in the delta — the key
            for generation-aware cache invalidation.
        base_items: vocabulary size the staging was computed against.
        base_baskets: basket count the staging was computed against.
    """

    baskets: tuple[tuple[int, ...], ...]
    new_names: tuple[str, ...]
    touched_items: frozenset[int]
    base_items: int
    base_baskets: int

    @property
    def n_new_baskets(self) -> int:
        """Baskets this append adds."""
        return len(self.baskets)

    @property
    def new_k(self) -> int:
        """Vocabulary size after commit."""
        return self.base_items + len(self.new_names)


class AppendableBasketDatabase(BasketDatabase):
    """A basket database that grows by staged, atomic appends.

    Everything a :class:`BasketDatabase` offers keeps working between
    appends (the class only ever *adds* state); the inherited
    constructors build generation-0 instances.

    >>> db = AppendableBasketDatabase.empty()
    >>> staged = db.stage_named([["tea", "coffee"], ["coffee"]])
    >>> db.commit(staged)
    1
    >>> db.n_baskets, db.n_items, db.generation
    (2, 2, 1)
    """

    __slots__ = ("_generation",)

    def __init__(self, baskets, vocabulary: ItemVocabulary) -> None:
        super().__init__(list(baskets), vocabulary)
        self._generation = 0

    @classmethod
    def empty(cls) -> "AppendableBasketDatabase":
        """A zero-basket, zero-item database to append into."""
        return cls([], ItemVocabulary())

    @property
    def generation(self) -> int:
        """Number of committed appends."""
        return self._generation

    def freeze(self) -> BasketDatabase:
        """An immutable :class:`BasketDatabase` of the current generation.

        Shares the per-item bitmap ints (Python ints are immutable, and
        :meth:`commit` replaces list slots rather than changing an int)
        and any packed index (a commit drops it rather than editing it);
        copies the basket sequence, the item counts and the vocabulary.
        Nothing is re-derived, so a freeze costs a few list copies, and
        later appends never show through the frozen view.
        """
        frozen = BasketDatabase(tuple(self._baskets), ItemVocabulary(self.vocabulary))
        if self._bitmaps is not None:
            assert self._item_counts is not None
            frozen._bitmaps = list(self._bitmaps)
            frozen._item_counts = list(self._item_counts)
        frozen._packed = self._packed
        return frozen

    # -- staging (phase 1: no mutation) --------------------------------------

    def stage_named(self, baskets: Iterable[Iterable[str]]) -> StagedAppend:
        """Encode baskets of item *names* against the current vocabulary.

        Provisional ids are assigned to unknown names in first-encounter
        order — the same order :meth:`BasketDatabase.from_baskets` uses —
        so committing is equivalent to having built the whole database
        in one shot.
        """
        vocabulary = self.vocabulary
        base_items = self.n_items
        pending: dict[str, int] = {}
        encoded: list[tuple[int, ...]] = []
        touched: set[int] = set()
        for basket in baskets:
            ids = set()
            for name in basket:
                if name in vocabulary:
                    ids.add(vocabulary.id_of(name))
                elif name in pending:
                    ids.add(pending[name])
                else:
                    item = base_items + len(pending)
                    pending[name] = item
                    ids.add(item)
            encoded.append(tuple(sorted(ids)))
            touched |= ids
        return StagedAppend(
            baskets=tuple(encoded),
            new_names=tuple(pending),
            touched_items=frozenset(touched),
            base_items=base_items,
            base_baskets=self.n_baskets,
        )

    def stage_ids(self, baskets: Iterable[Iterable[int]]) -> StagedAppend:
        """Encode baskets of integer item ids against the current vocabulary.

        Ids beyond the current vocabulary synthesize ``item{i}`` names,
        mirroring :meth:`BasketDatabase.from_id_baskets` (and the
        numeric basket-file format).
        """
        base_items = self.n_items
        encoded: list[tuple[int, ...]] = []
        touched: set[int] = set()
        max_id = base_items - 1
        for basket in baskets:
            ids = tuple(sorted(set(basket)))
            if ids:
                if ids[0] < 0:
                    raise ValueError(f"item ids must be non-negative, got {ids[0]}")
                max_id = max(max_id, ids[-1])
            encoded.append(ids)
            touched.update(ids)
        new_names = tuple(f"item{i}" for i in range(base_items, max_id + 1))
        return StagedAppend(
            baskets=tuple(encoded),
            new_names=new_names,
            touched_items=frozenset(touched),
            base_items=base_items,
            base_baskets=self.n_baskets,
        )

    # -- commit (phase 2: infallible mutation) -------------------------------

    def commit(self, staged: StagedAppend) -> int:
        """Apply a staged append; returns the new generation.

        Raises ValueError when the staging is stale (the database grew
        since it was computed) — *before* touching any state.
        """
        if staged.base_items != self.n_items or staged.base_baskets != self.n_baskets:
            raise ValueError(
                f"stale staged append: staged against {staged.base_baskets} baskets"
                f"/{staged.base_items} items, database has {self.n_baskets}"
                f"/{self.n_items}"
            )
        for name in staged.new_names:
            self.vocabulary.add(name)
        if self._bitmaps is not None:
            self._bitmaps.extend([0] * len(staged.new_names))
            assert self._item_counts is not None
            self._item_counts.extend([0] * len(staged.new_names))
            base = self.n_baskets
            for offset, basket in enumerate(staged.baskets):
                mask = 1 << (base + offset)
                for item in basket:
                    self._bitmaps[item] |= mask
                    self._item_counts[item] += 1
        self._packed = None
        self._baskets.extend(staged.baskets)
        self._generation += 1
        return self._generation
