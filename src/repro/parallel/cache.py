"""A bounded LRU cache for contingency tables.

Point queries that probe the same handful of itemsets repeatedly can
memoise finished tables here.  The streaming service does not: it
counts each point query off an immutable generation snapshot.  The
cache is a plain
ordered-dict LRU presented as keyed by
:class:`~repro.core.itemsets.Itemset` but *interned* to the itemset's
sorted id tuple internally: tuple keys compare in C, where an
``Itemset`` key pays a bytecode-dispatched ``__eq__`` whenever the
probe object is equal to but not identical with the stored key — the
common case here, since callers construct fresh ``Itemset`` objects per
query (~1.4x on a fresh-object probe loop; see the benchmark note in
``docs/algorithm.md``).  Safe because ``Itemset`` equality is
defined as tuple equality and both key and cached
:class:`ContingencyTable` are immutable.  For an *appendable*
database, :meth:`TableCache.advance_generation`
carries the cache across
an append exactly: tables touching an appended item are invalidated,
all others are patched in place (only their all-absent cell and total
can have changed), so point queries keep hitting across generations.

The cache is fully observable: :attr:`hits`, :attr:`misses`,
:attr:`evictions`, :attr:`invalidations` and :attr:`refreshes` are
read-only counters, :meth:`stats` snapshots them as a dict, and an
optional metrics registry (:mod:`repro.obs.metrics`) receives one
``cache_events{kind="hit"|"miss"|"evict"|"invalidate"|"refresh"}``
increment per event so cache behaviour shows up in mining run reports.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.contingency import ContingencyTable
from repro.core.itemsets import Itemset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["TableCache"]


class TableCache:
    """Bounded LRU mapping of itemset -> contingency table.

    ``capacity <= 0`` disables caching entirely (every lookup misses and
    :meth:`put` is a no-op), which keeps the engine's call sites free of
    conditionals.  ``metrics`` (optional) is a
    :class:`~repro.obs.metrics.MetricsRegistry` that receives
    ``cache_events`` counter increments alongside the local counters.

    >>> from repro.core.itemsets import Itemset
    >>> cache = TableCache(capacity=2)
    >>> t = ContingencyTable(Itemset([0]), {1: 3, 0: 2})
    >>> cache.put(t.itemset, t)
    >>> cache.get(Itemset([0])) is t
    True
    >>> cache.hits, cache.misses
    (1, 0)
    >>> cache.stats()["size"], cache.stats()["generation"]
    (1, 0)
    """

    __slots__ = (
        "capacity",
        "_hits",
        "_misses",
        "_evictions",
        "_invalidations",
        "_refreshes",
        "_generation",
        "_entries",
        "_events",
    )

    def __init__(self, capacity: int = 256, metrics: "MetricsRegistry | None" = None) -> None:
        if metrics is None:
            from repro.obs.metrics import NULL_METRICS

            metrics = NULL_METRICS
        self.capacity = capacity
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._refreshes = 0
        self._generation = 0
        # Interned keys: the itemset's sorted id tuple, never the
        # Itemset itself (C-speed equality on every get/put).
        self._entries: OrderedDict[tuple[int, ...], ContingencyTable] = OrderedDict()
        self._events = {
            "hit": metrics.counter("cache_events", kind="hit"),
            "miss": metrics.counter("cache_events", kind="miss"),
            "evict": metrics.counter("cache_events", kind="evict"),
            "invalidate": metrics.counter("cache_events", kind="invalidate"),
            "refresh": metrics.counter("cache_events", kind="refresh"),
        }

    @property
    def hits(self) -> int:
        """Lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that found nothing (including all lookups at capacity 0)."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to respect the capacity bound."""
        return self._evictions

    @property
    def invalidations(self) -> int:
        """Entries dropped by :meth:`advance_generation` (stale tables)."""
        return self._invalidations

    @property
    def refreshes(self) -> int:
        """Entries exactly patched by :meth:`advance_generation`."""
        return self._refreshes

    @property
    def generation(self) -> int:
        """Database generation the cached tables describe."""
        return self._generation

    def stats(self) -> dict[str, int]:
        """Counter snapshot plus the current occupancy."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "generation": self._generation,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "invalidations": self._invalidations,
            "refreshes": self._refreshes,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, itemset: Itemset) -> bool:
        return itemset.items in self._entries

    def get(self, itemset: Itemset) -> ContingencyTable | None:
        """Return the cached table (refreshing recency) or ``None``."""
        key = itemset.items
        table = self._entries.get(key)
        if table is None:
            self._misses += 1
            self._events["miss"].inc()
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        self._events["hit"].inc()
        return table

    def put(self, itemset: Itemset, table: ContingencyTable) -> None:
        """Insert a table, evicting the least recently used beyond capacity."""
        if self.capacity <= 0:
            return
        key = itemset.items
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = table
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
            self._events["evict"].inc()

    def advance_generation(self, touched_items: Iterable[int], delta_count: int) -> None:
        """Carry the cache across a database append, exactly.

        ``touched_items`` are the item ids occurring in the appended
        baskets, ``delta_count`` the number of baskets appended.  Two
        disjoint cases cover every entry:

        * a table sharing an item with the delta may have any cell
          changed — it is **invalidated** (dropped);
        * a table touching none of the appended items is **refreshed**
          in place: every appended basket lands in its all-absent cell,
          so the only exact changes are ``cell 0 += delta_count`` and
          ``n += delta_count`` (the marginals are untouched).  The
          rebuilt table is bit-identical to a fresh count over the grown
          database.

        Recency order is preserved.  Generation advances even for an
        empty delta, keeping the counter aligned with the database's.
        """
        if delta_count < 0:
            raise ValueError(f"delta_count must be non-negative, got {delta_count}")
        touched = frozenset(touched_items)
        self._generation += 1
        if not self._entries:
            return
        survivors: OrderedDict[tuple[int, ...], ContingencyTable] = OrderedDict()
        for key, table in self._entries.items():
            if touched.intersection(key):
                self._invalidations += 1
                self._events["invalidate"].inc()
                continue
            if delta_count:
                cells = dict(table.nonzero_counts())
                cells[0] = cells.get(0, 0) + delta_count
                table = ContingencyTable.from_cell_counts(
                    table.itemset, cells, table.n + delta_count
                )
                self._refreshes += 1
                self._events["refresh"].inc()
            survivors[key] = table
        self._entries = survivors

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def __repr__(self) -> str:
        return (
            f"TableCache(capacity={self.capacity}, size={len(self._entries)}, "
            f"hits={self._hits}, misses={self._misses}, evictions={self._evictions})"
        )
