"""The mining service: incremental state plus query surface.

:class:`MiningService` owns one
:class:`~repro.core.mining.IncrementalMiner` (the current generation's
database, the cumulative cell store, and the current
:class:`~repro.algorithms.chi2support.MiningResult`) and publishes each
generation as an immutable :class:`_Snapshot`: the generation's
:class:`~repro.data.basket.BasketDatabase` itself (the miner never
changes one once built), the mining result and its border, and the
significance summary.  Every read
(``correlation``, ``significant``, ``status``, ``top_k``) takes the
current snapshot and answers from it alone, so a read never waits on a
mine and never mixes two generations.  Point queries count one table
off the snapshot's bitmaps; top-K ranks pairs with
:func:`~repro.core.topk.top_k_pairs`.

Appends serialize on a writer-only lock held through the miner's
two-phase append and the building of the next snapshot.  The service
lock guards only the published reference: the writer holds it to
assign the new snapshot, a reader to fetch the current one.  A
counting failure mid-append publishes nothing, so the previous
generation stays current.

Instrumentation rides the existing obs layer on a *service-lifetime*
telemetry bundle: one span per request, a
``service_requests{endpoint,status}`` counter, an ``index_generation``
gauge, per-endpoint latency histograms (``service_seconds{endpoint}``),
and one structured ``service.request`` event per call.  When the HTTP
layer bound a request id for the current context, the root span is
annotated with it and every event emitted while serving the request
carries it automatically.  Mining itself records into a *fresh*
per-append telemetry (so :meth:`Telemetry.reconcile` stays exact per
run); the append response carries that run's reconciliation verdict.

The completed root span of the most recent request on this context is
published through :func:`last_request_trace` — the HTTP layer reads it
to build flight-recorder entries without reaching into the tracer.

Responses are JSON-compatible dicts containing no timing data, so a
scripted session is byte-reproducible — the golden wire-format tests
rely on this.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.border import Border
from repro.core.contingency import ContingencyTable
from repro.core.correlation import CorrelationTest
from repro.core.itemsets import Itemset
from repro.core.mining import IncrementalMiner
from repro.core.report import rule_to_dict, significance_summary
from repro.core.rules import CorrelationRule
from repro.core.topk import entries_to_dicts, top_k_pairs
from repro.data.basket import BasketDatabase
from repro.obs import NULL_TELEMETRY, Telemetry, current_request_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.chi2support import MiningResult

__all__ = ["MiningService", "clear_last_trace", "last_request_trace"]

# The finished span tree of the most recent service call on this
# context.  A ContextVar (not service state) so concurrent handler
# threads each see their own request's trace.
_last_trace_var: ContextVar[dict | None] = ContextVar("repro_last_trace", default=None)


def last_request_trace() -> dict | None:
    """The completed root span of this context's most recent request."""
    return _last_trace_var.get()


def clear_last_trace() -> None:
    """Reset the per-context trace slot (call at request start)."""
    _last_trace_var.set(None)


@dataclass(frozen=True, slots=True)
class _Snapshot:
    """Everything a read answers from, for one generation.

    Built once per append, after the commit, and never changed: the
    database is the miner's immutable generation, ``rules`` the
    result's significant itemsets pre-sorted strongest first,
    ``summary`` the significance summary (``cumulative_tests``
    included).
    """

    generation: int
    db: BasketDatabase
    result: "MiningResult | None"
    border: Border
    rules: tuple[CorrelationRule, ...]
    summary: dict[str, object]
    reconciliation_agreed: bool

    def decode(self, itemset: Itemset) -> list[str]:
        return [self.db.vocabulary.name_of(item) for item in itemset]


class MiningService:
    """Thread-safe append/query surface over incremental mining state.

    Args:
        significance: chi-squared significance level alpha'.
        support_count: the cell-support count threshold ``s``.
        support_fraction: the cell-support fraction ``p``.
        max_level: cap on itemset size (``None`` = unbounded).
        telemetry: service-lifetime observability bundle (spans,
            request metrics).  Mining runs get their own fresh bundle
            per append when this one is enabled.
    """

    def __init__(
        self,
        significance: float = 0.95,
        support_count: float = 1,
        support_fraction: float = 0.26,
        max_level: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        mining_telemetry = Telemetry.create if self.telemetry.enabled else None
        self.miner = IncrementalMiner(
            significance=significance,
            support_count=support_count,
            support_fraction=support_fraction,
            max_level=max_level,
            telemetry_factory=mining_telemetry,
        )
        self.test = CorrelationTest(significance=significance)
        # Appends serialize on the writer lock; the service lock guards
        # only the published snapshot reference.
        self._write_lock = threading.Lock()
        self._lock = threading.Lock()
        self._view = self._snapshot(reconciliation_agreed=True)
        self._generation_gauge = self.telemetry.metrics.gauge("index_generation")
        self._generation_gauge.set(0)

    # -- instrumentation ------------------------------------------------------

    @contextmanager
    def _request(self, endpoint: str) -> Iterator[None]:
        """One span + counter + latency observation per service call.

        The span closes on every path (the tracer finishes it in
        ``__exit__`` even when the body raises); the status label
        records whether the handler succeeded.  The root span carries
        the request id the HTTP layer bound (when any), a structured
        ``service.request`` event is emitted, and the finished span
        tree is published for the flight recorder — on error paths too.
        """
        clock = self.telemetry.clock
        start = clock()
        status = "error"
        request_id = current_request_id()
        span = self.telemetry.tracer.span(f"service.{endpoint}")
        try:
            with span:
                if request_id is not None:
                    span.annotate(request_id=request_id)
                try:
                    yield
                    status = "ok"
                finally:
                    self.telemetry.metrics.counter(
                        "service_requests", endpoint=endpoint, status=status
                    ).inc()
                    self.telemetry.metrics.histogram(
                        "service_seconds", endpoint=endpoint
                    ).observe(clock() - start)
                    self.telemetry.events.emit(
                        "service.request", endpoint=endpoint, status=status
                    )
        finally:
            if self.telemetry.enabled:
                _last_trace_var.set(span.to_dict())

    # -- snapshots ------------------------------------------------------------

    def _snapshot(self, reconciliation_agreed: bool) -> _Snapshot:
        """The miner's current generation, ready to publish (writer side only)."""
        miner = self.miner
        result = miner.result
        hypotheses = 0
        rules: tuple[CorrelationRule, ...] = ()
        if result is not None:
            hypotheses = sum(
                stats.candidates - stats.discarded for stats in result.level_stats
            )
            rules = tuple(
                sorted(result.rules, key=lambda rule: (-rule.statistic, rule.itemset))
            )
        return _Snapshot(
            generation=miner.generation,
            db=miner.db,
            result=result,
            border=miner.border,
            rules=rules,
            summary=significance_summary(
                miner.significance,
                hypotheses,
                len(rules),
                cumulative_tests=miner.cumulative_tests,
            ),
            reconciliation_agreed=reconciliation_agreed,
        )

    def _current(self) -> _Snapshot:
        """The published snapshot; the lock is held only to read it."""
        with self._lock:
            return self._view

    @property
    def generation(self) -> int:
        """The generation reads currently answer from."""
        return self._current().generation

    # -- endpoints ------------------------------------------------------------

    def append(
        self,
        baskets: Iterable[Iterable[str]] | Iterable[Iterable[int]],
        numeric: bool = False,
    ) -> dict[str, object]:
        """Append baskets, then publish the new generation's snapshot."""
        with self._request("append"), self._write_lock:
            outcome = self.miner.append(baskets, numeric=numeric)
            agreed = self._view.reconciliation_agreed
            if outcome.result is not None:
                report = outcome.result.run_report()
                agreed = bool(report["reconciliation"]["agreed"])  # type: ignore[index]
            view = self._snapshot(reconciliation_agreed=agreed)
            with self._lock:
                self._view = view
            self._generation_gauge.set(view.generation)
            self.telemetry.events.emit(
                "service.append",
                generation=view.generation,
                appended=outcome.n_appended,
            )
            return {
                "generation": view.generation,
                "appended": outcome.n_appended,
                "n_baskets": view.db.n_baskets,
                "n_items": view.db.n_items,
                "new_items": list(outcome.new_items),
                "promoted": [view.decode(itemset) for itemset in outcome.promoted],
                "demoted": [view.decode(itemset) for itemset in outcome.demoted],
                "significant": len(view.border),
                "tables_served": outcome.tables_served,
                "tables_recounted": outcome.tables_recounted,
                "reconciliation_agreed": view.reconciliation_agreed,
                "significance_summary": dict(view.summary),
            }

    def status(self) -> dict[str, object]:
        """Generation, sizes and parameters."""
        with self._request("status"):
            view = self._current()
            return {
                "generation": view.generation,
                "n_baskets": view.db.n_baskets,
                "n_items": view.db.n_items,
                "significant": len(view.border),
                "significance": self.miner.significance,
                "support": {
                    "count": self.miner.support.count,
                    "fraction": self.miner.support.fraction,
                },
                "reconciliation_agreed": view.reconciliation_agreed,
            }

    def significant(self, limit: int | None = None) -> dict[str, object]:
        """The significant itemsets, strongest correlation first."""
        with self._request("significant"):
            view = self._current()
            shown = view.rules if limit is None else view.rules[: max(0, limit)]
            return {
                "generation": view.generation,
                "total": len(view.rules),
                "rules": [rule_to_dict(rule, view.db.vocabulary) for rule in shown],
                "significance_summary": dict(view.summary),
            }

    def correlation(self, items: Iterable[str | int]) -> dict[str, object]:
        """Point query: the full chi-squared evidence for one itemset,
        counted off the snapshot's bitmaps."""
        with self._request("correlation"):
            view = self._current()
            vocabulary = view.db.vocabulary
            resolved: list[int] = []
            for item in items:
                if isinstance(item, str):
                    if item not in vocabulary:
                        raise ValueError(f"unknown item {item!r}")
                    resolved.append(vocabulary.id_of(item))
                elif isinstance(item, int) and not isinstance(item, bool):
                    if not 0 <= item < view.db.n_items:
                        raise ValueError(f"item id {item} out of range")
                    resolved.append(item)
                else:
                    raise ValueError(f"items must be names or ids, got {item!r}")
            itemset = Itemset(resolved)
            if len(itemset) < 2:
                raise ValueError("correlation needs at least two distinct items")
            table = ContingencyTable.from_database(view.db, itemset)
            evidence = self.test(table)
            cells = {
                format(cell, f"0{len(itemset)}b")[::-1]: int(count)
                for cell, count in sorted(table.nonzero_counts().items())
            }
            return {
                "generation": view.generation,
                "items": view.decode(itemset),
                "item_ids": list(itemset.items),
                "chi_squared": evidence.statistic,
                "cutoff": evidence.cutoff,
                "correlated": evidence.correlated,
                "p_value": evidence.p_value,
                "reliable": evidence.reliable,
                "minimal": view.border.is_minimal(itemset),
                "covered_by_border": view.border.covers(itemset),
                "cells": cells,
                "n": int(table.n),
                "significance_summary": dict(view.summary),
            }

    def top_k(self, k: int = 10, min_cooccurrence: int = 1) -> dict[str, object]:
        """The K strongest pair correlations of the current generation."""
        with self._request("topk"):
            view = self._current()
            entries = top_k_pairs(view.db, k, min_cooccurrence)
            return {
                "generation": view.generation,
                "k": k,
                "min_cooccurrence": min_cooccurrence,
                "n_baskets": view.db.n_baskets,
                "entries": entries_to_dicts(entries, view.db.vocabulary),
            }

    def backfill(self, path: str, numeric: bool = False) -> dict[str, object]:
        """Replay a basket file as one append (the service's cold start).

        Reads through :class:`~repro.data.streaming.StreamingBasketDatabase`,
        which detects the file changing mid-read and never materialises
        the baskets twice.
        """
        from repro.data.streaming import StreamingBasketDatabase

        source = StreamingBasketDatabase(path, numeric=numeric)
        if numeric:
            baskets: list[tuple] = list(source)
        else:
            decode = source.vocabulary.decode
            baskets = [decode(basket) for basket in source]
        return self.append(baskets, numeric=numeric)

    def metrics_snapshot(self) -> dict[str, object]:
        """The service-lifetime metrics registry, byte-stable keys.

        The registry has its own lock; no service lock is taken.
        """
        return self.telemetry.metrics.snapshot()
