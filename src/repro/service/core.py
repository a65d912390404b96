"""The mining service: incremental state plus query surface.

:class:`MiningService` owns one
:class:`~repro.core.mining.IncrementalMiner` (the appendable database,
the cumulative cell store, and the current
:class:`~repro.algorithms.chi2support.MiningResult`), a
generation-aware :class:`~repro.parallel.TableCache` of
:data:`CACHE_CAPACITY` point-query tables, and a per-generation FP-tree
engine for top-K queries.  All operations hold one lock, so a query
never observes a half-applied append — and the miner's own two-phase
append guarantees that a counting failure mid-append leaves the
previous generation untouched.

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
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.correlation import CorrelationTest
from repro.core.contingency import ContingencyTable
from repro.core.itemsets import Itemset
from repro.core.mining import IncrementalMiner
from repro.core.report import rule_to_dict, significance_summary
from repro.obs import NULL_TELEMETRY, Telemetry, current_request_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fptree import FPTreePairEngine

__all__ = ["MiningService", "clear_last_trace", "last_request_trace"]

# Point-query tables the service keeps across requests.
CACHE_CAPACITY = 256

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
        from repro.parallel import TableCache

        self.cache = TableCache(capacity=CACHE_CAPACITY, metrics=self.telemetry.metrics)
        self.test = CorrelationTest(significance=significance)
        self._lock = threading.RLock()
        self._fptree: "FPTreePairEngine | None" = None
        self._fptree_generation = -1
        self._last_reconciliation_agreed = True
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

    # -- shared payload pieces ------------------------------------------------

    def _decode(self, itemset: Itemset) -> list[str]:
        return [self.miner.db.vocabulary.name_of(item) for item in itemset]

    def _summary(self) -> dict[str, object]:
        result = self.miner.result
        hypotheses = 0
        discoveries = 0
        if result is not None:
            hypotheses = sum(
                stats.candidates - stats.discarded for stats in result.level_stats
            )
            discoveries = len(result.rules)
        return significance_summary(
            self.miner.significance,
            hypotheses,
            discoveries,
            cumulative_tests=self.miner.cumulative_tests,
        )

    # -- endpoints ------------------------------------------------------------

    def append(
        self,
        baskets: Iterable[Iterable[str]] | Iterable[Iterable[int]],
        numeric: bool = False,
    ) -> dict[str, object]:
        """Append baskets, advance every generation-keyed structure."""
        with self._request("append"), self._lock:
            outcome = self.miner.append(baskets, numeric=numeric)
            self.cache.advance_generation(outcome.touched_items, outcome.n_appended)
            self._generation_gauge.set(outcome.generation)
            if outcome.result is not None:
                report = outcome.result.run_report()
                reconciliation = report["reconciliation"]
                self._last_reconciliation_agreed = bool(reconciliation["agreed"])  # type: ignore[index]
            self.telemetry.events.emit(
                "service.append",
                generation=outcome.generation,
                appended=outcome.n_appended,
            )
            return {
                "generation": outcome.generation,
                "appended": outcome.n_appended,
                "n_baskets": outcome.n_baskets,
                "n_items": outcome.n_items,
                "new_items": list(outcome.new_items),
                "promoted": [self._decode(itemset) for itemset in outcome.promoted],
                "demoted": [self._decode(itemset) for itemset in outcome.demoted],
                "significant": len(self.miner.border),
                "tables_served": outcome.tables_served,
                "tables_recounted": outcome.tables_recounted,
                "reconciliation_agreed": self._last_reconciliation_agreed,
                "significance_summary": self._summary(),
            }

    def status(self) -> dict[str, object]:
        """Generation, sizes, parameters, and cache health."""
        with self._request("status"), self._lock:
            return {
                "generation": self.miner.generation,
                "n_baskets": self.miner.db.n_baskets,
                "n_items": self.miner.db.n_items,
                "significant": len(self.miner.border),
                "significance": self.miner.significance,
                "support": {
                    "count": self.miner.support.count,
                    "fraction": self.miner.support.fraction,
                },
                "cache": self.cache.stats(),
                "reconciliation_agreed": self._last_reconciliation_agreed,
            }

    def significant(self, limit: int | None = None) -> dict[str, object]:
        """The significant itemsets, strongest correlation first."""
        with self._request("significant"), self._lock:
            result = self.miner.result
            rules = [] if result is None else sorted(
                result.rules, key=lambda rule: (-rule.statistic, rule.itemset)
            )
            shown = rules if limit is None else rules[: max(0, limit)]
            return {
                "generation": self.miner.generation,
                "total": len(rules),
                "rules": [
                    rule_to_dict(rule, self.miner.db.vocabulary) for rule in shown
                ],
                "significance_summary": self._summary(),
            }

    def correlation(self, items: Iterable[str | int]) -> dict[str, object]:
        """Point query: the full chi-squared evidence for one itemset.

        Tables come from the generation-aware cache when the itemset was
        queried before and no append touched its items since.
        """
        with self._request("correlation"), self._lock:
            vocabulary = self.miner.db.vocabulary
            resolved: list[int] = []
            for item in items:
                if isinstance(item, str):
                    if item not in vocabulary:
                        raise ValueError(f"unknown item {item!r}")
                    resolved.append(vocabulary.id_of(item))
                elif isinstance(item, int) and not isinstance(item, bool):
                    if not 0 <= item < self.miner.db.n_items:
                        raise ValueError(f"item id {item} out of range")
                    resolved.append(item)
                else:
                    raise ValueError(f"items must be names or ids, got {item!r}")
            itemset = Itemset(resolved)
            if len(itemset) < 2:
                raise ValueError("correlation needs at least two distinct items")
            table = self.cache.get(itemset)
            if table is None:
                table = ContingencyTable.from_database(self.miner.db, itemset)
                self.cache.put(itemset, table)
            evidence = self.test(table)
            border = self.miner.border
            cells = {
                format(cell, f"0{len(itemset)}b")[::-1]: int(count)
                for cell, count in sorted(table.nonzero_counts().items())
            }
            return {
                "generation": self.miner.generation,
                "items": self._decode(itemset),
                "item_ids": list(itemset.items),
                "chi_squared": evidence.statistic,
                "cutoff": evidence.cutoff,
                "correlated": evidence.correlated,
                "p_value": evidence.p_value,
                "reliable": evidence.reliable,
                "minimal": border.is_minimal(itemset),
                "covered_by_border": border.covers(itemset),
                "cells": cells,
                "n": int(table.n),
                "significance_summary": self._summary(),
            }

    def top_k(self, k: int = 10, min_cooccurrence: int = 1) -> dict[str, object]:
        """The K strongest pair correlations via the FP-tree engine.

        The tree is built once per generation and reused until the next
        append — "what's trending" polling never re-mines.
        """
        with self._request("topk"), self._lock:
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
            if self.miner.db.n_baskets == 0:
                return {
                    "generation": self.miner.generation,
                    "k": k,
                    "min_cooccurrence": min_cooccurrence,
                    "n_baskets": 0,
                    "entries": [],
                }
            engine = self._fptree_engine()
            result = engine.top_k(k, min_cooccurrence=min_cooccurrence)
            payload = result.to_dict(self.miner.db.vocabulary)
            payload["generation"] = self.miner.generation
            return payload

    def _fptree_engine(self) -> "FPTreePairEngine":
        if self._fptree is None or self._fptree_generation != self.miner.generation:
            from repro.fptree import FPTreePairEngine

            self._fptree = FPTreePairEngine(self.miner.db)
            self._fptree_generation = self.miner.generation
        return self._fptree

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
        """The service-lifetime metrics registry, byte-stable keys."""
        with self._lock:
            return self.telemetry.metrics.snapshot()
