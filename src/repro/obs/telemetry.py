"""The per-run telemetry bundle and its run report.

:class:`Telemetry` packages one tracer and one metrics registry and
travels with a mining run: the miner, the counting backends and the
counting kernels all record into it, and the finished
:class:`~repro.algorithms.chi2support.MiningResult` carries it so
callers can export traces, snapshot metrics, or render the run report
after the fact.

The **run report** is the paper's Table 5 plus where the time went: a
per-level row of the pruning counters (``|CAND|``, discards, ``|SIG|``,
``|NOTSIG|``) joined with the per-level wall and counting seconds the
tracer measured, followed by cache, kernel-dispatch and worker-pool
rollups.  :meth:`Telemetry.reconcile` cross-checks the metric counters
against the miner's own ``LevelStats`` — the two are produced by
independent code paths, so exact agreement is a strong end-to-end
consistency check (and a hard test gate).

``NULL_TELEMETRY`` is the disabled default: both halves are the no-op
implementations, so an un-instrumented mine pays near-zero overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.clock import Clock
from repro.obs.events import EventLog, NULL_EVENTS, NullEventLog
from repro.obs.metrics import MetricsRegistry, NULL_METRICS, NullMetrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.chi2support import LevelStats

__all__ = ["Telemetry", "NULL_TELEMETRY"]

# The reconciled (LevelStats attribute, metric name, labels-builder) triples.
_RECONCILED_FIELDS = (
    ("candidates", "candidates", {}),
    ("discarded", "candidates_pruned", {"reason": "support"}),
    ("significant", "candidates_pruned", {"reason": "chi2"}),
    ("significant", "itemsets", {"kind": "significant"}),
    ("not_significant", "itemsets", {"kind": "not_significant"}),
)


class Telemetry:
    """One run's tracer + metrics, with reporting and reconciliation.

    Build an enabled instance with :meth:`Telemetry.create` (optionally
    passing a deterministic clock) and hand it to
    :func:`repro.core.mining.mine_correlations`; the default everywhere
    is the shared :data:`NULL_TELEMETRY`, whose recording calls all
    no-op.
    """

    __slots__ = ("tracer", "metrics", "clock", "enabled", "events")

    def __init__(
        self,
        tracer: Tracer | NullTracer,
        metrics: MetricsRegistry | NullMetrics,
        clock: Clock | None = None,
        enabled: bool = True,
        events: EventLog | NullEventLog = NULL_EVENTS,
    ) -> None:
        if clock is None:
            from repro.obs.clock import default_clock

            clock = default_clock()
        self.tracer = tracer
        self.metrics = metrics
        self.clock = clock
        self.enabled = enabled
        self.events = events

    @classmethod
    def create(cls, clock: Clock | None = None) -> "Telemetry":
        """An enabled telemetry bundle (the one-liner callers want)."""
        from repro.obs.clock import default_clock

        clock = clock if clock is not None else default_clock()
        return cls(
            Tracer(clock),
            MetricsRegistry(),
            clock=clock,
            enabled=True,
            events=EventLog(clock=clock),
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op bundle (also importable as ``NULL_TELEMETRY``)."""
        return NULL_TELEMETRY

    # -- reconciliation -------------------------------------------------------

    def reconcile(self, level_stats: Sequence["LevelStats"]) -> list[str]:
        """Cross-check metric counters against ``LevelStats``, exactly.

        Returns human-readable mismatch descriptions; an empty list means
        the two independently-maintained sets of counters agree on every
        level.  Disabled telemetry recorded nothing and reconciles
        vacuously.
        """
        if not self.enabled:
            return []
        mismatches: list[str] = []
        for stats in level_stats:
            for attribute, metric, labels in _RECONCILED_FIELDS:
                expected = getattr(stats, attribute)
                observed = self.metrics.counter_value(metric, level=stats.level, **labels)
                if observed != expected:
                    series = ", ".join(
                        [f"level={stats.level}"] + [f"{k}={v}" for k, v in labels.items()]
                    )
                    mismatches.append(
                        f"{metric}{{{series}}} = {observed} but "
                        f"LevelStats.{attribute} = {expected}"
                    )
        return mismatches

    def reconcile_workers(self) -> list[str]:
        """Cross-check merged worker counters against parent bookkeeping.

        When the parallel engine merges a worker's metrics snapshot it
        also counts, parent-side, how many tasks it merged
        (``pool_events{kind="task_merged"}``) and how many candidate
        itemsets those tasks covered (``worker_itemsets_expected``).
        The workers themselves counted the same things independently
        (``worker_tasks``, ``worker_itemsets``) before shipping their
        snapshots, so after the merge the two sides must agree exactly.
        Vacuous when no parallel counting ran (all four counters zero).
        """
        if not self.enabled:
            return []
        mismatches: list[str] = []
        pairs = (
            ("worker_tasks", "pool_events", {"kind": "task_merged"}),
            ("worker_itemsets", "worker_itemsets_expected", {}),
        )
        for worker_metric, parent_metric, parent_labels in pairs:
            observed = sum(
                value
                for key, value in self.metrics.series(worker_metric).items()
                if key == worker_metric or key.startswith(worker_metric + "{")
            )
            expected = self.metrics.counter_value(parent_metric, **parent_labels)
            if observed != expected:
                mismatches.append(
                    f"{worker_metric} = {observed} merged from workers but "
                    f"parent counted {parent_metric} = {expected}"
                )
        return mismatches

    # -- run report -----------------------------------------------------------

    def run_report(self, level_stats: Sequence["LevelStats"]) -> dict[str, object]:
        """The JSON-compatible run report (see the module docstring)."""
        mismatches = self.reconcile(level_stats) + self.reconcile_workers()
        levels = [
            {
                "level": stats.level,
                "lattice_itemsets": stats.lattice_itemsets,
                "candidates": stats.candidates,
                "discarded": stats.discarded,
                "significant": stats.significant,
                "not_significant": stats.not_significant,
                "wall_seconds": stats.wall_seconds,
                "counting_seconds": stats.counting_seconds,
            }
            for stats in level_stats
        ]
        return {
            "enabled": self.enabled,
            "levels": levels,
            "totals": {
                "candidates": sum(stats.candidates for stats in level_stats),
                "discarded": sum(stats.discarded for stats in level_stats),
                "significant": sum(stats.significant for stats in level_stats),
                "not_significant": sum(stats.not_significant for stats in level_stats),
                "wall_seconds": sum(stats.wall_seconds for stats in level_stats),
                "counting_seconds": sum(stats.counting_seconds for stats in level_stats),
            },
            "reconciliation": {
                "agreed": not mismatches,
                "mismatches": mismatches,
            },
            "cache": self.metrics.series("cache_events"),
            "kernel_dispatch": self.metrics.series("kernel_dispatch"),
            "pool": self.metrics.series("pool_events"),
            "workers": self.metrics.series("worker_"),
        }

    def render_summary(self, level_stats: Sequence["LevelStats"]) -> str:
        """The human run report: Table 5 with timings, then the rollups."""
        header = (
            f"{'level':>5} {'|CAND|':>9} {'discards':>9} {'|SIG|':>7} "
            f"{'|NOTSIG|':>9} {'wall_ms':>10} {'count_ms':>10}"
        )
        lines = ["telemetry run report", header, "-" * len(header)]
        for stats in level_stats:
            lines.append(
                f"{stats.level:>5} {stats.candidates:>9} {stats.discarded:>9} "
                f"{stats.significant:>7} {stats.not_significant:>9} "
                f"{stats.wall_seconds * 1e3:>10.2f} {stats.counting_seconds * 1e3:>10.2f}"
            )
        mismatches = self.reconcile(level_stats) + self.reconcile_workers()
        if self.enabled:
            lines.append(
                "reconciliation: "
                + ("metrics agree with LevelStats" if not mismatches else "MISMATCH")
            )
            lines.extend(f"  {mismatch}" for mismatch in mismatches)
            lines.extend(_render_rollup("cache", self.metrics.series("cache_events")))
            lines.extend(
                _render_rollup("kernel dispatch", self.metrics.series("kernel_dispatch"))
            )
            lines.extend(_render_rollup("pool", self.metrics.series("pool_events")))
            lines.extend(_render_rollup("workers", self.metrics.series("worker_")))
        else:
            lines.append("telemetry disabled (counters empty; timings are zero)")
        return "\n".join(lines)


def _render_rollup(title: str, series: dict[str, object]) -> Iterable[str]:
    if not series:
        return ()
    body = "  ".join(f"{key}={value}" for key, value in series.items())
    return (f"{title}: {body}",)


NULL_TELEMETRY = Telemetry(NULL_TRACER, NULL_METRICS, enabled=False)
