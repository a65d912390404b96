"""The sharded parallel counting engine.

:class:`ParallelCountingEngine` is the scaling layer between a
:class:`~repro.data.basket.BasketDatabase` and anything that needs
contingency-table cells — the chi-squared-support miner's
``counting="parallel"`` backend, rule ranking, interactive probes.  It
has three moving parts:

1. **Sharding** — the database is partitioned once into contiguous row
   shards.  With NumPy the transport is **shared memory**
   (:mod:`repro.parallel.shm`): the packed bitmap matrix lives in one
   ``multiprocessing.shared_memory`` segment and each shard is a
   zero-copy word-aligned column slice workers attach to by name.
   Without NumPy it is **pickle** (:mod:`repro.parallel.sharding`):
   each shard's basket tuples ship to workers at pool-init time (also
   the fallback when a segment cannot be created).  Either way each
   shard counts cells on its own with the vectorized batch kernels.
2. **A worker pool** — created once and reused across every
   ``count_cells()`` call of a run; a counting batch fans one task per
   shard out and merges the returned sparse dicts, exploiting that any
   cell count is a sum over shards.
3. **Adaptive dispatch** — parallelism has real dispatch cost, so the
   engine only fans out when it can pay off: batches below
   ``min_parallel_batch`` run serially, as does everything when fewer
   than two effective workers exist (``workers`` capped by CPU count),
   and observed per-itemset serial vs parallel timings steer later
   batches toward whichever mode is measured faster (with periodic
   re-probes).  ``min_parallel_batch=0`` forces the pool path — the
   failure-injection tests rely on that.

Failure semantics: a crashed worker or a task outliving ``task_timeout``
raises :class:`CountingError` (never hangs).  With ``fallback_serial``
(the default) the engine logs the failure, permanently degrades to the
serial path, and still returns exact results; with it disabled the error
propagates to the caller.  In every failure path — and on ``close()``,
``__exit__``, and interpreter ``atexit`` — the shared-memory segment is
released and unlinked exactly once.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections.abc import Iterable, Sequence

from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.kernels import HAS_NUMPY, count_cells_batch
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.parallel.sharding import merge_shard_counts, shard_database

__all__ = ["CountingError", "DEFAULT_MIN_PARALLEL_BATCH", "ParallelCountingEngine"]

logger = logging.getLogger("repro.parallel")

# Smallest batch worth a trip through the worker pool when the caller
# leaves min_parallel_batch adaptive: below this, per-task dispatch and
# result pickling dominate any conceivable counting speedup.
DEFAULT_MIN_PARALLEL_BATCH = 64

# With adaptive dispatch settled on serial, retry the pool every Nth
# batch so a transiently slow pool can win back the work.
_REPROBE_EVERY = 8

# Itemsets wider than this cannot ride the packed shared-memory shards
# (cell ids overflow int64); such batches run serially over the database.
_MAX_PACKED_ITEMS = 63


class CountingError(RuntimeError):
    """A parallel counting batch failed (worker crash, timeout, broken pool)."""


# Worker-side state: the shard list arrives once via the pool initializer
# so per-batch messages carry only a shard index and the candidate tuples.
_WORKER_SHARDS: list = []


def _init_worker(shards: list) -> None:
    global _WORKER_SHARDS
    _WORKER_SHARDS = shards


def _count_task(shard_index: int, candidates: Sequence[tuple[int, ...]]):
    """Count one shard's cells and ship a worker metrics snapshot back.

    Each task records into a fresh worker-local registry — what the
    shard's kernels dispatched (``kernel_dispatch``) and its own
    bookkeeping (``worker_tasks``, ``worker_itemsets``) — and returns
    its snapshot alongside the counts so the parent can fold it into the
    run's registry (:meth:`repro.obs.MetricsRegistry.merge`).
    Registries do not cross process boundaries; snapshots do.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("worker_tasks").inc()
    registry.counter("worker_itemsets").inc(len(candidates))
    counts = _WORKER_SHARDS[shard_index].count_cells(candidates, metrics=registry)
    return counts, registry.snapshot()


class ParallelCountingEngine:
    """Sharded contingency-table counting over one database.

    Parameters:
        db: the database to count over (immutable for the engine's life).
        workers: worker processes; ``None`` means ``os.cpu_count()``.
            ``1`` selects the deterministic in-process serial path.
        n_shards: row shards; defaults to ``workers`` (capped at the
            basket count).  More shards than workers smooths load
            imbalance at the cost of more merge work.
        task_timeout: seconds a single batch may take before the engine
            declares the pool poisoned; ``None`` waits forever.
        fallback_serial: on pool failure, degrade to serial counting
            instead of raising :class:`CountingError`.
        mp_context: a ``multiprocessing`` context (or start-method name)
            to use instead of the default (``fork`` where available).
        min_parallel_batch: smallest batch dispatched to the pool.
            ``None`` (default) is adaptive: a built-in floor of
            ``DEFAULT_MIN_PARALLEL_BATCH`` plus measured serial-versus-
            parallel steering; ``0`` forces every batch through the
            pool (tests and benchmarks); any other value replaces the
            floor.
        telemetry: a :class:`repro.obs.Telemetry` bundle; when given,
            the engine records per-batch spans and timing histograms
            (``count_batch_seconds{mode=...}``, per-shard
            ``shard_task_seconds``), worker-pool event counters
            (``pool_events{kind=...}``), and the kernel dispatch
            counters workers ship back with their counts.  Defaults to
            the no-op bundle.

    >>> db = BasketDatabase.from_baskets([["a", "b"]] * 3 + [["a"]] * 2 + [[]] * 5)
    >>> with ParallelCountingEngine(db, workers=1) as engine:
    ...     [cells] = engine.count_cells([Itemset([0, 1])])
    >>> cells == {0b11: 3, 0b01: 2, 0b00: 5}
    True
    """

    def __init__(
        self,
        db: BasketDatabase,
        workers: int | None = None,
        n_shards: int | None = None,
        task_timeout: float | None = 120.0,
        fallback_serial: bool = True,
        mp_context=None,
        min_parallel_batch: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if workers is None:
            workers = multiprocessing.cpu_count()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if n_shards is not None and n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if min_parallel_batch is not None and min_parallel_batch < 0:
            raise ValueError(
                f"min_parallel_batch must be >= 0, got {min_parallel_batch}"
            )
        self.db = db
        self.workers = workers
        self.min_parallel_batch = min_parallel_batch
        self.task_timeout = task_timeout
        self.fallback_serial = fallback_serial
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._mp_context = mp_context
        self._shards: list | None = None
        self._n_shards = n_shards if n_shards is not None else workers
        self._pool = None
        self._pool_broken = False
        self._shared_index = None
        self.degraded = False
        # Measured seconds-per-itemset by mode, steering adaptive dispatch.
        self._mode_unit: dict[str, float | None] = {"serial": None, "parallel": None}
        self._settled_serial = 0
        # Observability counters for benchmarks and the CLI.
        self.tasks_dispatched = 0
        self.parallel_batches = 0
        self.serial_batches = 0
        self.fallbacks = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def shards(self) -> list:
        """The shards (built lazily, before any pool exists).

        Shared-memory slices when NumPy imports, pickled row shards
        otherwise; a segment that cannot be created falls back to
        pickling with a ``pool_events{kind="shm_unavailable"}`` counter.
        """
        if self._shards is None:
            if HAS_NUMPY:
                try:
                    self._shards = self._build_shared_shards()
                except Exception as error:
                    logger.warning(
                        "shared-memory shards unavailable (%s); pickling shards",
                        error,
                    )
                    self.telemetry.metrics.counter(
                        "pool_events", kind="shm_unavailable"
                    ).inc()
                    self._close_shared_index()
            if self._shards is None:
                self._shards = shard_database(self.db, self._n_shards)
        return self._shards

    def _build_shared_shards(self) -> list:
        from repro.parallel import shm

        self._shared_index = shm.SharedPackedIndex(self.db.packed_index())
        shards = shm.shard_shared_index(self._shared_index, self._n_shards)
        self.telemetry.metrics.counter("pool_events", kind="shm_created").inc()
        return shards

    def _close_shared_index(self) -> None:
        if self._shared_index is not None:
            self._shared_index.close()
            self._shared_index = None

    def _context(self):
        if self._mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            return multiprocessing.get_context("fork" if "fork" in methods else None)
        if isinstance(self._mp_context, str):
            return multiprocessing.get_context(self._mp_context)
        return self._mp_context

    def _ensure_pool(self):
        """The worker pool, created on first use; ``None`` if unusable."""
        if self._pool is not None:
            return self._pool
        if self._pool_broken:
            return None
        try:
            context = self._context()
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.shards,),
            )
            self.telemetry.metrics.counter("pool_events", kind="pool_created").inc()
        except Exception as error:  # pool creation can fail in sandboxes
            logger.warning("worker pool unavailable (%s); using serial counting", error)
            self.telemetry.metrics.counter("pool_events", kind="pool_unavailable").inc()
            self._pool_broken = True
            self._pool = None
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down after a failure; the segment goes with it."""
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
        finally:
            self._pool_broken = True
            # Degraded counting is serial over the parent's own index;
            # nothing will attach to the segment again.
            self._close_shared_index()

    def close(self) -> None:
        """Shut the pool down and unlink shared memory (idempotent).

        The engine stays usable after ``close()``: the next counting
        batch lazily rebuilds whatever it needs.
        """
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
        finally:
            self._close_shared_index()
            self._shards = None

    def __enter__(self) -> "ParallelCountingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:  # replint: disable=RPR006 -- finalizer during interpreter teardown must never raise; the pool is dying with the process anyway
            pass

    # -- counting -------------------------------------------------------------

    def count_cells(self, itemsets: Iterable[Itemset]) -> list[dict[int, int]]:
        """Exact sparse cells for a batch of itemsets, aligned with the input.

        Counted in one sharded batch, or serially — see the class
        docstring for the degradation rules.  Duplicates are counted
        once and share their cells.
        """
        itemsets = list(itemsets)
        ordered = list(dict.fromkeys(itemsets))
        if not ordered:
            return []
        counted = dict(zip(ordered, self._count_batch(ordered)))
        return [counted[itemset] for itemset in itemsets]

    # -- internals ------------------------------------------------------------

    def _count_batch(self, itemsets: Sequence[Itemset]) -> list[dict[int, int]]:
        if self.workers == 1 or self._pool_broken or self.degraded:
            return self._timed_batch("serial", self._count_serial, itemsets)
        if not self._worth_parallel(itemsets):
            return self._timed_batch("serial", self._count_serial, itemsets)
        try:
            return self._timed_batch("parallel", self._count_parallel, itemsets)
        except CountingError as error:
            if not self.fallback_serial:
                raise
            logger.warning("parallel counting failed (%s); falling back to serial", error)
            self.fallbacks += 1
            self.telemetry.metrics.counter("pool_events", kind="fallback").inc()
            self.degraded = True
            return self._timed_batch("serial", self._count_serial, itemsets)

    def _worth_parallel(self, itemsets: Sequence[Itemset]) -> bool:
        """Whether fanning this batch out beats counting it in-process."""
        if HAS_NUMPY:
            # Packed shards cannot count past the int64 cell-id ceiling.
            if any(len(itemset) > _MAX_PACKED_ITEMS for itemset in itemsets):
                self.telemetry.metrics.counter(
                    "pool_events", kind="wide_candidates"
                ).inc()
                return False
        if self.min_parallel_batch == 0:
            return True
        effective = min(self.workers, os.cpu_count() or 1)
        if effective <= 1:
            self.telemetry.metrics.counter(
                "pool_events", kind="undersubscribed"
            ).inc()
            return False
        floor = (
            self.min_parallel_batch
            if self.min_parallel_batch is not None
            else DEFAULT_MIN_PARALLEL_BATCH
        )
        if len(itemsets) < floor:
            self.telemetry.metrics.counter("pool_events", kind="small_batch").inc()
            return False
        parallel_unit = self._mode_unit["parallel"]
        serial_unit = self._mode_unit["serial"]
        if parallel_unit is None:
            return True  # never measured: probe the pool
        if serial_unit is not None and serial_unit <= parallel_unit:
            self._settled_serial += 1
            if self._settled_serial % _REPROBE_EVERY == 0:
                return True
            self.telemetry.metrics.counter(
                "pool_events", kind="adaptive_serial"
            ).inc()
            return False
        return True

    def _timed_batch(self, mode, count, itemsets: Sequence[Itemset]) -> list[dict[int, int]]:
        """Run one counting batch under a span + duration histogram."""
        with self.telemetry.tracer.span(
            "count.batch", mode=mode, n_itemsets=len(itemsets)
        ) as batch_span:
            counted = count(itemsets)
        self.telemetry.metrics.histogram("count_batch_seconds", mode=mode).observe(
            batch_span.duration
        )
        unit = batch_span.duration / max(1, len(itemsets))
        previous = self._mode_unit.get(mode)
        self._mode_unit[mode] = (
            unit if previous is None else 0.3 * unit + 0.7 * previous
        )
        return counted

    def _count_serial(self, itemsets: Sequence[Itemset]) -> list[dict[int, int]]:
        """In-process counting over the full database (the reference path)."""
        self.serial_batches += 1
        self.telemetry.metrics.counter("pool_events", kind="serial_batch").inc()
        return count_cells_batch(self.db, itemsets, metrics=self.telemetry.metrics)

    def _count_parallel(self, itemsets: Sequence[Itemset]) -> list[dict[int, int]]:
        """One task per shard, merged by the shard-sum identity."""
        pool = self._ensure_pool()
        if pool is None:
            raise CountingError("worker pool could not be created")
        metrics = self.telemetry.metrics
        clock = self.telemetry.clock
        candidates = [itemset.items for itemset in itemsets]
        # Deadlines stay on the real monotonic clock on purpose: a hung
        # worker must still time out when tests inject a FakeClock.
        deadline = (
            time.monotonic() + self.task_timeout  # replint: disable=RPR013 -- pool timeouts must track real elapsed time even under an injected FakeClock
            if self.task_timeout is not None
            else None
        )
        try:
            dispatched_at = clock()
            pending = [
                pool.apply_async(_count_task, (shard.index, candidates))
                for shard in self.shards
            ]
            self.tasks_dispatched += len(pending)
            metrics.counter("pool_events", kind="task_dispatched").inc(len(pending))
            per_shard: list[list[dict[int, int]]] = []
            for shard, result in zip(self.shards, pending):
                if deadline is None:
                    counts, worker_snapshot = result.get()
                else:
                    remaining = deadline - time.monotonic()  # replint: disable=RPR013 -- pool timeouts must track real elapsed time even under an injected FakeClock
                    if remaining <= 0:
                        raise multiprocessing.TimeoutError
                    counts, worker_snapshot = result.get(timeout=remaining)
                per_shard.append(counts)
                # The task's worker-side counters (kernel_dispatch,
                # worker_*) fold into the parent
                # registry here, with matching parent-side bookkeeping
                # for Telemetry.reconcile_workers to check against.
                metrics.merge(worker_snapshot)
                metrics.counter("pool_events", kind="task_merged").inc()
                metrics.counter("worker_itemsets_expected").inc(len(candidates))
                # Per-shard wall time is the parent-side dispatch-to-
                # arrival wait (queueing included), not in-worker CPU.
                metrics.histogram("shard_task_seconds", shard=shard.index).observe(
                    clock() - dispatched_at
                )
        except multiprocessing.TimeoutError:
            self._discard_pool()
            metrics.counter("pool_events", kind="failure").inc()
            raise CountingError(
                f"counting batch exceeded task_timeout={self.task_timeout}s "
                f"(shard hung or pool starved)"
            ) from None
        except CountingError:
            raise
        except Exception as error:
            self._discard_pool()
            metrics.counter("pool_events", kind="failure").inc()
            raise CountingError(f"worker failed while counting: {error}") from error
        self.parallel_batches += 1
        metrics.counter("pool_events", kind="parallel_batch").inc()
        return merge_shard_counts(per_shard)
