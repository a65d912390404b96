"""The counting-backend registry (`repro.counting`).

Figure 1 of the paper needs one thing from its counting layer: the
contingency-table cells of every candidate at a level.  §4 names two
ways to get them — per-candidate vertical bitmaps, or one database pass
per level — and the repository adds three more.  Each is a
:class:`CountingBackend`: ``count_cells(candidates)`` returns the exact
sparse cells (cell index -> non-zero integer count) of every candidate,
aligned with ``candidates``; ``close()`` releases whatever the backend
holds (a worker pool, a shared-memory segment).  The miner decides on
the cells and builds a :class:`~repro.core.contingency.ContingencyTable`
only for the itemsets it reports.  :data:`BACKENDS` maps every backend
name to its factory; the batch miner, the CLI and the tests all read
their backend list from it.  The incremental miner counts through none
of them: an append sums exact cells from
:func:`~repro.core.contingency.count_cells`.

* ``bitmap`` — per-candidate bitmap intersection plus Möbius inversion
  (:func:`~repro.core.contingency.count_cells`);
* ``single_pass`` — one scan per level counting every candidate at
  once, the paper's alternative and the only option for streaming data;
* ``vectorized`` — the NumPy packed-bitmap kernels of
  :mod:`repro.kernels` (pure-Python fallback without NumPy);
* ``parallel`` — the sharded multi-process engine of
  :mod:`repro.parallel`, whose shards run the vectorized kernels;
* ``fptree`` — one ancestor-chain sweep of an FP-tree for the pairs,
  bitmaps above level 2 (:mod:`repro.fptree`).

Every backend produces bit-identical cells; the differential
backend-equivalence suite holds them to that.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Protocol

from repro.core.contingency import count_cells, count_cells_single_pass
from repro.core.itemsets import Itemset
from repro.obs import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.basket import BasketDatabase
    from repro.obs import Telemetry

__all__ = ["BACKENDS", "CountingBackend", "check_backend", "open_backend"]


class CountingBackend(Protocol):
    """What the miners need from a counting strategy."""

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        """The exact sparse cells of every candidate, aligned with ``candidates``."""
        ...

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        ...


class _BitmapBackend:
    """Per-candidate bitmap counting over the database's vertical index."""

    def __init__(self, db: "BasketDatabase", *, workers=None, telemetry=None) -> None:
        self.db = db

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        db = self.db
        return [count_cells(db, candidate) for candidate in candidates]

    def close(self) -> None:
        return None


class _SinglePassBackend(_BitmapBackend):
    """One database pass per level (§4's alternative)."""

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        return count_cells_single_pass(self.db, candidates)


class _VectorizedBackend:
    """Batched NumPy sweeps over the packed bitmap index."""

    def __init__(self, db: "BasketDatabase", *, workers=None, telemetry=None) -> None:
        self.db = db
        self.metrics = (telemetry if telemetry is not None else NULL_TELEMETRY).metrics

    def count_cells(self, candidates: Sequence[Itemset]) -> list[dict[int, int]]:
        from repro.kernels import count_cells_batch

        return count_cells_batch(self.db, candidates, metrics=self.metrics)

    def close(self) -> None:
        return None


def _parallel(db: "BasketDatabase", *, workers=None, telemetry=None) -> CountingBackend:
    from repro.parallel import ParallelCountingEngine

    return ParallelCountingEngine(db, workers=workers, telemetry=telemetry)


def _fptree(db: "BasketDatabase", *, workers=None, telemetry=None) -> CountingBackend:
    from repro.fptree import FPTreePairEngine

    return FPTreePairEngine(db, telemetry=telemetry)


BACKENDS: dict[str, Callable[..., CountingBackend]] = {
    "bitmap": _BitmapBackend,
    "single_pass": _SinglePassBackend,
    "vectorized": _VectorizedBackend,
    "parallel": _parallel,
    "fptree": _fptree,
}


def check_backend(name: str) -> str:
    """``name`` if it is a registered backend; ``ValueError`` otherwise."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown counting backend {name!r}; "
            f"expected one of {', '.join(sorted(BACKENDS))}"
        )
    return name


def open_backend(
    name: str,
    db: "BasketDatabase",
    *,
    workers: int | None = None,
    telemetry: "Telemetry | None" = None,
) -> CountingBackend:
    """A fresh backend ``name`` over ``db``; the caller must close it.

    ``workers`` sizes the parallel backend's pool; the serial backends
    ignore it.  ``telemetry`` receives the backend's own spans and
    counters (kernel dispatch, pool events, FP-tree build).
    """
    return BACKENDS[check_backend(name)](db, workers=workers, telemetry=telemetry)
