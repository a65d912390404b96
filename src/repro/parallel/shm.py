"""Zero-copy shared-memory transport for the packed bitmap index.

The pickle path ships every shard's basket tuples to each worker at
pool-init time — O(database) bytes serialised per worker, then each
worker re-packs its own bitmaps.  This module replaces that with one
copy total: the parent materialises the database's
:class:`~repro.kernels.packed.PackedBitmapIndex` into a
``multiprocessing.shared_memory`` segment, and workers attach by name
and build NumPy views over the shared buffer.  A worker's shard is then
nothing but a *word range* — because shard boundaries fall on 64-basket
word boundaries, a shard-local index is a zero-copy column slice
``packed[:, w0:w1]`` of the shared matrix, and the shard-merge identity
(cell counts sum over row shards) holds exactly as for pickled shards.

Ownership and cleanup: the parent-side :class:`SharedPackedIndex` is
the sole owner of the segment.  It unlinks in :meth:`close` (idempotent,
called from the engine's ``close()``/``__exit__`` and from the engine's
pool-failure path, so crash and timeout recovery release the segment),
and registers an ``atexit`` backstop for interpreter exit with the
engine still open.  Workers deliberately *unregister* their attachment
from ``multiprocessing.resource_tracker``: Python's tracker registers
shared memory on attach as well as create, and a tracked worker exit
would otherwise unlink the segment out from under its siblings.

Everything here degrades gracefully: when NumPy is missing the engine
never asks for this module, and any failure to create the segment makes
the engine fall back to the pickle path (``pool_events{kind=
"shm_unavailable"}``).
"""

from __future__ import annotations

import atexit
from collections.abc import Sequence
from multiprocessing import resource_tracker, shared_memory
from typing import NamedTuple

from repro.kernels.packed import HAS_NUMPY, PackedBitmapIndex, popcount

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = [
    "PackedShard",
    "SharedIndexSpec",
    "SharedPackedIndex",
    "shard_shared_index",
]


class SharedIndexSpec(NamedTuple):
    """The picklable coordinates of a shared packed index.

    Everything a worker needs to rebuild a view: the segment name plus
    the matrix shape.  The dtype is always ``uint64`` (the packed word
    format) and the per-item counts are recomputed per shard slice, so
    they never travel.
    """

    name: str
    n_items: int
    n_words: int
    n_baskets: int


class SharedPackedIndex:
    """Parent-side owner of a packed index in a shared-memory segment.

    Copies ``index.packed`` into a freshly created segment once;
    :attr:`spec` is what travels to workers.  The owner is a context
    manager and :meth:`close` is idempotent — close + unlink exactly
    once, with an ``atexit`` backstop for paths that never reach a
    ``finally``.
    """

    def __init__(self, index: PackedBitmapIndex) -> None:
        if not HAS_NUMPY:
            raise RuntimeError("shared-memory counting requires numpy")
        packed = index.packed
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, packed.nbytes)
        )
        try:
            view = np.ndarray(packed.shape, dtype=np.uint64, buffer=self._shm.buf)
            view[:] = packed
            del view
            self.spec = SharedIndexSpec(
                self._shm.name, packed.shape[0], packed.shape[1], index.n_baskets
            )
        except BaseException:
            self._shm.close()
            self._shm.unlink()
            raise
        self._closed = False
        atexit.register(self.close)

    @property
    def name(self) -> str:
        """The shared-memory segment name workers attach to."""
        return self.spec.name

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # replint: disable=RPR006 -- unlink racing another cleanup path (atexit vs close) is benign; the segment is already gone
                pass

    def __enter__(self) -> "SharedPackedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"SharedPackedIndex(name={self.spec.name!r}, {state})"


# Worker-side attachment caches: one segment handle per name, one
# shard-local index per (name, word range).  Process-lifetime state —
# the OS reclaims the mappings when the worker exits; the parent owns
# the segment itself.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_LOCAL_INDEXES: dict[tuple[str, int, int], PackedBitmapIndex] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering as its owner.

    Python (< 3.13) registers shared memory with the resource tracker on
    *attach* as well as create, so an attaching worker's exit would
    unlink the segment out from under the parent and its siblings.
    Python 3.13 grew ``track=False`` for exactly this; on older versions
    the registration is suppressed for the duration of the attach (the
    worker is single-threaded at attach time, so this is race-free).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13 has no track= parameter: suppress the tracker's
        # register for the duration of the attach instead.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _attached_index(
    spec: SharedIndexSpec, word_start: int, word_stop: int, n_local: int
) -> PackedBitmapIndex:
    """A shard-local index over a zero-copy slice of the shared matrix."""
    key = (spec.name, word_start, word_stop)
    cached = _LOCAL_INDEXES.get(key)
    if cached is not None:
        return cached
    handle = _ATTACHED.get(spec.name)
    if handle is None:
        handle = _attach_untracked(spec.name)
        _ATTACHED[spec.name] = handle
    full = np.ndarray(
        (spec.n_items, spec.n_words), dtype=np.uint64, buffer=handle.buf
    )
    local = full[:, word_start:word_stop]
    counts = popcount(local).sum(axis=1, dtype=np.int64)
    index = PackedBitmapIndex(local, counts, n_local)
    _LOCAL_INDEXES[key] = index
    return index


class PackedShard:
    """A word-aligned shard of a shared packed index.

    Duck-types :class:`repro.parallel.sharding.Shard` for the engine —
    same ``index``/``start``/``n_baskets``/``count_cells`` surface —
    but its pickled form is just the :class:`SharedIndexSpec` plus a
    word range: attaching workers never receive basket data at all.
    Counting runs :func:`repro.kernels.count_cells_batch_packed` over
    the shard's column slice, so the width routing happens per shard
    exactly as it does serially.

    ``fault`` is the same failure-injection hook as on
    :class:`Shard` so the resilience tests cover this path too.
    """

    __slots__ = (
        "index",
        "spec",
        "word_start",
        "word_stop",
        "start",
        "_n_baskets",
        "fault",
        "_local",
    )

    def __init__(
        self,
        index: int,
        spec: SharedIndexSpec,
        word_start: int,
        word_stop: int,
        fault: str | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.word_start = word_start
        self.word_stop = word_stop
        self.start = word_start * 64
        self._n_baskets = max(
            0, min(spec.n_baskets, word_stop * 64) - self.start
        )
        self.fault = fault
        self._local: PackedBitmapIndex | None = None

    # -- pickling (exclude the attached local index) --------------------------

    def __getstate__(self) -> tuple:
        return (
            self.index,
            self.spec,
            self.word_start,
            self.word_stop,
            self.fault,
        )

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    # -- counting -------------------------------------------------------------

    @property
    def n_baskets(self) -> int:
        """Number of baskets covered by this shard's word range."""
        return self._n_baskets

    def local_index(self) -> PackedBitmapIndex:
        """The shard's zero-copy index slice (attached once per worker)."""
        if self._local is None:
            self._local = _attached_index(
                self.spec, self.word_start, self.word_stop, self._n_baskets
            )
        return self._local

    def count_cells(
        self, candidates: Sequence[tuple[int, ...]], metrics=None
    ) -> list[dict[int, int]]:
        """Sparse shard-local cell counts, one dict per candidate.

        ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
        worker-side ``kernel_dispatch`` counters for this task; the caller
        ships its snapshot back to the parent.
        """
        if self.fault == "crash":
            raise RuntimeError(f"injected crash in shard {self.index}")
        if self.fault == "hang":  # pragma: no cover - timing-dependent
            import time

            time.sleep(30.0)
        from repro.kernels import count_cells_batch_packed

        record = None
        if metrics is not None:
            def record(path: str, n: int) -> None:
                metrics.counter("kernel_dispatch", path=path).inc(n)
        return count_cells_batch_packed(self.local_index(), candidates, record=record)

    def __repr__(self) -> str:
        return (
            f"PackedShard(index={self.index}, words=[{self.word_start}, "
            f"{self.word_stop}), baskets={self._n_baskets})"
        )


def shard_shared_index(shared: SharedPackedIndex, n_shards: int) -> list[PackedShard]:
    """Partition a shared index into word-aligned column shards.

    Word ranges differ by at most one word, never overlap, and cover
    ``[0, n_words)`` in order — the same determinism contract as
    :func:`repro.parallel.sharding.shard_database`, with boundaries
    rounded to 64-basket words so every shard is a zero-copy slice.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    spec = shared.spec
    n_words = spec.n_words
    n_shards = min(n_shards, max(n_words, 1))
    base, extra = divmod(n_words, n_shards)
    shards: list[PackedShard] = []
    word = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(PackedShard(index, spec, word, word + size))
        word += size
    return shards
