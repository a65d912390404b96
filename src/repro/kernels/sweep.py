"""Batched closed-form sweeps for level-2 and level-3 candidates.

The miner's wall-clock is dominated by the lowest lattice levels, where
candidate counts are largest.  Instead of one Python big-int AND +
``bit_count()`` per candidate, these kernels count *every* candidate of
a level in a handful of vectorized passes: gather the candidates' bitmap
rows, AND them row-broadcast, popcount, sum along the word axis — then
fill the remaining cells from the marginals by the closed forms the
pure-Python ``_cells_pair`` / ``_cells_triple`` kernels use, so counts
are bit-identical by construction.

Row blocks are processed in chunks of at most :data:`CHUNK_WORDS` words
so peak scratch memory stays bounded (~2 x 16 MiB at the default) no
matter how many candidates a level has.
"""

from __future__ import annotations

from repro.kernels.packed import PackedBitmapIndex, popcount

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = [
    "CHUNK_WORDS",
    "count_pairs_batch",
    "count_triples_batch",
    "pair_supports",
]

# Upper bound on uint64 words materialised per intermediate array.
CHUNK_WORDS = 1 << 21

# Basket-chunk cap for the Gram-matrix path: float32 products of 0/1
# bits stay exact integers while a partial sum fits 2^24, i.e. for
# chunks of at most 2^24 baskets (= 2^18 words); per-chunk sums are
# then accumulated exactly in float64.
_GRAM_CHUNK_WORDS = 1 << 18


def _chunked_and_popcount(index: PackedBitmapIndex, id_arrays, out) -> None:
    """``out[i] = |AND of rows id_arrays[0][i], id_arrays[1][i], ...|``.

    The innermost loop of both sweeps: intersects the rows selected by
    each id array (all the same length) chunk by chunk and writes the
    per-candidate popcount sums into ``out``.
    """
    total = out.shape[0]
    width = max(1, index.n_words)
    step = max(1, CHUNK_WORDS // width)
    packed = index.packed
    for start in range(0, total, step):
        stop = min(start + step, total)
        block = packed[id_arrays[0][start:stop]]
        for ids in id_arrays[1:]:
            block = block & packed[ids[start:stop]]
        out[start:stop] = popcount(block).sum(axis=1, dtype=np.int64)


def _sparse_rows(cell_ids, rows) -> list[dict[int, int]]:
    """One sparse cell dict per row of counts, zero cells dropped.

    ``rows`` holds each candidate's counts in ``cell_ids`` order; the
    dicts match the sparse dicts of the Python kernels.
    """
    return [{cell: count for cell, count in zip(cell_ids, row) if count} for row in rows]


def _gram_supports(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """All pair supports at once via a blocked Gram matrix.

    Unpack the distinct items' rows to a 0/1 matrix ``B`` and compute
    ``B @ B.T``: entry ``(i, j)`` is exactly ``|bitmap_i AND bitmap_j|``.
    The matmul runs in BLAS, which beats per-pair AND + popcount by an
    order of magnitude once the candidate pairs cover a dense fraction
    of the item-pair square.  Padding bits past ``n_baskets`` are zero
    in every row, so they add nothing to any product.

    Exactness: 0/1 products summed over at most ``2^24`` baskets per
    chunk are exact in float32; chunk sums are accumulated in float64
    (exact up to ``2^53``), then rounded-trip to int64.
    """
    distinct, inverse = np.unique(ids, return_inverse=True)
    inverse = inverse.reshape(ids.shape)
    rows = index.packed[distinct]
    d = distinct.size
    gram = np.zeros((d, d), dtype=np.float64)
    step = max(1, min(_GRAM_CHUNK_WORDS, CHUNK_WORDS // max(1, d)))
    for start in range(0, rows.shape[1], step):
        block = np.ascontiguousarray(rows[:, start : start + step])
        bits = np.unpackbits(block.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        b = bits.astype(np.float32)
        gram += (b @ b.T).astype(np.float64)
    return gram[inverse[:, 0], inverse[:, 1]].astype(np.int64)


def pair_supports(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """``|bitmap_a AND bitmap_b|`` for every row of the ``(n, 2)`` id array.

    Routes between the two level-2 strategies: candidate sets covering a
    dense fraction of the distinct-item pair square go through the
    Gram-matrix matmul, sparse ones through chunked row-gather AND +
    popcount (gathering only the rows actually probed).
    """
    n_pairs = ids.shape[0]
    d = np.unique(ids).size
    # The matmul wins once the candidate set is both dense in the pair
    # square AND large enough to amortise the unpack + GEMM setup;
    # small batches (census-sized item spaces) gather faster.
    if d >= 32 and 4 * n_pairs >= d * d:
        return _gram_supports(index, ids)
    both = np.empty(n_pairs, dtype=np.int64)
    _chunked_and_popcount(index, (ids[:, 0], ids[:, 1]), both)
    return both


def count_pairs_batch(
    index: PackedBitmapIndex, pairs
) -> list[dict[int, int]]:
    """Sparse 4-cell counts for a batch of item pairs, one vectorized pass.

    The batched sweep gives the both-present cell for every pair; the
    other three cells follow from the item marginals in closed form:
    ``O(a ~b) = O(a) - O(ab)``, ``O(~a b) = O(b) - O(ab)``,
    ``O(~a ~b) = n - O(a) - O(b) + O(ab)``.
    """
    if len(pairs) == 0:
        return []
    ids = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    both = pair_supports(index, ids)
    count_a = index.counts[ids[:, 0]]
    count_b = index.counts[ids[:, 1]]
    only_a = count_a - both
    only_b = count_b - both
    neither = index.n_baskets - count_a - count_b + both
    rows = zip(both.tolist(), only_a.tolist(), only_b.tolist(), neither.tolist())
    return _sparse_rows((0b11, 0b01, 0b10, 0b00), rows)


def count_triples_batch(
    index: PackedBitmapIndex, triples
) -> list[dict[int, int]]:
    """Sparse 8-cell counts for a batch of item triples.

    One batched pair sweep (ab, ac, bc stacked), one 3-way AND +
    popcount pass (abc), and the same inclusion-exclusion fill as the
    pure-Python ``_cells_triple``.
    """
    if len(triples) == 0:
        return []
    n_triples = len(triples)
    ids = np.asarray(triples, dtype=np.intp).reshape(n_triples, 3)
    a, b, c = ids[:, 0], ids[:, 1], ids[:, 2]
    # The three pair supports go through pair_supports so dense triple
    # batches (whose ab/ac/bc pairs tile the item square) get the
    # Gram-matrix path; only the 3-way AND needs a dedicated pass.
    stacked = np.concatenate([ids[:, 0:2], ids[:, 0:3:2], ids[:, 1:3]], axis=0)
    pair = pair_supports(index, stacked)
    n_ab = pair[:n_triples]
    n_ac = pair[n_triples : 2 * n_triples]
    n_bc = pair[2 * n_triples :]
    n_abc = np.empty(n_triples, dtype=np.int64)
    _chunked_and_popcount(index, (a, b, c), n_abc)

    n_a = index.counts[a]
    n_b = index.counts[b]
    n_c = index.counts[c]
    n = index.n_baskets
    cells = {
        0b111: n_abc,
        0b011: n_ab - n_abc,
        0b101: n_ac - n_abc,
        0b110: n_bc - n_abc,
        0b001: n_a - n_ab - n_ac + n_abc,
        0b010: n_b - n_ab - n_bc + n_abc,
        0b100: n_c - n_ac - n_bc + n_abc,
        0b000: n - n_a - n_b - n_c + n_ab + n_ac + n_bc - n_abc,
    }
    rows = zip(*(column.tolist() for column in cells.values()))
    return _sparse_rows(tuple(cells), rows)
