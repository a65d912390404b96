"""Differential backend-equivalence harness.

The miner exposes two hash-table backends (``dict``, ``fks``) and the
counting backends of :data:`repro.counting.BACKENDS`.  Every
combination implements the *same* Figure 1 algorithm, so on any
database they must produce identical ``SIG`` borders, statistics, level
stats, and supported-uncorrelated sets — with the default chi-squared,
the G statistic and §3.3's small-cell policy alike — and the cells every
backend counts must match a brute-force ``2^m``-cell enumerator that
classifies each basket into its presence/absence cell by definition.  The blocked
level-k and basket-major scan kernels are additionally pinned
bit-identical on probes up to ``k = 5`` and on every 4-, 5- and
6-itemset of a deterministic database whose mine reaches levels 4-6 —
the general level-k kernels' territory.

Randomised databases come from Hypothesis when it is installed and from
a seeded pure-``random`` generator otherwise, so the harness runs in
minimal environments too; without NumPy the vectorized paths fall back
to the pure-Python kernels and the assertions still hold.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.contingency import ContingencyTable, count_cells
from repro.core.correlation import CorrelationTest
from repro.core.itemsets import Itemset
from repro.counting import BACKENDS, open_backend
from repro.data.basket import BasketDatabase
from repro.kernels import HAS_NUMPY
from repro.measures.cellsupport import CellSupport, level1_pair_may_have_support

try:
    import hypothesis.strategies as st
    from hypothesis import given, settings

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in minimal installs
    HAS_HYPOTHESIS = False

TABLE_BACKENDS = ("dict", "fks")
COUNTING_BACKENDS = tuple(BACKENDS)

SIGNIFICANCE = 0.95
SUPPORT = CellSupport(count=2, fraction=0.3)

# Miner inputs every backend must honour bit for bit.  The default
# decides on the counted cells; the G statistic and §3.3's small-cell
# policy decide on a table built for every supported candidate.
MINER_KNOBS = ({}, {"statistic": "g"}, {"min_expected_cell": 5.0})


# -- the brute-force 2^m-cell enumerator -------------------------------------


def brute_force_cells(db: BasketDatabase, itemset: Itemset) -> dict[int, int]:
    """Enumerate all ``2^m`` cells and count each by direct classification.

    Deliberately naive: no bitmaps, no Möbius inversion, no sharing —
    every basket is matched against every cell's exact presence/absence
    pattern.  This is the ground truth the optimised kernels must equal.
    """
    items = itemset.items
    m = len(items)
    counts: dict[int, int] = {}
    for cell in range(1 << m):
        matched = 0
        for basket in db:
            ok = True
            for j in range(m):
                present = items[j] in basket
                if present != bool((cell >> j) & 1):
                    ok = False
                    break
            if ok:
                matched += 1
        if matched:
            counts[cell] = matched
    return counts


def reference_mine(db: BasketDatabase) -> tuple[list[Itemset], list[Itemset]]:
    """An independent, structure-free Figure 1: plain sets + brute force.

    Returns ``(SIG, NOTSIG)`` as sorted itemset lists.  Shares only the
    statistic implementation with the real miner — candidate generation,
    membership structures, and counting are all reimplemented naively.
    """
    test = CorrelationTest(significance=SIGNIFICANCE)
    n = db.n_baskets
    counts = db.item_counts()
    items = list(db.vocabulary.ids())
    candidates = [
        Itemset(pair)
        for pair in combinations(items, 2)
        if level1_pair_may_have_support(counts[pair[0]], counts[pair[1]], n, SUPPORT)
    ]
    sig: list[Itemset] = []
    notsig: list[Itemset] = []
    level = 2
    while candidates:
        new_notsig: set[Itemset] = set()
        for candidate in candidates:
            table = ContingencyTable(candidate, brute_force_cells(db, candidate), n=n)
            if not SUPPORT(table):
                continue
            if test.statistic(table) >= test.cutoff:
                sig.append(candidate)
            else:
                new_notsig.add(candidate)
        notsig.extend(new_notsig)
        level += 1
        candidates = sorted(
            {
                a | b
                for a in new_notsig
                for b in new_notsig
                if len(a | b) == level
            }
        )
        candidates = [
            c
            for c in candidates
            if all(Itemset(sub) in new_notsig for sub in combinations(c.items, level - 1))
        ]
    return sorted(sig), sorted(notsig)


# -- database generation ------------------------------------------------------


def random_baskets(rng: random.Random, n_items: int, n_baskets: int) -> list[list[int]]:
    density = rng.uniform(0.1, 0.7)
    return [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_baskets)
    ]


def _signature(result):
    """Everything a refactor could silently change, in comparable form.

    Rules are sorted by itemset: discovery order within a level is
    deterministic, but the level-``i+1`` candidate order follows the
    NOTSIG table's iteration order, which the hash backends are free to
    choose differently.
    """
    rules = sorted(result.rules, key=lambda rule: rule.itemset)
    return (
        [rule.itemset for rule in rules],
        [rule.statistic for rule in rules],
        [dict(rule.table.nonzero_counts()) for rule in rules],
        result.border,
        list(result.level_stats),
        list(result.supported_uncorrelated),
        result.items_examined,
    )


def assert_all_backends_agree(baskets: list[list[int]], n_items: int) -> None:
    db = BasketDatabase.from_id_baskets(baskets, n_items=n_items)
    if db.n_baskets == 0:
        return

    for knobs in MINER_KNOBS:
        reference = None
        for table_backend in TABLE_BACKENDS:
            for counting in COUNTING_BACKENDS:
                miner = ChiSquaredSupportMiner(
                    significance=SIGNIFICANCE,
                    support=SUPPORT,
                    table_backend=table_backend,
                    counting=counting,
                    workers=1,  # in-process: keeps the property loop fast
                    **knobs,
                )
                signature = _signature(miner.mine(db))
                if reference is None:
                    reference = signature
                    continue
                assert signature == reference, (knobs, table_backend, counting)
        if not knobs:
            default = reference

    reference = default
    assert reference is not None
    sig_itemsets, notsig_itemsets = reference_mine(db)
    assert reference[0] == sig_itemsets
    assert sorted(reference[5]) == notsig_itemsets

    # Every counting construction path equals the brute-force enumerator,
    # on the discovered itemsets and on probes none of the miners kept.
    probes = list(reference[0]) + [
        Itemset(pair) for pair in combinations(range(min(n_items, 4)), 2)
    ]
    # Wider probes exercise the general level-k kernels (k >= 4), not
    # just the closed-form pair/triple sweeps.
    for width in (4, 5):
        probes.extend(
            Itemset(combo) for combo in combinations(range(min(n_items, 5)), width)
        )
    probes = sorted(set(probes))
    if not probes:
        return
    counted = {}
    for counting in COUNTING_BACKENDS:
        backend = open_backend(counting, db, workers=1)
        try:
            counted[counting] = backend.count_cells(probes)
        finally:
            backend.close()
    for slot, probe in enumerate(probes):
        expected = brute_force_cells(db, probe)
        assert count_cells(db, probe) == expected, probe
        for counting, cells in counted.items():
            assert cells[slot] == expected, (counting, probe)
        if HAS_NUMPY:
            # The wide-itemset kernels, called directly at every width.
            for label, cells in _direct_kernel_cells(db, probe):
                assert cells == expected, (label, probe)


def _direct_kernel_cells(db: BasketDatabase, itemset: Itemset):
    """``(kernel, cells)`` of the blocked and scan kernels for one itemset."""
    from repro.kernels.blocked import count_cells_blocked
    from repro.kernels.scan import count_cells_scan

    index = db.packed_index()
    yield "blocked", count_cells_blocked(index, [itemset.items])[0]
    yield "scan", count_cells_scan(index, itemset.items)


# -- test entry points --------------------------------------------------------

if HAS_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n_items: st.tuples(
                st.just(n_items),
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=n_items - 1),
                        max_size=n_items,
                    ),
                    min_size=4,
                    max_size=60,
                ),
            )
        )
    )
    def test_backends_agree_on_random_databases(params):
        n_items, baskets = params
        assert_all_backends_agree(baskets, n_items)

else:  # pragma: no cover - pure-random fallback for minimal environments

    @pytest.mark.parametrize("seed", range(20))
    def test_backends_agree_on_random_databases(seed):
        rng = random.Random(0xBEEF00 + seed)
        n_items = rng.randint(2, 5)
        baskets = random_baskets(rng, n_items, rng.randint(4, 60))
        assert_all_backends_agree(baskets, n_items)


def test_backends_agree_on_adversarial_shapes():
    """Hand-picked degenerate shapes every backend must survive."""
    cases = [
        ([[0, 1]] * 10, 2),  # perfectly dependent pair
        ([[0], [1]] * 10, 2),  # perfectly anti-dependent pair
        ([[0, 1, 2, 3]] * 6 + [[]] * 6, 4),  # all-or-nothing
        ([[]] * 8, 3),  # empty baskets only
        ([[0]] * 9, 1),  # single-item vocabulary: no pairs at all
        ([[0, 1], [1, 2], [0, 2]] * 7, 3),  # pairwise triangle
    ]
    for baskets, n_items in cases:
        assert_all_backends_agree(baskets, n_items)


# Seven near-independent coin-flip items with a permissive support
# threshold and a very strict significance cutoff keep NOTSIG full
# through level 5, so a mine genuinely counts 4-, 5- and 6-itemsets —
# the general level-k kernel territory, past the closed-form pair and
# triple sweeps.
DEEP_PARAMS = dict(
    significance=0.9999999,
    support=CellSupport(count=1, fraction=0.05),
    max_level=6,
)


def deep_db() -> BasketDatabase:
    rng = random.Random(60697)
    baskets = [[i for i in range(7) if rng.random() < 0.5] for _ in range(120)]
    return BasketDatabase.from_id_baskets(baskets, n_items=7)


def test_deep_levels_agree_across_backends_and_kernels():
    """All backends agree on a k=4..6 mining run; so do the level-k kernels."""
    db = deep_db()
    reference = _signature(
        ChiSquaredSupportMiner(counting="bitmap", **DEEP_PARAMS).mine(db)
    )
    levels = {stats.level for stats in reference[4] if stats.candidates}
    assert {4, 5, 6} <= levels, "the run must actually reach levels 4-6"

    for knobs in MINER_KNOBS:
        knob_reference = None
        for counting in COUNTING_BACKENDS:
            signature = _signature(
                ChiSquaredSupportMiner(counting=counting, **DEEP_PARAMS, **knobs).mine(db)
            )
            if not knobs:
                assert signature == reference, counting
            elif knob_reference is None:
                knob_reference = signature
            else:
                assert signature == knob_reference, (knobs, counting)

    if HAS_NUMPY:
        for width in (4, 5, 6):
            for items in combinations(range(7), width):
                itemset = Itemset(items)
                expected = count_cells(db, itemset)
                for label, cells in _direct_kernel_cells(db, itemset):
                    assert cells == expected, (label, itemset)


@pytest.mark.skipif(not HAS_NUMPY, reason="kernel routing needs NumPy kernels")
def test_blocked_kernel_handles_deep_levels_without_fallback():
    """A vectorized mine counts every 4..6-itemset with the blocked kernel.

    The ``kernel_dispatch`` counters record which kernel counted each
    candidate; a ``scan`` or ``fallback`` entry would mean a level-k
    batch left the blocked kernel.
    """
    from repro.obs import Telemetry

    telemetry = Telemetry.create()
    result = ChiSquaredSupportMiner(
        counting="vectorized", telemetry=telemetry, **DEEP_PARAMS
    ).mine(deep_db())
    deep = sum(stats.candidates for stats in result.level_stats if stats.level >= 4)
    assert deep, "the run must reach levels 4-6"
    dispatch = telemetry.metrics.series("kernel_dispatch")
    assert dispatch['kernel_dispatch{path="blocked"}'] == deep
    assert not any('"scan"' in key or '"fallback"' in key for key in dispatch), dispatch


@pytest.mark.slow
def test_backends_agree_with_real_worker_pool():
    """The multi-process path (workers=4) agrees with every serial backend.

    With NumPy installed the shards are shared-memory slices counted by
    the vectorized kernels, across real worker processes.
    """
    rng = random.Random(1997)
    baskets = random_baskets(rng, 8, 400)
    db = BasketDatabase.from_id_baskets(baskets, n_items=8)
    serial = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="bitmap"
    ).mine(db)
    vectorized = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="vectorized"
    ).mine(db)
    parallel = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="parallel", workers=4
    ).mine(db)
    assert _signature(vectorized) == _signature(serial)
    assert _signature(parallel) == _signature(serial)
