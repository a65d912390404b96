"""Mining workloads: batch mines per backend, top-K, appends, point queries.

One run sets its workload up, builds the references for every check,
loads the database into an :class:`~repro.core.mining.IncrementalMiner`,
and then repeats rounds until ``--seconds`` have passed.  A round mines
the database once with each of the workload's timed backends (the
starting backend rotates), runs one top-K pair search, and answers
``QUERIES_PER_ROUND`` point queries, timing every call.  Spread over the
rounds, the run makes the rest of its ``SETUP_REPEATS`` set-ups and
``APPENDS_PER_RUN`` appends, each of the same 100 baskets to a fresh
copy of the loaded incremental miner.  An append costs up to twice a
mine, so one per round would halve the samples behind every other
metric.  There is no separate warm-up: a repeated call is reported by
its fastest sample, so the first round's first-call costs never reach a
metric.  A traced run (``--trace 1``) replaces the rounds with traced
ones that measure the layers below; see :class:`LayerSamples`.
"""

from __future__ import annotations

import gc
import pickle
import random
import time

from perfsuite.common import (
    SETUP_REPEATS,
    SIGNIFICANCE,
    SUPPORT_COUNT,
    SUPPORT_FRACTION,
    TOPK_K,
    TOPK_MIN_COOCCURRENCE,
    Outcome,
    Spread,
    floor,
    median,
    peak_rss_mb,
    ratio,
    run_rounds,
    use_source,
)
from perfsuite.datasets import (
    ALL_BACKENDS,
    PARALLEL_WORKERS,
    MiningWorkload,
    query_stream,
    set_up,
)
from perfsuite.ledger import PHASES, PhaseRecorder, flatten_spans, ledger_consistent, mine_ledger

use_source()

from repro.core.correlation import CorrelationTest  # noqa: E402
from repro.core.itemsets import Itemset  # noqa: E402
from repro.core.mining import IncrementalMiner, correlation_rule, mine_correlations  # noqa: E402
from repro.fptree import FPTreePairEngine  # noqa: E402
from repro.kernels import count_tables_vectorized  # noqa: E402
from repro.obs import Telemetry  # noqa: E402

QUERIES_PER_ROUND = 100
APPEND_SIZE = 100
APPENDS_PER_RUN = 8

# Metrics of layers this kind of workload does not run (it has no server).
SERVICE_ONLY_LAYERS = (
    "setup.server_share",
    "service.write_lock_share",
    "service.itemset_wait_share",
    "http.overhead_share.itemset",
    "http.overhead_share.append",
    "service.itemset_tail_ratio",
    "cache.hit_ratio",
)


def mine(db, backend: str, max_level: int, telemetry=None):
    """One ``mine_correlations`` call with the benchmark's parameters."""
    extra = {"workers": PARALLEL_WORKERS} if backend == "parallel" else {}
    return mine_correlations(
        db,
        significance=SIGNIFICANCE,
        support_count=SUPPORT_COUNT,
        support_fraction=SUPPORT_FRACTION,
        max_level=max_level,
        counting=backend,
        telemetry=telemetry,
        **extra,
    )


def border_of(result) -> list[tuple[tuple[int, ...], float]]:
    """The mined border as sorted ``(items, chi2)`` pairs: what must match."""
    return sorted((rule.itemset.items, rule.statistic) for rule in result.rules)


def top_k(db, telemetry=None, prune: bool = True):
    """A top-K pair search from scratch: build the FP-tree, then sweep it."""
    engine = FPTreePairEngine(db, telemetry=telemetry)
    return engine.top_k(TOPK_K, min_cooccurrence=TOPK_MIN_COOCCURRENCE, prune=prune)


def topk_entries(result) -> list[tuple[tuple[int, ...], float]]:
    return [(entry.itemset.items, entry.statistic) for entry in result.entries]


def timed(call):
    """``(result, seconds)`` of one call, started from a collected heap.

    Collecting first (untimed) means every timed call meets the garbage
    collector in the same state, whatever the previous call left behind;
    the collections the call itself triggers are still timed.
    """
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def expected_statistics(db, pairs) -> dict[tuple[int, int], float]:
    """Chi-squared of each pair, counted by the vectorized kernels.

    Point queries count through the bitmap path, so this is an
    independent count of the same tables.
    """
    test = CorrelationTest(significance=SIGNIFICANCE)
    tables = count_tables_vectorized(db, [Itemset(pair) for pair in set(pairs)])
    return {itemset.items: test.statistic(table) for itemset, table in tables.items()}


class BatchChecker:
    """Mines and top-K searches checked against one reference each.

    Every backend must mine the reference border bit for bit (itemsets
    and chi-squared values), and every pruned top-K search must return
    the entries of an exhaustive (unpruned) one.
    """

    def __init__(self, db, max_level: int, backends: tuple[str, ...], outcome: Outcome) -> None:
        self.db = db
        self.max_level = max_level
        self.backends = backends
        self.outcome = outcome
        reference = mine(db, "bitmap", max_level)
        self.reference = reference
        self.border = border_of(reference)
        self.topk = topk_entries(top_k(db, prune=False))
        self.mine_s: dict[str, list[float]] = {backend: [] for backend in backends}
        self.topk_s: list[float] = []

    def check_mine(self, result, backend: str) -> None:
        self.outcome.check(
            border_of(result) == self.border,
            f"{backend} mined a border different from the bitmap reference",
        )

    def check_topk(self, result) -> None:
        self.outcome.check(
            topk_entries(result) == self.topk,
            "pruned top-K differs from the exhaustive search",
        )

    def timed_round(self, index: int) -> None:
        """Every backend once, starting at a different backend each round."""
        shift = index % len(self.backends)
        for backend in self.backends[shift:] + self.backends[:shift]:
            result, seconds = timed(lambda: mine(self.db, backend, self.max_level))
            self.mine_s[backend].append(seconds)
            self.check_mine(result, backend)
        result, seconds = timed(lambda: top_k(self.db))
        self.topk_s.append(seconds)
        self.check_topk(result)

    def metrics(self) -> dict[str, float]:
        return {
            "mine_s": floor(self.mine_s["bitmap"]),
            "mine_best_s": min(floor(samples) for samples in self.mine_s.values()),
            "topk_s": floor(self.topk_s),
        }


class LoadedWorkload:
    """One mining workload's database with its references and incremental miner."""

    def __init__(self, db, workload: MiningWorkload, seed: int, outcome: Outcome) -> None:
        self.db = db
        self.workload = workload
        self.outcome = outcome
        self.batch = BatchChecker(db, workload.max_level, workload.backends, outcome)
        miner = IncrementalMiner(
            significance=SIGNIFICANCE,
            support_count=SUPPORT_COUNT,
            support_fraction=SUPPORT_FRACTION,
            max_level=workload.max_level,
        )
        miner.append(list(db), numeric=True)
        outcome.check(
            border_of(miner.result) == self.batch.border,
            "incremental load differs from the batch mine",
        )
        # Every timed append extends a fresh copy of the loaded miner by the
        # same batch, so each is the same operation and the fastest of
        # them is a fair estimate (a chain of appends gets cheaper as the
        # database grows, leaving only its last few to compete).
        self._loaded = pickle.dumps(miner, protocol=pickle.HIGHEST_PROTOCOL)
        append_rng = random.Random(f"{seed}:appends")
        self._append_batch = [db[append_rng.randrange(db.n_baskets)] for _ in range(APPEND_SIZE)]
        self._appended: IncrementalMiner | None = None
        self._appended_border: list[tuple[tuple[int, ...], float]] | None = None
        # Uniform pairs: in process there is no table cache for a skew to hit.
        self.queries = query_stream(list(db.vocabulary.ids()), random.Random(f"{seed}:queries"))
        self._next_query = 0
        self.expected = expected_statistics(db, self.queries)
        self.append_s: list[float] = []
        self.query_s: list[float] = []
        self.tables_served = 0
        self.tables_recounted = 0

    def append_round(self) -> None:
        miner = pickle.loads(self._loaded)
        generation = miner.generation
        appended, seconds = timed(lambda: miner.append(self._append_batch, numeric=True))
        self.append_s.append(seconds)
        self.tables_served += appended.tables_served
        self.tables_recounted += appended.tables_recounted
        self.outcome.check(
            appended.generation == generation + 1 and appended.n_appended == APPEND_SIZE,
            f"append at generation {generation} reported {appended.generation}",
        )
        border = border_of(miner.result)
        if self._appended_border is not None:
            self.outcome.check(
                border == self._appended_border, "two copies appended the same batch differently"
            )
        self._appended, self._appended_border = miner, border

    def query_round(self) -> None:
        gc.collect()
        for _ in range(QUERIES_PER_ROUND):
            pair = self.queries[self._next_query % len(self.queries)]
            self._next_query += 1
            start = time.perf_counter()
            rule = correlation_rule(self.db, pair, SIGNIFICANCE)
            self.query_s.append(time.perf_counter() - start)
            self.outcome.check(
                rule.statistic == self.expected[pair],
                f"point query {pair} gave chi2 {rule.statistic}, expected {self.expected[pair]}",
            )

    def verify_incremental(self) -> None:
        """The appended border must equal a cold mine of the grown database."""
        cold = mine(self._appended.db, "bitmap", self.workload.max_level)
        self.outcome.check(
            border_of(cold) == self._appended_border,
            "incremental border differs from a cold mine of the appended database",
        )


class SetUps:
    """The run's set-ups, each generating and indexing the workload's database.

    A call times one set-up and returns its database; the run keeps the
    first one and lets the later ones go as soon as they are timed.
    """

    def __init__(self, workload: MiningWorkload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.total_s: list[float] = []
        self.generate_s: list[float] = []
        self.pack_s: list[float] = []

    def __call__(self):
        gc.collect()
        start = time.perf_counter()
        db, generate_s, pack_s = set_up(self.workload, self.seed)
        self.total_s.append(time.perf_counter() - start)
        self.generate_s.append(generate_s)
        self.pack_s.append(pack_s)
        return db


def spread_calls(set_ups: SetUps, loaded: LoadedWorkload) -> list[Spread]:
    """The later set-ups (the first came before the rounds) and the appends."""
    return [
        Spread(set_ups, SETUP_REPEATS, done=1),
        Spread(loaded.append_round, APPENDS_PER_RUN),
    ]


def run_end_to_end(workload: MiningWorkload, seed: int, seconds: float, outcome: Outcome):
    """The untraced run: ``(metrics, report)``."""
    set_ups = SetUps(workload, seed)
    loaded = LoadedWorkload(set_ups(), workload, seed, outcome)

    def one_round(index: int) -> None:
        loaded.batch.timed_round(index)
        loaded.query_round()

    rounds, elapsed = run_rounds(seconds, one_round, spread_calls(set_ups, loaded))
    loaded.verify_incremental()
    metrics = {
        "setup_s": median(set_ups.total_s),
        **loaded.batch.metrics(),
        "append_ms": 1e3 * floor(loaded.append_s),
        "query_ms": 1e3 * floor(loaded.query_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "rounds": rounds,
        "window_s": elapsed,
        "samples_s": {
            "setup": set_ups.total_s,
            **{f"mine.{b}": s for b, s in loaded.batch.mine_s.items()},
            "topk": loaded.batch.topk_s,
            "append": loaded.append_s,
            "query": loaded.query_s,
        },
    }
    return metrics, report


class LayerSamples:
    """Per-layer samples of traced rounds on one database.

    Each traced round mines once per backend untraced (``counting.*``),
    once with live telemetry only (``obs.live_over_null``), once each
    with bitmap and vectorized under telemetry plus a
    :class:`~perfsuite.ledger.PhaseRecorder` (the ledger), once with
    parallel under telemetry (its pool events), and runs one traced
    top-K search (the FP-tree spans).
    """

    def __init__(self, batch: BatchChecker) -> None:
        self.batch = batch
        self.untraced: dict[str, list[float]] = {b: [] for b in ALL_BACKENDS}
        self.live_s: list[float] = []
        self.traced_s: list[float] = []
        self.ledger_wall: dict[str, list[float]] = {"bitmap": [], "vectorized": []}
        self.phase_sums = {b: dict.fromkeys(PHASES, 0.0) for b in ("bitmap", "vectorized")}
        self.cells = 0
        self.cells_seconds = 0.0
        self.parallel_count_s: list[float] = []
        self.pool_batches = {"parallel_batch": 0, "serial_batch": 0}
        self.build_s: list[float] = []
        self.sweep_s: list[float] = []
        self.pairs_pruned = 0
        self.pairs_discovered = 0
        self.ledgers: list[dict[str, object]] = []
        self.spans: list[dict[str, object]] = []

    def traced_round(self, index: int) -> None:
        batch = self.batch
        db, max_level = batch.db, batch.max_level
        shift = index % len(ALL_BACKENDS)
        for backend in ALL_BACKENDS[shift:] + ALL_BACKENDS[:shift]:
            result, seconds = timed(lambda: mine(db, backend, max_level))
            self.untraced[backend].append(seconds)
            batch.check_mine(result, backend)

        result, seconds = timed(lambda: mine(db, "bitmap", max_level, Telemetry.create()))
        self.live_s.append(seconds)
        batch.check_mine(result, "bitmap")

        self.ledgers = []
        self.spans = []
        for backend in ("bitmap", "vectorized"):
            telemetry = Telemetry.create()
            with PhaseRecorder() as recorder:
                result, seconds = timed(lambda: mine(db, backend, max_level, telemetry))
            if backend == "bitmap":
                self.traced_s.append(seconds)
            batch.check_mine(result, backend)
            ledger = mine_ledger(telemetry.tracer, recorder, result.level_stats)
            batch.outcome.check(
                ledger_consistent(ledger), f"{backend} ledger phases overrun a level's wall time"
            )
            ledger["backend"] = backend
            self.ledgers.append(ledger)
            self.ledger_wall[backend].append(ledger["wall"])
            for phase, value in ledger["phases"].items():
                self.phase_sums[backend][phase] += value
            if backend == "vectorized":
                for level in ledger["levels"]:
                    self.cells += level["candidates"] * 2 ** level["level"]
                    self.cells_seconds += level["count"]
            self.spans.extend(flatten_spans(telemetry.tracer))

        telemetry = Telemetry.create()
        result = mine(db, "parallel", max_level, telemetry)
        batch.check_mine(result, "parallel")
        self.parallel_count_s.append(sum(s.counting_seconds for s in result.level_stats))
        counters = telemetry.metrics.snapshot()["counters"]
        for kind in self.pool_batches:
            self.pool_batches[kind] += counters.get(f'pool_events{{kind="{kind}"}}', 0)

        telemetry = Telemetry.create()
        result = top_k(db, telemetry)
        batch.check_topk(result)
        for root in telemetry.tracer.roots:
            if root.name == "fptree.build":
                self.build_s.append(root.duration)
            elif root.name == "fptree.sweep":
                self.sweep_s.append(root.duration)
        self.pairs_pruned += result.stats.pairs_pruned
        self.pairs_discovered += result.stats.pairs_discovered

    def metrics(self) -> dict[str, float]:
        stats = self.batch.reference.level_stats
        candidates = sum(s.candidates for s in stats)
        supported = sum(s.candidates - s.discarded for s in stats)
        metrics: dict[str, float] = {}
        for backend in ("bitmap", "vectorized"):
            sums = self.phase_sums[backend]
            wall = sum(sums.values())
            metrics[f"ledger.{backend}.wall_s"] = floor(self.ledger_wall[backend])
            for phase in PHASES:
                metrics[f"ledger.{backend}.{phase}_share"] = ratio(sums[phase], wall)
        untraced_bitmap = floor(self.untraced["bitmap"])
        metrics.update(
            {
                **{f"counting.{b}.mine_s": floor(s) for b, s in self.untraced.items()},
                "kernels.cells_per_s": ratio(self.cells, self.cells_seconds),
                "parallel.count_s": floor(self.parallel_count_s),
                "parallel.pooled_batch_ratio": ratio(
                    self.pool_batches["parallel_batch"], sum(self.pool_batches.values())
                ),
                "fptree.build_s": floor(self.build_s),
                "fptree.sweep_s": floor(self.sweep_s),
                "fptree.pairs_pruned_ratio": ratio(self.pairs_pruned, self.pairs_discovered),
                "levels.candidates": candidates,
                "levels.support_pass_ratio": ratio(supported, candidates),
                "levels.sig_ratio": ratio(sum(s.significant for s in stats), supported),
                "obs.live_over_null": floor(self.live_s) / untraced_bitmap,
                "trace.overhead_ratio": floor(self.traced_s) / untraced_bitmap,
            }
        )
        return metrics


def run_traced(workload: MiningWorkload, seed: int, seconds: float, outcome: Outcome):
    """The traced run: ``(metrics, report, trace)``."""
    set_ups = SetUps(workload, seed)
    loaded = LoadedWorkload(set_ups(), workload, seed, outcome)
    layers = LayerSamples(loaded.batch)
    rounds, elapsed = run_rounds(seconds, layers.traced_round, spread_calls(set_ups, loaded))
    loaded.verify_incremental()
    metrics = {
        **layers.metrics(),
        "mining.tables_served_ratio": ratio(
            loaded.tables_served, loaded.tables_served + loaded.tables_recounted
        ),
        "data.generate_s": median(set_ups.generate_s),
        "data.pack_s": median(set_ups.pack_s),
        **dict.fromkeys(SERVICE_ONLY_LAYERS, 0.0),
    }
    report = {"rounds": rounds, "window_s": elapsed}
    trace = {"ledgers": layers.ledgers, "spans": layers.spans}
    return metrics, report, trace
