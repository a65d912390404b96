"""The service workload: appends beside reads over HTTP.

The server is ``python -u -m repro serve`` (with ``--telemetry``, as a
deployment would run it) in a temporary directory under
``perfsuite/results``.  A set-up generates the 14,000 baskets, boots a
server and loads the first 2,000 with one ``POST /append``.  The first
set-up's server takes the load.

The load is one process with two persistent HTTP/1.1 connections, both
closed loops (each sends its next request when the last one returns):

* a writer sending the other 12,000 baskets as 120 appends of 100;
* a reader looping a mix until the writer is done: 85% ``POST
  /query/itemset`` on Pareto-skewed pairs, 10% ``GET
  /query/significant?limit=20``, 3% ``GET
  /query/topk?k=10&min_cooccurrence=5`` and 2% ``GET /status``.

The mix, the skew and the rate of appends are synthetic assumptions:
nothing records how the service is used, so they are not checked
against real traffic.

Every itemset answer is checked exactly (cells and chi-squared) against
the baskets the server held at the answer's generation.  After the
load, the server's significant itemsets and top-K pairs must equal a
cold batch mine and a top-K search of all 14,000 baskets.  The client
then mines and searches those baskets in process for the rest of
``--seconds`` (at least ``REFERENCE_ROUNDS`` rounds), which gives this
workload's ``mine_s``, ``mine_best_s`` and ``topk_s``; the other
set-ups are spread over those rounds.

``append_ms`` is the median append latency.  ``query_ms`` is the mean
itemset latency, not the median: a quarter to a third of the itemset queries
find the lock free and the rest wait for an append, so the median lies
on the steep edge between those two groups, where a small change in the
share that waits moves it far.  The mean weighs every wait and moves
smoothly (perfsuite/README.md gives the spreads of both).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfsuite.common import (
    RESULTS,
    SETUP_REPEATS,
    SIGNIFICANCE,
    SRC,
    SUPPORT_COUNT,
    SUPPORT_FRACTION,
    TOPK_K,
    TOPK_MIN_COOCCURRENCE,
    Outcome,
    Spread,
    median,
    percentile,
    ratio,
    run_rounds,
    use_source,
)
from perfsuite.datasets import (
    SERIAL_BACKENDS,
    SERVICE_APPEND_SIZE,
    SERVICE_APPENDS,
    SERVICE_BACKFILL,
    SERVICE_MAX_LEVEL,
    prepare,
    query_stream,
    service_baskets,
)
from perfsuite.mining import BatchChecker, LayerSamples

use_source()

from repro.core.contingency import ContingencyTable  # noqa: E402
from repro.core.correlation import CorrelationTest  # noqa: E402
from repro.core.itemsets import Itemset  # noqa: E402
from repro.data.basket import BasketDatabase  # noqa: E402

SERVE_FLAGS = [
    "--port", "0",
    "--telemetry",
    "--flight-dump", "",
    "--support-count", str(SUPPORT_COUNT),
    "--support-fraction", str(SUPPORT_FRACTION),
    "--max-level", str(SERVICE_MAX_LEVEL),
]
TRACED_SERVE = Path(__file__).resolve().parent / "traced_serve.py"
REFERENCE_ROUNDS = 9
TRACED_REFERENCE_ROUNDS = 2
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 15.0
STOP_TIMEOUT_S = 15.0
# A load still running this long after it started has failed; the writer
# and reader stop there so a stuck server cannot stall the run.
LOAD_LIMIT_S = 90.0
# The reader's mix in every 100 requests (an assumed, synthetic mix; see
# the module docstring).  The reader deals them from a shuffled deck, so
# every run asks each kind in these shares.  Independent draws would let
# the number of top-K queries, each rebuilding the FP-tree under the
# service lock, vary by about half from run to run.
MIX = (("itemset", 85), ("significant", 10), ("topk", 3), ("status", 2))
# Pareto shape of the itemset queries' pair ranks, also assumed: about
# half of all queries go to the 2 most popular pairs and 99% to the top
# 100, so a pair asked twice between two appends can hit the server's
# table cache.
QUERY_PARETO_ALPHA = 1.0
# The tail percentile of itemset latency: a run answers 120 or more
# itemset queries, so p90 has at least twelve samples beyond it.
TAIL = 0.90
_READY = re.compile(r"serving on http://([0-9.]+):([0-9]+)")


@dataclass
class Response:
    status: int
    payload: dict
    request_id: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Server:
    """One server process; ``stop()`` ends it and waits for it."""

    def __init__(self, workdir: Path, records: Path | None = None) -> None:
        if records is None:
            argv = [sys.executable, "-u", "-m", "repro", "serve", *SERVE_FLAGS]
        else:
            argv = [sys.executable, "-u", str(TRACED_SERVE), "--records", str(records), *SERVE_FLAGS]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._out_path = workdir / "server.out"
        self._err_path = workdir / "server.err"
        self._out = open(self._out_path, "w")
        self._err = open(self._err_path, "w")
        try:
            self.process = subprocess.Popen(
                argv, cwd=workdir, env=env, stdout=self._out, stderr=self._err
            )
        except OSError:
            self._out.close()
            self._err.close()
            raise
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> int:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            match = _READY.search(self._out_path.read_text())
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"server did not start: {self._err_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._out.close()
        self._err.close()


class Client:
    """One persistent HTTP/1.1 connection; a failed call reconnects next time."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: object = None) -> Response:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        start = time.perf_counter()
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            self._connection.request(method, path, body=data, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
            payload = json.loads(raw)
            result = Response(
                response.status, payload, response.getheader("X-Request-Id"), start, 0.0
            )
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.close()
            result = Response(0, {"error": repr(error)}, None, start, 0.0)
        result.end = time.perf_counter()
        return result

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class Oracle:
    """Exact answers for pair queries at any generation of the load."""

    def __init__(self, baskets: list[tuple[int, ...]]) -> None:
        n_items = 1 + max(item for basket in baskets for item in basket)
        buffers = [bytearray((len(baskets) + 7) // 8) for _ in range(n_items)]
        for position, basket in enumerate(baskets):
            for item in basket:
                buffers[item][position >> 3] |= 1 << (position & 7)
        self._bitmaps = [int.from_bytes(buffer, "little") for buffer in buffers]
        self._test = CorrelationTest(significance=SIGNIFICANCE)

    @staticmethod
    def baskets_at(generation: int) -> int:
        return SERVICE_BACKFILL + (generation - 1) * SERVICE_APPEND_SIZE

    def check_itemset(self, pair: tuple[int, int], payload: dict) -> str | None:
        """``None`` when the answer is exact, else what is wrong with it."""
        generation = payload.get("generation")
        if not isinstance(generation, int) or generation < 1:
            return f"itemset answer without a generation: {payload}"
        n = self.baskets_at(generation)
        mask = (1 << n) - 1
        first = self._bitmaps[pair[0]] & mask
        second = self._bitmaps[pair[1]] & mask
        both = (first & second).bit_count()
        counts = {
            0b00: n - first.bit_count() - second.bit_count() + both,
            0b01: first.bit_count() - both,
            0b10: second.bit_count() - both,
            0b11: both,
        }
        cells = {format(cell, "02b")[::-1]: count for cell, count in counts.items() if count}
        if payload.get("n") != n or payload.get("cells") != cells:
            return f"itemset {pair} at generation {generation}: wrong cells"
        table = ContingencyTable.from_cell_counts(Itemset(pair), counts, n)
        if payload.get("chi_squared") != self._test.statistic(table):
            return f"itemset {pair} at generation {generation}: wrong chi2"
        return None


class Load:
    """The writer and the reader, each on its own thread and connection."""

    def __init__(self, port: int, baskets, seed: int) -> None:
        self.port = port
        self.baskets = baskets
        self.oracle = Oracle(baskets)
        loaded = {item for basket in baskets[:SERVICE_BACKFILL] for item in basket}
        self.queries = query_stream(
            sorted(loaded), random.Random(f"{seed}:queries"), skew=QUERY_PARETO_ALPHA
        )
        self.mix = random.Random(f"{seed}:mix")
        self.writer_outcome = Outcome()
        self.reader_outcome = Outcome()
        self.appends: list[Response] = []
        self.requests: list[tuple[str, Response]] = []
        self._writer_done = threading.Event()

    def run(self) -> float:
        """Drive the load; returns its elapsed seconds."""
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._guarded, args=(self._write, self.writer_outcome)),
            threading.Thread(target=self._guarded, args=(self._read, self.reader_outcome)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - self.start

    @staticmethod
    def _guarded(body, outcome: Outcome) -> None:
        try:
            body(outcome)
        except Exception as error:  # noqa: BLE001 - a load thread must report, not vanish
            outcome.check(False, f"load thread crashed: {error!r}")

    def _write(self, outcome: Outcome) -> None:
        client = Client(self.port)
        limit = self.start + LOAD_LIMIT_S
        try:
            for index in range(SERVICE_APPENDS):
                if time.perf_counter() > limit:
                    outcome.check(False, f"append {index} not sent: the load overran")
                    continue
                first = SERVICE_BACKFILL + index * SERVICE_APPEND_SIZE
                batch = [list(b) for b in self.baskets[first:first + SERVICE_APPEND_SIZE]]
                response = client.call("POST", "/append", {"baskets": batch, "numeric": True})
                self.appends.append(response)
                payload = response.payload
                outcome.check(
                    response.status == 200
                    and payload.get("generation") == index + 2
                    and payload.get("appended") == SERVICE_APPEND_SIZE
                    and payload.get("reconciliation_agreed") is True,
                    f"append {index}: {response.status} {str(payload)[:200]}",
                )
        finally:
            client.close()
            self._writer_done.set()

    def _read(self, outcome: Outcome) -> None:
        client = Client(self.port)
        limit = self.start + LOAD_LIMIT_S
        asked = 0
        deck: list[str] = []
        try:
            while time.perf_counter() < limit and not self._writer_done.is_set():
                if not deck:
                    deck = [kind for kind, count in MIX for _ in range(count)]
                    self.mix.shuffle(deck)
                kind = deck.pop()
                if kind == "itemset":
                    pair = self.queries[asked % len(self.queries)]
                    asked += 1
                    response = client.call("POST", "/query/itemset", {"items": list(pair)})
                    problem = (
                        self.oracle.check_itemset(pair, response.payload)
                        if response.status == 200
                        else f"itemset {pair}: status {response.status}"
                    )
                    outcome.check(problem is None, problem or "")
                else:
                    path = {
                        "significant": "/query/significant?limit=20",
                        "topk": f"/query/topk?k={TOPK_K}&min_cooccurrence={TOPK_MIN_COOCCURRENCE}",
                        "status": "/status",
                    }[kind]
                    response = client.call("GET", path)
                    outcome.check(
                        response.status == 200, f"{path}: status {response.status}"
                    )
                self.requests.append((kind, response))
        finally:
            client.close()

    def itemset_latencies(self) -> list[float]:
        return [r.seconds for kind, r in self.requests if kind == "itemset"]

    def append_latencies(self) -> list[float]:
        return [r.seconds for r in self.appends]

    def served_ratio(self) -> float:
        served = sum(r.payload.get("tables_served", 0) for r in self.appends)
        recounted = sum(r.payload.get("tables_recounted", 0) for r in self.appends)
        return ratio(served, served + recounted)


class SetUps:
    """The run's set-ups: generate the baskets, boot a server, load the first baskets.

    A call times one set-up and returns ``(baskets, server)``; the caller
    stops the server.
    """

    def __init__(self, seed: int, workdir: Path, outcome: Outcome) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        self.total_s: list[float] = []
        self.generate_s: list[float] = []
        self.boot_s: list[float] = []

    def __call__(self, records: Path | None = None):
        gc.collect()
        start = time.perf_counter()
        baskets = service_baskets(random.Random(self.seed))
        generated = time.perf_counter()
        server = Server(self.workdir, records)
        try:
            client = Client(server.port)
            backfill = [list(b) for b in baskets[:SERVICE_BACKFILL]]
            response = client.call("POST", "/append", {"baskets": backfill, "numeric": True})
            client.close()
            if not self.outcome.check(
                response.status == 200 and response.payload.get("generation") == 1,
                f"backfill: {response.status} {str(response.payload)[:200]}",
            ):
                raise RuntimeError("the server rejected the set-up append")
        except BaseException:
            server.stop()
            raise
        end = time.perf_counter()
        self.total_s.append(end - start)
        self.generate_s.append(generated - start)
        self.boot_s.append(end - generated)
        return baskets, server

    def throwaway(self) -> None:
        """One more timed set-up, whose server is stopped at once."""
        self(None)[1].stop()


def _final_state(server: Server, outcome: Outcome) -> dict[str, object]:
    """What the loaded server answers once the load is over."""
    client = Client(server.port)
    try:
        answers = {
            "significant": client.call("GET", "/query/significant?limit=1000000"),
            "topk": client.call(
                "GET", f"/query/topk?k={TOPK_K}&min_cooccurrence={TOPK_MIN_COOCCURRENCE}"
            ),
            "status": client.call("GET", "/status"),
        }
    finally:
        client.close()
    for name, response in answers.items():
        outcome.check(response.status == 200, f"final {name}: status {response.status}")
    return {name: response.payload for name, response in answers.items()}


def _check_final(final: dict[str, object], batch: BatchChecker, outcome: Outcome) -> None:
    served = sorted(
        (tuple(rule["item_ids"]), rule["chi_squared"])
        for rule in final["significant"].get("rules", [])
    )
    outcome.check(
        served == batch.border,
        f"served border ({len(served)} itemsets) differs from a cold mine "
        f"({len(batch.border)} itemsets)",
    )
    vocabulary = batch.db.vocabulary
    expected_topk = [
        ([vocabulary.name_of(item) for item in items], chi2) for items, chi2 in batch.topk
    ]
    served_topk = [(e["items"], e["chi2"]) for e in final["topk"].get("entries", [])]
    outcome.check(served_topk == expected_topk, "served top-K differs from a cold search")


def _layer_metrics(load: Load, records: list[dict], elapsed: float) -> dict[str, float]:
    """Service layer shares from the traced server's records."""
    by_request: dict[str, dict[str, dict]] = {}
    for record in records:
        if record["request_id"] is not None:
            by_request.setdefault(record["request_id"], {})[record["name"]] = record
    client_spans = [("itemset", r) for kind, r in load.requests if kind == "itemset"]
    client_spans += [("append", r) for r in load.appends]
    endpoint = {"itemset": "endpoint.correlation", "append": "endpoint.append"}
    overhead: dict[str, list[float]] = {"itemset": [], "append": []}
    waits: list[float] = []
    for kind, response in client_spans:
        server_side = by_request.get(response.request_id or "", {})
        span = server_side.get(endpoint[kind])
        if span is None:
            continue
        inside = span["end"] - span["start"]
        overhead[kind].append((response.seconds - inside) / response.seconds)
        wait = server_side.get("lock.wait")
        if kind == "itemset" and wait is not None:
            waits.append((wait["end"] - wait["start"]) / response.seconds)
    held = sum(
        record["end"] - record["start"]
        for record in records
        if record["name"] == "lock.hold"
        and "endpoint.append" in by_request.get(record["request_id"] or "", {})
    )
    return {
        "service.write_lock_share": held / elapsed,
        "service.itemset_wait_share": median(waits),
        "http.overhead_share.itemset": median(overhead["itemset"]),
        "http.overhead_share.append": median(overhead["append"]),
        "service.itemset_tail_ratio": percentile(load.itemset_latencies(), TAIL)
        / median(load.itemset_latencies()),
    }


def run(seed: int, seconds: float, trace: bool, outcome: Outcome):
    """One service run: ``(metrics, report, trace_data)``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=RESULTS))
    try:
        return _run_in(workdir, seed, seconds, trace, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(workdir: Path, seed: int, seconds: float, trace: bool, outcome: Outcome):
    records_path = workdir / "records.json" if trace else None
    set_ups = SetUps(seed, workdir, outcome)
    baskets, server = set_ups(records_path)
    try:
        load = Load(server.port, baskets, seed)
        elapsed = load.run()
        final = _final_state(server, outcome)
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    outcome.merge(load.writer_outcome)
    outcome.merge(load.reader_outcome)

    start = time.perf_counter()
    db = BasketDatabase.from_id_baskets(
        baskets[: SERVICE_BACKFILL + SERVICE_APPENDS * SERVICE_APPEND_SIZE]
    )
    prepare(db)
    pack_s = time.perf_counter() - start
    batch = BatchChecker(db, SERVICE_MAX_LEVEL, SERIAL_BACKENDS, outcome)
    _check_final(final, batch, outcome)
    # The reference rounds fill what the load left of --seconds.
    remaining = max(seconds - elapsed, 0.0)
    cache = final["status"].get("cache", {})
    report = {
        "window_s": elapsed,
        "requests": len(load.requests) + len(load.appends),
        "samples_s": {
            "setup": set_ups.total_s,
            "append": load.append_latencies(),
            "itemset": load.itemset_latencies(),
            **{f"mine.{b}": s for b, s in batch.mine_s.items()},
            "topk": batch.topk_s,
        },
    }
    later_set_ups = [Spread(set_ups.throwaway, SETUP_REPEATS, done=1)]
    if not trace:
        report["rounds"], _ = run_rounds(
            remaining, batch.timed_round, later_set_ups, min_rounds=REFERENCE_ROUNDS
        )
        metrics = {
            "setup_s": median(set_ups.total_s),
            **batch.metrics(),
            "append_ms": 1e3 * median(load.append_latencies()),
            "query_ms": 1e3 * statistics.fmean(load.itemset_latencies()),
            "peak_rss_mb": server_rss,
        }
        return metrics, report, None

    layers = LayerSamples(batch)
    report["rounds"], _ = run_rounds(
        remaining, layers.traced_round, later_set_ups, min_rounds=TRACED_REFERENCE_ROUNDS
    )
    with open(records_path) as handle:
        records = json.load(handle)
    metrics = {
        **layers.metrics(),
        **_layer_metrics(load, records, elapsed),
        "mining.tables_served_ratio": load.served_ratio(),
        "cache.hit_ratio": ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
        ),
        "data.generate_s": median(set_ups.generate_s),
        "data.pack_s": pack_s,
        "setup.server_share": median(set_ups.boot_s) / median(set_ups.total_s),
    }
    client_spans = [
        {
            "name": f"client.{kind}",
            "start": r.start,
            "end": r.end,
            "parent": None,
            "request_id": r.request_id,
            "status": r.status,
        }
        for kind, r in [*load.requests, *(("append", r) for r in load.appends)]
    ]
    trace_data = {
        "ledgers": layers.ledgers,
        "spans": layers.spans,
        "requests": client_spans,
        "server": records,
    }
    return metrics, report, trace_data
