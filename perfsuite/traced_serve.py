"""``python -m repro serve`` with the service's layers timed from outside.

Usage: ``python -u perfsuite/traced_serve.py --records FILE SERVE-FLAGS...``

Before the server starts, this wraps the service's layers:

* the ``MiningService`` endpoints (``endpoint.<method>`` records);
* the service lock, timing each acquire (``lock.wait``) and each hold
  (``lock.hold``);
* ``IncrementalMiner.append`` (``incremental.append``, with the tables
  served from the cell store and recounted);
* ``FPTreePairEngine.__init__`` and ``top_k`` (``fptree.build``,
  ``fptree.top_k``);
* ``TableCache.get`` (``cache.get``, with whether it hit).

Every record carries the request id the HTTP layer bound
(``repro.obs.current_request_id()``), so the benchmark can join it to
the latency it measured for the response with that ``X-Request-Id``.
Records stay in memory; SIGTERM stops the server and writes them to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.core.mining import IncrementalMiner  # noqa: E402
from repro.fptree import FPTreePairEngine  # noqa: E402
from repro.obs import current_request_id  # noqa: E402
from repro.parallel import TableCache  # noqa: E402
from repro.service import MiningService  # noqa: E402

ENDPOINTS = ("append", "status", "significant", "correlation", "top_k")


class Records:
    """Timed records of one server process, appended from handler threads."""

    def __init__(self) -> None:
        self.items: list[dict[str, object]] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, **extra: object) -> None:
        record = {"name": name, "request_id": current_request_id(), "start": start, "end": end}
        record.update(extra)
        with self._lock:
            self.items.append(record)

    def snapshot(self) -> list[dict[str, object]]:
        with self._lock:
            return list(self.items)


class TimedLock:
    """A stand-in for the service's lock that records waits and holds."""

    def __init__(self, lock, records: Records) -> None:
        self._lock = lock
        self._records = records
        self._acquired = threading.local()

    def __enter__(self) -> "TimedLock":
        start = perf_counter()
        self._lock.acquire()
        acquired = perf_counter()
        self._records.add("lock.wait", start, acquired)
        stack = getattr(self._acquired, "stack", None)
        if stack is None:
            stack = self._acquired.stack = []
        stack.append(acquired)
        return self

    def __exit__(self, *exc_info: object) -> None:
        acquired = self._acquired.stack.pop()
        released = perf_counter()
        self._lock.release()
        self._records.add("lock.hold", acquired, released)


def _timed(records: Records, name: str, function, describe=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = function(*args, **kwargs)
        extra = describe(result) if describe is not None else {}
        records.add(name, start, perf_counter(), **extra)
        return result

    return wrapper


def instrument(records: Records) -> None:
    """Replace the service's layers with timed wrappers for this process."""
    for endpoint in ENDPOINTS:
        original = getattr(MiningService, endpoint)
        setattr(MiningService, endpoint, _timed(records, f"endpoint.{endpoint}", original))

    service_init = MiningService.__init__

    @functools.wraps(service_init)
    def init_with_timed_lock(self, *args, **kwargs):
        service_init(self, *args, **kwargs)
        self._lock = TimedLock(self._lock, records)

    MiningService.__init__ = init_with_timed_lock
    IncrementalMiner.append = _timed(
        records,
        "incremental.append",
        IncrementalMiner.append,
        lambda outcome: {
            "tables_served": outcome.tables_served,
            "tables_recounted": outcome.tables_recounted,
        },
    )
    FPTreePairEngine.__init__ = _timed(records, "fptree.build", FPTreePairEngine.__init__)
    FPTreePairEngine.top_k = _timed(records, "fptree.top_k", FPTreePairEngine.top_k)
    TableCache.get = _timed(
        records, "cache.get", TableCache.get, lambda table: {"hit": table is not None}
    )


def _stop(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", required=True, help="where SIGTERM writes the records")
    args, serve_flags = parser.parse_known_args(argv)
    records = Records()
    instrument(records)
    signal.signal(signal.SIGTERM, _stop)
    try:
        return repro_main(["serve", *serve_flags])
    finally:
        with open(args.records, "w") as handle:
            json.dump(records.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
