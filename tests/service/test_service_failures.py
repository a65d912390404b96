"""Failure injection for the streaming service.

A long-lived server earns its keep on the bad days: malformed input,
a counting backend blowing up mid-append, clients hammering append and
query concurrently.  In every case the invariant is the same — the
previous generation stays fully queryable and nothing observes a
half-applied append.
"""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.core.mining as mining_module
from repro.obs import Telemetry
from repro.service import MiningService, serve


def request(base, method, path, body=None, raw=None):
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None
    )
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def server():
    service = MiningService(telemetry=Telemetry.create())
    http_server = serve(service, max_body_bytes=2048)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    host, port = http_server.server_address[:2]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)


def seed(service):
    service.append([["tea", "coffee"]] * 4 + [["milk"]] * 2)


class TestMalformedRequests:
    """Bad input gets a 4xx and leaves the index untouched."""

    def test_malformed_json_body(self, server):
        service, base = server
        seed(service)
        status, payload = request(base, "POST", "/append", raw=b"{nope")
        assert status == 400
        assert "malformed JSON" in payload["error"]
        assert service.miner.generation == 1

    def test_wrong_body_shapes(self, server):
        service, base = server
        seed(service)
        for body in (
            [],  # not an object
            {},  # missing baskets
            {"baskets": "tea coffee"},  # not a list of lists
            {"baskets": [["a"]], "numeric": "yes"},  # non-bool flag
        ):
            status, payload = request(base, "POST", "/append", body=body)
            assert status == 400, body
            assert "error" in payload
        assert service.miner.generation == 1
        assert service.miner.db.n_baskets == 6

    def test_oversized_body_rejected_unread(self, server):
        service, base = server
        seed(service)
        big = json.dumps({"baskets": [["spam"]] * 400}).encode()
        assert len(big) > 2048
        status, payload = request(base, "POST", "/append", raw=big)
        assert status == 413
        assert "exceeds" in payload["error"]
        # Nothing from the oversized body reached the index.
        assert service.miner.generation == 1
        assert "spam" not in service.miner.db.vocabulary

    def test_unknown_paths_and_methods(self, server):
        _, base = server
        assert request(base, "GET", "/nope")[0] == 404
        assert request(base, "GET", "/append")[0] == 405
        assert request(base, "POST", "/status", body={})[0] == 405

    def test_bad_query_parameters(self, server):
        service, base = server
        seed(service)
        assert request(base, "GET", "/query/topk?k=banana")[0] == 400
        assert request(base, "GET", "/query/topk?k=0")[0] == 400
        status, payload = request(base, "POST", "/query/itemset", body={"items": ["tea"]})
        assert status == 400
        status, payload = request(
            base, "POST", "/query/itemset", body={"items": ["tea", "unobtainium"]}
        )
        assert status == 400
        assert "unknown item" in payload["error"]
        # The service still answers good queries afterwards.
        status, payload = request(
            base, "POST", "/query/itemset", body={"items": ["tea", "coffee"]}
        )
        assert status == 200
        assert payload["correlated"] is True


class TestBackendFailureMidAppend:
    """A counting backend exploding mid-append must not commit anything."""

    def test_previous_generation_survives(self, monkeypatch):
        service = MiningService()
        seed(service)
        before_status = service.status()
        before_rules = service.significant()

        def explode(self, db, itemsets):
            raise RuntimeError("backend exploded mid-count")

        monkeypatch.setattr(
            mining_module._IncrementalCellEngine, "_count", explode
        )
        with pytest.raises(RuntimeError, match="backend exploded"):
            service.append([["tea", "sugar"], ["sugar"]])
        monkeypatch.undo()

        after_status = service.status()
        for key in ("generation", "n_baskets", "n_items", "significant"):
            assert after_status[key] == before_status[key]
        assert service.significant()["rules"] == before_rules["rules"]
        assert "sugar" not in service.miner.db.vocabulary
        # And the service recovers: the same append succeeds post-fault.
        outcome = service.append([["tea", "sugar"], ["sugar"]])
        assert outcome["generation"] == 2
        assert outcome["n_baskets"] == 8

    def test_http_append_failure_returns_500(self, monkeypatch):
        service = MiningService()
        http_server = serve(service)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        host, port = http_server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            seed(service)

            def explode(self, db, itemsets):
                raise RuntimeError("backend exploded mid-count")

            monkeypatch.setattr(
                mining_module._IncrementalCellEngine, "_count", explode
            )
            status, payload = request(
                base, "POST", "/append", body={"baskets": [["tea", "oops"]]}
            )
            assert status == 500
            assert "internal error" in payload["error"]
            monkeypatch.undo()
            status, payload = request(base, "GET", "/status")
            assert status == 200
            assert payload["generation"] == 1
            assert payload["n_baskets"] == 6
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)


class TestConcurrentAppendAndQuery:
    """No query may observe a half-grown index.

    Each status response must be internally consistent: at generation g
    the basket count is exactly ``seed + g - 1`` for this schedule, so
    any torn read (generation advanced but counts not, or vice versa)
    shows up as a mismatched pair.  Top-K and significant answers must
    equal what a single-threaded replay of the schedule answered at the
    generation they report.
    """

    def test_status_always_consistent(self):
        first = [["tea", "coffee"]] * 3 + [["milk"]]  # generation 1, 4 baskets
        appends = 30
        replay = MiningService()
        replay.append(first)
        expected_top_k = {1: replay.top_k()}
        expected_significant = {1: replay.significant()}
        for _ in range(appends):
            replay.append([["tea", "coffee"]])
            expected_top_k[replay.generation] = replay.top_k()
            expected_significant[replay.generation] = replay.significant()

        service = MiningService()
        service.append(first)
        errors = []
        stop = threading.Event()

        def appender():
            try:
                for _ in range(appends):
                    service.append([["tea", "coffee"]])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        def querier():
            try:
                while not stop.is_set():
                    status = service.status()
                    expected = 4 + (status["generation"] - 1)
                    if status["n_baskets"] != expected:
                        errors.append(
                            AssertionError(
                                f"torn read: generation {status['generation']} "
                                f"with {status['n_baskets']} baskets"
                            )
                        )
                    correlation = service.correlation(["tea", "coffee"])
                    table_n = correlation["n"]
                    if table_n != 4 + (correlation["generation"] - 1):
                        errors.append(
                            AssertionError(
                                f"torn table: generation {correlation['generation']} "
                                f"with n={table_n}"
                            )
                        )
                    top_k = service.top_k()
                    if top_k["n_baskets"] != 4 + (top_k["generation"] - 1):
                        errors.append(
                            AssertionError(
                                f"torn top-K: generation {top_k['generation']} "
                                f"with {top_k['n_baskets']} baskets"
                            )
                        )
                    if top_k != expected_top_k[top_k["generation"]]:
                        errors.append(
                            AssertionError(f"top-K differs at generation {top_k['generation']}")
                        )
                    significant = service.significant()
                    if significant != expected_significant[significant["generation"]]:
                        errors.append(
                            AssertionError(
                                "significant itemsets differ at generation "
                                f"{significant['generation']}"
                            )
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=appender)] + [
            threading.Thread(target=querier) for _ in range(3)
        ]
        # A short switch interval makes the threads interleave finely.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert service.miner.generation == 1 + appends
        assert service.miner.db.n_baskets == 4 + appends


class TestReadsNeverWaitOnAppend:
    """Reads answer from the published generation while an append mines."""

    def test_reads_return_while_an_append_is_parked(self, monkeypatch):
        service = MiningService()
        seed(service)  # generation 1, 6 baskets
        parked = threading.Event()
        release = threading.Event()
        count = mining_module._IncrementalCellEngine._count

        def park(self, db, itemsets):
            parked.set()
            release.wait(timeout=30)
            return count(self, db, itemsets)

        monkeypatch.setattr(mining_module._IncrementalCellEngine, "_count", park)
        writer = threading.Thread(
            target=service.append, args=([["tea", "sugar"], ["sugar"]],)
        )
        writer.start()
        answers = {}

        def read_everything():
            answers["correlation"] = service.correlation(["tea", "coffee"])
            answers["status"] = service.status()
            answers["significant"] = service.significant()
            answers["top_k"] = service.top_k()

        try:
            assert parked.wait(timeout=10), "the append never reached phase A"
            reader = threading.Thread(target=read_everything)
            reader.start()
            reader.join(timeout=1.0)
            assert not reader.is_alive(), "a read waited on the parked append"
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert set(answers) == {"correlation", "status", "significant", "top_k"}
        for answer in answers.values():
            assert answer["generation"] == 1
        assert answers["correlation"]["n"] == 6
        assert answers["status"]["n_baskets"] == 6
        assert answers["top_k"]["n_baskets"] == 6

        assert service.status()["generation"] == 2
        assert service.status()["n_baskets"] == 8
        assert service.correlation(["tea", "sugar"])["n"] == 8
        assert service.top_k()["n_baskets"] == 8
        assert service.significant()["generation"] == 2


class TestSpansClosedOnErrorPaths:
    """Every request span must finish even when the handler raises."""

    @staticmethod
    def walk(spans):
        for span in spans:
            yield span
            yield from TestSpansClosedOnErrorPaths.walk(span.children)

    def assert_all_finished(self, telemetry):
        spans = list(self.walk(telemetry.tracer.roots))
        assert spans, "expected at least one recorded span"
        unfinished = [span.name for span in spans if not span.finished]
        assert not unfinished

    def test_query_errors_close_spans(self):
        telemetry = Telemetry.create()
        service = MiningService(telemetry=telemetry)
        seed(service)
        with pytest.raises(ValueError):
            service.top_k(k=0)
        with pytest.raises(ValueError):
            service.correlation(["tea"])
        with pytest.raises(ValueError):
            service.correlation(["tea", "unobtainium"])
        self.assert_all_finished(telemetry)
        counters = telemetry.metrics.snapshot()["counters"]
        errored = {
            key: value
            for key, value in counters.items()
            if "service_requests" in key and 'status="error"' in key
        }
        assert sum(sorted(errored.values())) == 3

    def test_append_failure_closes_spans(self, monkeypatch):
        telemetry = Telemetry.create()
        service = MiningService(telemetry=telemetry)
        seed(service)

        def explode(self, db, itemsets):
            raise RuntimeError("backend exploded mid-count")

        monkeypatch.setattr(
            mining_module._IncrementalCellEngine, "_count", explode
        )
        with pytest.raises(RuntimeError):
            service.append([["tea", "sugar"]])
        self.assert_all_finished(telemetry)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get('service_requests{endpoint="append",status="error"}') == 1
