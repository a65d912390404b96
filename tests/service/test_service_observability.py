"""Live observability of the streaming service over real HTTP.

Every response must carry a request id that correlates the wire, the
event log, and the flight recorder; ``/metrics`` must serve validator-
clean Prometheus text (or the JSON snapshot under content negotiation);
a forced 5xx must leave a flight dump on disk.  The hammer test scrapes
``/metrics`` while appends and queries run from other threads — every
scrape must parse, every status read must be monotone.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.core.mining as mining_module
from repro.obs import (
    EXPOSITION_CONTENT_TYPE,
    FakeClock,
    Telemetry,
    validate_exposition,
)
from repro.service import MiningService, serve


def request(base, method, path, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def body_json(raw):
    return json.loads(raw)


@pytest.fixture
def server(tmp_path):
    service = MiningService(telemetry=Telemetry.create())
    http_server = serve(service, flight_dump_path=str(tmp_path / "flight-5xx.json"))
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    host, port = http_server.server_address[:2]
    try:
        yield service, http_server, f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)


def seed(service):
    service.append([["tea", "coffee"]] * 4 + [["milk"]] * 2)


class TestRequestIdCorrelation:
    def test_header_matches_body_and_ids_are_sequential(self, server):
        service, _, base = server
        seed(service)
        ids = []
        for _ in range(3):
            status, headers, raw = request(base, "GET", "/status")
            assert status == 200
            header_id = headers["X-Request-Id"]
            assert body_json(raw)["request_id"] == header_id
            ids.append(header_id)
        assert ids == ["req-00000001", "req-00000002", "req-00000003"]

    def test_error_responses_also_carry_the_id(self, server):
        _, _, base = server
        status, headers, raw = request(base, "GET", "/nope")
        assert status == 404
        assert body_json(raw)["request_id"] == headers["X-Request-Id"]

    def test_id_reaches_event_log_and_flight_verbatim(self, server):
        service, http_server, base = server
        seed(service)
        status, headers, raw = request(
            base, "POST", "/append", body={"baskets": [["tea", "scone"]]}
        )
        assert status == 200
        request_id = headers["X-Request-Id"]

        events = service.telemetry.events.for_request(request_id)
        assert events, "no events correlated to the request id"
        assert {event["event"] for event in events} >= {
            "service.request",
            "service.append",
        }
        assert all(event["request_id"] == request_id for event in events)

        entries = http_server.flight.for_request(request_id)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["path"] == "/append"
        assert entry["status"] == 200
        assert entry["trace"]["name"] == "service.append"
        assert any(event["request_id"] == request_id for event in entry["events"])


class TestMetricsEndpoint:
    def test_default_is_validator_clean_prometheus_text(self, server):
        service, _, base = server
        seed(service)
        request(base, "GET", "/status")
        status, headers, raw = request(base, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
        text = raw.decode("utf-8")
        assert validate_exposition(text) == []
        assert "service_requests" in text

    def test_accept_json_returns_the_snapshot(self, server):
        service, _, base = server
        seed(service)
        status, headers, raw = request(
            base, "GET", "/metrics", headers={"Accept": "application/json"}
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        snapshot = body_json(raw)
        assert set(snapshot) >= {"counters", "gauges", "histograms", "request_id"}


class TestFlightEndpoint:
    def test_debug_flight_shows_a_forced_4xx(self, server):
        service, _, base = server
        seed(service)
        request(base, "GET", "/definitely/not/a/path")
        status, _, raw = request(base, "GET", "/debug/flight")
        assert status == 200
        dump = body_json(raw)
        entries = [e for e in dump["entries"] if e["path"] == "/definitely/not/a/path"]
        assert len(entries) == 1
        assert entries[0]["status"] == 404
        # The dump is snapshotted before the /debug/flight response is
        # recorded, so the 404 is the only entry at this point.
        assert dump["recorded"] == 1

    def test_unhandled_5xx_writes_the_dump_file(self, server, monkeypatch, tmp_path):
        service, http_server, base = server
        seed(service)

        def explode(self, db, itemsets):
            raise RuntimeError("backend exploded mid-count")

        monkeypatch.setattr(mining_module._IncrementalCellEngine, "_count", explode)
        status, headers, raw = request(
            base, "POST", "/append", body={"baskets": [["tea", "oops"]]}
        )
        assert status == 500
        failing_id = headers["X-Request-Id"]

        dump_path = tmp_path / "flight-5xx.json"
        assert dump_path.exists(), "5xx did not write the flight dump"
        dump = json.loads(dump_path.read_text())
        failing = [e for e in dump["entries"] if e["request_id"] == failing_id]
        assert len(failing) == 1
        assert failing[0]["status"] == 500
        assert failing[0]["path"] == "/append"


class TestProfileEndpoint:
    def test_profile_returns_a_collapsed_stack_report(self, server):
        _, _, base = server
        status, headers, raw = request(base, "GET", "/debug/profile?seconds=1")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert raw.decode().startswith("# sampling profile:")

    def test_profile_rejects_bad_seconds(self, server):
        _, _, base = server
        assert request(base, "GET", "/debug/profile?seconds=0")[0] == 400
        assert request(base, "GET", "/debug/profile?seconds=banana")[0] == 400


class TestScrapeHammer:
    """Appends, queries, and scrapes from many threads at once.

    Every ``/metrics`` scrape must be a valid exposition (no torn
    snapshot), every status read must see a non-decreasing generation,
    and nothing may 5xx.
    """

    def test_concurrent_scrapes_stay_coherent(self, server):
        service, _, base = server
        seed(service)
        appends = 15
        errors = []
        stop = threading.Event()

        def appender():
            try:
                for _ in range(appends):
                    status, _, raw = request(
                        base, "POST", "/append", body={"baskets": [["tea", "coffee"]]}
                    )
                    if status != 200:
                        errors.append(AssertionError(f"append -> {status}: {raw!r}"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        def scraper():
            try:
                while not stop.is_set():
                    status, headers, raw = request(base, "GET", "/metrics")
                    if status != 200:
                        errors.append(AssertionError(f"scrape -> {status}"))
                        continue
                    problems = validate_exposition(raw.decode("utf-8"))
                    if problems:
                        errors.append(AssertionError(f"invalid exposition: {problems}"))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def querier():
            last_generation = 0
            try:
                while not stop.is_set():
                    status, _, raw = request(base, "GET", "/status")
                    if status != 200:
                        errors.append(AssertionError(f"status -> {status}"))
                        continue
                    generation = body_json(raw)["generation"]
                    if generation < last_generation:
                        errors.append(
                            AssertionError(
                                f"generation went backwards: "
                                f"{last_generation} -> {generation}"
                            )
                        )
                    last_generation = generation
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = (
            [threading.Thread(target=appender)]
            + [threading.Thread(target=scraper) for _ in range(2)]
            + [threading.Thread(target=querier) for _ in range(2)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert service.miner.generation == 1 + appends

        # The post-hammer scrape still round-trips the validator.
        _, _, raw = request(base, "GET", "/metrics")
        assert validate_exposition(raw.decode("utf-8")) == []


class TestDeterministicTranscript:
    """Two identically-scripted servers under FakeClock agree byte-for-byte."""

    @staticmethod
    def run_script():
        service = MiningService(telemetry=Telemetry.create(clock=FakeClock()))
        http_server = serve(service)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        host, port = http_server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            request(base, "POST", "/append", body={"baskets": [["tea", "coffee"]] * 3})
            request(base, "GET", "/status")
            request(base, "GET", "/nope")
            _, _, exposition = request(base, "GET", "/metrics")
            events = service.telemetry.events.render_lines()
            flight = http_server.flight.to_json()
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)
        return exposition, events, flight

    def test_exposition_events_and_flight_are_byte_identical(self):
        first = self.run_script()
        second = self.run_script()
        assert first == second
