"""Stdlib HTTP front-end for :class:`~repro.service.core.MiningService`.

A deliberately small wire surface over ``http.server``:

====== ====================== ===========================================
Method Path                   Meaning
====== ====================== ===========================================
GET    ``/healthz``           liveness + current generation
GET    ``/status``            sizes, parameters, reconciliation
GET    ``/query/significant`` significant itemsets (``?limit=N``)
GET    ``/query/topk``        top-K pairs (``?k=N&min_cooccurrence=M``)
GET    ``/metrics``           Prometheus text exposition (JSON with
                              ``Accept: application/json``)
GET    ``/debug/flight``      flight-recorder dump of recent requests
GET    ``/debug/profile``     sampling profile (``?seconds=N``, capped)
POST   ``/append``            ``{"baskets": [[...]], "numeric": bool}``
POST   ``/query/itemset``     ``{"items": [...]}`` point correlation
====== ====================== ===========================================

Every request is assigned a sequential request id (``req-%08d``) that
comes back as the ``X-Request-Id`` header on every response, as the
``request_id`` key of every JSON body, on the request's root span, and
on every structured event emitted while serving it — one grep ties a
log line to its wire response.  Each JSON response is also recorded in
the server's :class:`~repro.obs.FlightRecorder` together with the
request's events and finished span tree; an unhandled 5xx additionally
dumps the recorder to ``flight_dump_path`` so the post-mortem ships
with the incident.

Responses are canonical JSON (``sort_keys=True`` + trailing newline) so
identical sessions produce byte-identical transcripts (request ids are
deterministic too).  Failures map to precise statuses — 400 malformed
body or parameters, 404 unknown path, 405 wrong method, 413 oversized
body (checked *before* reading), 500 handler crash — and never leave
the service in a partial state: the service's append is two-phase, so
whatever the handler was doing, the previous generation stays
queryable.

The server is a ``ThreadingHTTPServer``; concurrency safety lives in
:class:`MiningService` (reads answer from an immutable per-generation
snapshot) and the obs layer's locked registry, not here.  The handler
sets ``TCP_NODELAY``: a response leaves in two writes (headers, then
body), and with Nagle's algorithm on, the second write waits for the
client's delayed ACK of the first, about 40 ms per keep-alive request.
"""

from __future__ import annotations

import json
import logging
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs import (
    EXPOSITION_CONTENT_TYPE,
    FlightRecorder,
    RequestIdSource,
    SamplingProfiler,
    render_exposition,
    reset_request_id,
    set_request_id,
)
from repro.service.core import MiningService, clear_last_trace, last_request_trace

__all__ = ["ServiceServer", "serve"]

logger = logging.getLogger("repro.service")

DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024

# Hard ceiling on /debug/profile?seconds=N: the handler thread sleeps
# for the whole window, so an unbounded value would pin a thread.
MAX_PROFILE_SECONDS = 30


class _HttpError(Exception):
    """An error with a definite HTTP status."""

    def __init__(self, status: int, message: str, close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body go out in two writes; without TCP_NODELAY the
    # body waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True
    # Quiet the default stderr chatter; route it through logging instead.

    server: "ServiceServer"  # type: ignore[assignment]

    # Set per request by _with_request before any routing runs.
    _request_id: str | None = None

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)

    # -- plumbing -------------------------------------------------------------

    def _with_request(self, route) -> None:
        """Bind a fresh request id for the duration of one request.

        Keep-alive connections reuse the handler thread, so the context
        variable must be reset at request end or the next request on
        the connection would inherit this one's id.
        """
        self._request_id = self.server.request_ids.issue()
        token = set_request_id(self._request_id)
        clear_last_trace()
        try:
            route()
        finally:
            reset_request_id(token)
            self._request_id = None

    def _send(self, status: int, payload: dict[str, object]) -> None:
        if self._request_id is not None and "request_id" not in payload:
            payload = {**payload, "request_id": self._request_id}
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        """The one choke point every response leaves through.

        Records the request in the flight recorder *before* writing the
        wire bytes (so a client hanging up cannot lose the entry) and
        dumps the recorder to disk on unhandled 5xx responses.
        """
        self._record_flight(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _record_flight(self, status: int) -> None:
        if self._request_id is None:
            return
        events = self.server.service.telemetry.events.for_request(self._request_id)
        self.server.flight.record(
            self._request_id,
            self.command,
            self.path,
            status,
            events=events,
            trace=last_request_trace(),
        )
        if status >= 500 and self.server.flight_dump_path is not None:
            try:
                self.server.flight.write(self.server.flight_dump_path)
            except OSError:
                logger.exception(
                    "failed to write flight dump to %s", self.server.flight_dump_path
                )

    def _read_json_body(self) -> object:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _HttpError(411, "Content-Length required")
        try:
            length = int(length_header)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length {length_header!r}") from None
        if length < 0:
            raise _HttpError(400, f"bad Content-Length {length}")
        if length > self.server.max_body_bytes:
            # Refuse before reading; the unread body poisons the
            # keep-alive stream, so close the connection too.
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds the"
                f" {self.server.max_body_bytes}-byte limit",
                close=True,
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"malformed JSON body: {error}") from None

    def _int_param(self, params: dict[str, list[str]], name: str, default: int) -> int:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise _HttpError(400, f"parameter {name}={values[-1]!r} is not an integer") from None

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except _HttpError as error:
            if error.close:
                self.close_connection = True
            self._send(error.status, {"error": str(error)})
            return
        except (ValueError, KeyError) as error:
            self._send(400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 - the wire must answer
            logger.exception("unhandled service error")
            self._send(500, {"error": f"internal error: {error}"})
            return
        self._send(status, payload)

    # -- routing --------------------------------------------------------------

    _GET_PATHS = (
        "/healthz",
        "/status",
        "/query/significant",
        "/query/topk",
        "/metrics",
        "/debug/flight",
        "/debug/profile",
    )
    _POST_PATHS = ("/append", "/query/itemset")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._with_request(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._with_request(self._route_post)

    def _route_get(self) -> None:
        split = urlsplit(self.path)
        path = split.path
        params = parse_qs(split.query)
        service = self.server.service
        if path == "/healthz":
            self._dispatch(
                lambda: (200, {"status": "ok", "generation": service.generation})
            )
        elif path == "/status":
            self._dispatch(lambda: (200, service.status()))
        elif path == "/query/significant":
            # Parameter parsing must run inside _dispatch so a bad value
            # becomes a 400 response, not an unanswered request.
            self._dispatch(
                lambda: (
                    200,
                    service.significant(limit=self._int_param(params, "limit", 50)),
                )
            )
        elif path == "/query/topk":
            self._dispatch(
                lambda: (
                    200,
                    service.top_k(
                        k=self._int_param(params, "k", 10),
                        min_cooccurrence=self._int_param(params, "min_cooccurrence", 1),
                    ),
                )
            )
        elif path == "/metrics":
            self._serve_metrics()
        elif path == "/debug/flight":
            self._dispatch(lambda: (200, self.server.flight.to_dict()))
        elif path == "/debug/profile":
            self._serve_profile(params)
        elif path in self._POST_PATHS:
            self._send(405, {"error": f"{path} requires POST"})
        else:
            self._send(404, {"error": f"unknown path {path}"})

    def _route_post(self) -> None:
        path = urlsplit(self.path).path
        service = self.server.service
        if path == "/append":
            self._dispatch(lambda: (200, service.append(**_append_args(self._read_json_body()))))
        elif path == "/query/itemset":
            self._dispatch(
                lambda: (200, service.correlation(_itemset_args(self._read_json_body())))
            )
        elif path in self._GET_PATHS:
            self._send(405, {"error": f"{path} requires GET"})
        else:
            self._send(404, {"error": f"unknown path {path}"})

    # -- non-JSON endpoints ----------------------------------------------------

    def _serve_metrics(self) -> None:
        """Prometheus text by default; the JSON snapshot on request.

        Content negotiation is deliberately simple: any ``Accept``
        header naming ``application/json`` gets the structured
        snapshot, everything else (Prometheus sends ``*/*``) gets the
        0.0.4 text exposition.
        """
        accept = self.headers.get("Accept", "")
        if "application/json" in accept:
            self._dispatch(lambda: (200, self.server.service.metrics_snapshot()))
            return
        try:
            text = render_exposition(self.server.service.metrics_snapshot())
        except Exception as error:  # noqa: BLE001 - the wire must answer
            logger.exception("metrics exposition failed")
            self._send(500, {"error": f"internal error: {error}"})
            return
        self._send_bytes(200, text.encode("utf-8"), EXPOSITION_CONTENT_TYPE)

    def _serve_profile(self, params: dict[str, list[str]]) -> None:
        """Run the sampling profiler for a bounded window, return text."""
        try:
            seconds = self._int_param(params, "seconds", 1)
            if seconds < 1:
                raise _HttpError(400, f"seconds must be >= 1, got {seconds}")
            seconds = min(seconds, MAX_PROFILE_SECONDS)
        except _HttpError as error:
            self._send(error.status, {"error": str(error)})
            return
        tracer = self.server.service.telemetry.tracer
        profiler = SamplingProfiler(tracer=tracer if tracer.enabled else None)
        with profiler:
            time.sleep(seconds)
        report = profiler.report()
        self._send_bytes(200, (report + "\n").encode("utf-8"), "text/plain; charset=utf-8")


def _append_args(body: object) -> dict[str, object]:
    if not isinstance(body, dict):
        raise _HttpError(400, "append body must be a JSON object")
    baskets = body.get("baskets")
    if not isinstance(baskets, list) or not all(isinstance(b, list) for b in baskets):
        raise _HttpError(400, 'append body needs "baskets": a list of lists')
    numeric = body.get("numeric", False)
    if not isinstance(numeric, bool):
        raise _HttpError(400, '"numeric" must be a boolean')
    return {"baskets": baskets, "numeric": numeric}


def _itemset_args(body: object) -> list[object]:
    if not isinstance(body, dict):
        raise _HttpError(400, "query body must be a JSON object")
    items = body.get("items")
    if not isinstance(items, list) or not items:
        raise _HttpError(400, 'query body needs "items": a non-empty list')
    return items


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MiningService`.

    Owns the wire-level observability state: the request-id source
    (sequential, so scripted sessions replay byte-for-byte), the flight
    recorder, and the path an unhandled 5xx dumps it to (``None``
    disables the dump; the recorder itself is always on).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MiningService,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        flight_capacity: int = 128,
        flight_dump_path: str | None = None,
    ) -> None:
        self.service = service
        self.max_body_bytes = max_body_bytes
        self.request_ids = RequestIdSource()
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.flight_dump_path = flight_dump_path
        super().__init__(address, _Handler)

    def handle_error(self, request: object, client_address: object) -> None:
        # Clients hanging up mid-keep-alive is routine, not a stack trace.
        import sys

        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionResetError, BrokenPipeError)):
            logger.debug("client %s disconnected: %s", client_address, error)
        else:
            logger.exception("error handling request from %s", client_address)


def serve(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    flight_dump_path: str | None = None,
) -> ServiceServer:
    """Bind a server (``port=0`` picks a free port); caller runs it.

    ``flight_dump_path`` names the file an unhandled 5xx dumps the
    flight recorder to (``None`` disables the automatic dump).

    >>> from repro.service import MiningService, serve
    >>> server = serve(MiningService())           # doctest: +SKIP
    >>> server.serve_forever()                    # doctest: +SKIP
    """
    return ServiceServer(
        (host, port),
        service,
        max_body_bytes=max_body_bytes,
        flight_dump_path=flight_dump_path,
    )
