"""Keep-alive latency of the HTTP front-end.

A response leaves the handler in two writes, headers then body.  With
Nagle's algorithm on, the body waits until the client acknowledges the
headers, and a client delays that ACK by about 40 ms, so every
keep-alive request would take at least that long.  The handler sets
``TCP_NODELAY``; this test pins the fix with a bound the delayed-ACK
floor cannot meet.
"""

import http.client
import statistics
import threading
import time

from repro.service import MiningService, serve

REQUESTS = 20
MEDIAN_BOUND_S = 0.020


def test_keepalive_healthz_median_is_under_the_delayed_ack_floor():
    service = MiningService()
    service.append([["tea", "coffee"]] * 4 + [["milk"]] * 2)
    server = serve(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    latencies = []
    try:
        for _ in range(REQUESTS):
            start = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            latencies.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert statistics.median(latencies) < MEDIAN_BOUND_S, latencies
