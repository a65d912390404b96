"""Golden wire-format regression for the mining service.

A scripted append/query session over Quest data, run against a real
HTTP server, captured byte for byte.  Two guarantees under test:

* the *wire bytes* are canonical — every response parses back to JSON
  that re-serialises to exactly the bytes received (``sort_keys`` plus
  one trailing newline, no timing data anywhere);
* the *session transcript* matches ``tests/golden/service_session.json``
  exactly, so any change to response shapes, mining output, or
  incremental bookkeeping shows up as a reviewable fixture diff.

Regenerate after an intentional change with::

    GOLDEN_REGENERATE=1 PYTHONPATH=src python -m pytest tests/service/test_service_golden.py
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.data.quest import QuestParameters, generate_quest
from repro.service import MiningService, serve
from tests.goldens import check_against_golden


@pytest.fixture(scope="module")
def quest_baskets():
    db = generate_quest(
        QuestParameters(seed=97, n_transactions=80, n_items=14, n_patterns=6)
    )
    return [list(basket) for basket in db]


def raw_request(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_scripted_session_matches_golden(quest_baskets):
    service = MiningService(support_count=3, support_fraction=0.3)
    server = serve(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    script = [
        ("GET", "/healthz", None),
        ("POST", "/append", {"baskets": quest_baskets[:50], "numeric": True}),
        ("GET", "/status", None),
        ("POST", "/append", {"baskets": quest_baskets[50:], "numeric": True}),
        ("POST", "/append", {"baskets": [], "numeric": True}),
        ("GET", "/status", None),
        ("GET", "/query/significant?limit=5", None),
        ("GET", "/query/topk?k=4&min_cooccurrence=2", None),
        ("POST", "/query/itemset", {"items": [0, 1]}),
        ("POST", "/query/itemset", {"items": ["item2", "item3"]}),
        ("POST", "/query/itemset", {"items": [0, 1]}),  # repeated query
        ("GET", "/status", None),
        ("GET", "/nowhere", None),
        ("POST", "/query/itemset", {"items": [0]}),
    ]

    transcript = []
    try:
        for method, path, body in script:
            status, raw = raw_request(base, method, path, body)
            payload = json.loads(raw)
            # Canonical wire bytes: what we got is exactly what a
            # sort_keys re-serialisation produces.
            assert raw == (json.dumps(payload, sort_keys=True) + "\n").encode()
            transcript.append(
                {
                    "request": {"method": method, "path": path, "body": body},
                    "status": status,
                    "response": payload,
                }
            )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    check_against_golden("service_session", {"session": transcript})


def test_session_is_reproducible(quest_baskets):
    """Two cold services given the same script agree response for response."""

    def run():
        service = MiningService(support_count=3, support_fraction=0.3)
        out = []
        out.append(service.append(quest_baskets[:50], numeric=True))
        out.append(service.append(quest_baskets[50:], numeric=True))
        out.append(service.significant(limit=5))
        out.append(service.top_k(k=4, min_cooccurrence=2))
        out.append(service.correlation([0, 1]))
        return json.dumps(out, sort_keys=True)

    assert run() == run()
