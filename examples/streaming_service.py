"""Streaming service demo: append baskets over HTTP, watch the border move.

Boots the mining service in-process (the same server ``python -m repro
serve`` runs), feeds it Quest baskets in three appends, and queries it
between appends — showing what the batch algorithm of the paper looks
like as a long-lived service with incrementally maintained state.

Every append re-derives the full SIG border from merged cached + delta
counts, so the state after each generation is bit-identical to a cold
batch mine — this script checks that, and checks that the per-append
telemetry reconciliation agreed.  CI runs it as the service smoke test.

    python examples/streaming_service.py
"""

import json
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms.chi2support import ChiSquaredSupportMiner  # noqa: E402
from repro.data.basket import BasketDatabase  # noqa: E402
from repro.data.quest import QuestParameters, generate_quest  # noqa: E402
from repro.measures.cellsupport import CellSupport  # noqa: E402
from repro.obs import Telemetry, validate_exposition  # noqa: E402
from repro.service import MiningService, serve  # noqa: E402


def request(base: str, method: str, path: str, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method, headers=headers or {}
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    quest = generate_quest(
        QuestParameters(seed=41, n_transactions=240, n_items=24, n_patterns=8)
    )
    baskets = [list(basket) for basket in quest]
    chunks = [baskets[:80], baskets[80:160], baskets[160:]]

    service = MiningService(
        support_count=5, support_fraction=0.3, telemetry=Telemetry.create()
    )
    server = serve(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"service up at {base}")

    accumulated: list[list[int]] = []
    for chunk in chunks:
        outcome = request(base, "POST", "/append", {"baskets": chunk, "numeric": True})
        accumulated.extend(chunk)
        assert outcome["reconciliation_agreed"], "telemetry reconciliation failed"
        print(
            f"generation {outcome['generation']}: +{outcome['appended']} baskets "
            f"-> {outcome['significant']} significant itemsets "
            f"({len(outcome['promoted'])} promoted, {len(outcome['demoted'])} demoted; "
            f"{outcome['tables_served']} tables served from cache, "
            f"{outcome['tables_recounted']} recounted)"
        )
        # Point-query between appends: counted off this generation's
        # snapshot, so the answer reports the generation just published.
        point = request(base, "POST", "/query/itemset", {"items": [2, 6]})
        assert point["generation"] == outcome["generation"]
        print(
            f"  point query {{item2 item6}}: chi2={point['chi_squared']:.2f} "
            f"correlated={point['correlated']} n={point['n']}"
        )

    # -- prove the incremental state equals a cold batch mine -----------
    batch_db = BasketDatabase.from_id_baskets(
        [tuple(b) for b in accumulated], n_items=service.miner.db.n_items
    )
    batch = ChiSquaredSupportMiner(
        support=CellSupport(count=5, fraction=0.3)
    ).mine(batch_db)
    incremental = service.miner.result
    batch_rules = sorted((r.itemset.items, r.statistic) for r in batch.rules)
    incremental_rules = sorted(
        (r.itemset.items, r.statistic) for r in incremental.rules
    )
    assert incremental_rules == batch_rules, "incremental state diverged from batch"
    print(
        f"differential check: {len(batch_rules)} rules bit-identical "
        "to a cold batch mine"
    )

    # -- query the live service -----------------------------------------
    top = request(base, "GET", "/query/topk?k=3&min_cooccurrence=2")
    print("top pair correlations right now:")
    for entry in top["entries"]:
        print(
            f"  #{entry['rank']}: {{{' '.join(entry['items'])}}} "
            f"chi2={entry['chi2']:.2f} (together {entry['cooccurrence']}x)"
        )

    status = request(base, "GET", "/status")
    print(
        f"status at generation {status['generation']}: "
        f"{status['n_baskets']} baskets, {status['significant']} significant itemsets"
    )

    # -- telemetry reconciliation across the service lifetime -----------
    # /metrics defaults to Prometheus text; the JSON snapshot is behind
    # content negotiation.  Check both faces: the text must satisfy the
    # in-repo exposition validator, the JSON drives the reconciliation.
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        problems = validate_exposition(response.read().decode("utf-8"))
    assert problems == [], problems
    print("GET /metrics serves validator-clean Prometheus text")

    snapshot = request(
        base, "GET", "/metrics", headers={"Accept": "application/json"}
    )
    requests_by_key = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("service_requests")
    }
    total = sum(sorted(requests_by_key.values()))
    errors = sum(
        value
        for key, value in sorted(requests_by_key.items())
        if 'status="error"' in key
    )
    assert snapshot["gauges"]["index_generation"] == status["generation"]
    assert errors == 0, requests_by_key
    print(
        f"telemetry reconciles: {total} requests counted, 0 errors, "
        f"index_generation gauge == {status['generation']}"
    )

    # -- flight recorder: a 4xx leaves a correlated post-mortem ---------
    try:
        request(base, "GET", "/definitely/not/a/path")
        raise AssertionError("expected a 404")
    except urllib.error.HTTPError as error:
        assert error.code == 404
        failing_id = error.headers["X-Request-Id"]
        error.read()
    flight = request(base, "GET", "/debug/flight")
    failing = [
        entry for entry in flight["entries"] if entry["request_id"] == failing_id
    ]
    assert len(failing) == 1 and failing[0]["status"] == 404, flight["entries"]
    dump_path = Path("service-flight.json")
    dump_path.write_text(json.dumps(flight, indent=2, sort_keys=True) + "\n")
    print(
        f"flight recorder holds the 404 under {failing_id}; "
        f"dump written to {dump_path}"
    )

    server.shutdown()
    server.server_close()
    print("service smoke: OK")


if __name__ == "__main__":
    main()
