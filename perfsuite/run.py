"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfsuite/run.py --workload quest-levels --seed 1997 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes the run's spans to
``perfsuite/results/trace-<workload>.json``).  Each metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes a
report with the host fingerprint to ``perfsuite/results/``.  The exit
code is 0 only when every checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfsuite.common import (  # noqa: E402
    RESULTS,
    Outcome,
    host_fingerprint,
    source_present,
    stop_children,
)

WORKLOADS = ("quest-levels", "quest-tall", "text-wide", "service-mixed")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, outcome: Outcome):
    """``(metrics, report, trace_data)`` of one workload run."""
    if workload == "service-mixed":
        from perfsuite import service

        return service.run(seed, seconds, trace, outcome)
    from perfsuite import mining
    from perfsuite.datasets import MINING_WORKLOADS

    spec = MINING_WORKLOADS[workload]
    if trace:
        return mining.run_traced(spec, seed, seconds, outcome)
    metrics, report = mining.run_end_to_end(spec, seed, seconds, outcome)
    return metrics, report, None


def main(argv: list[str] | None = None) -> int:
    """Run the workload; however it ends, no process it started is left."""
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared_units(trace)

    outcome = Outcome()
    metrics, report, trace_data = run_workload(
        args.workload, args.seed, args.seconds, trace, outcome
    )
    if set(metrics) != set(units):
        print(
            "error: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "host": host_fingerprint(),
                "result": result,
                "run": report,
                "failures": outcome.messages,
            },
            handle,
            indent=2,
        )
    if trace_data is not None:
        with open(RESULTS / f"trace-{args.workload}.json", "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, **trace_data}, handle)

    for message in outcome.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>16.6f} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
