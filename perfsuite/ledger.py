"""The phase ledger: where each level of a mine spends its time.

The miner records spans for seed-pair generation (``mine.seed_pairs``),
each level (``mine.level``), its table counting (``mine.level.count``,
plus ``LevelStats.counting_seconds`` for backends that count table by
table inside the loop) and the apriori join (``mine.level.join``).  The
per-itemset decision loop between counting and the join has no span of
its own, so :class:`PhaseRecorder` times the calls into its layers from
the benchmark:

* ``support`` — ``CellSupport.__call__`` (the cell-support filter);
* ``statistic`` — ``CorrelationTest.statistic`` (the chi-squared value);
* ``evidence`` — ``repro.stats.chi2.sf`` and
  ``ContingencyTable.validity`` (the p-value and validity diagnostics
  packaged for each SIG itemset).

``other`` is what the named phases leave of the level: building rule
objects, border and NOTSIG inserts, metric updates.  The recorder
replaces those four attributes while it is entered and puts the
originals back on exit.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from time import perf_counter

from perfsuite.common import use_source

use_source()

from repro.core.contingency import ContingencyTable  # noqa: E402
from repro.core.correlation import CorrelationTest  # noqa: E402
from repro.measures.cellsupport import CellSupport  # noqa: E402
from repro.stats import chi2  # noqa: E402

PHASES = ("seed", "count", "support", "statistic", "evidence", "join", "other")
WRAPPED = (
    ("support", CellSupport, "__call__"),
    ("statistic", CorrelationTest, "statistic"),
    ("evidence", chi2, "sf"),
    ("evidence", ContingencyTable, "validity"),
)

# Phase sums are read from one clock; a level's named phases may exceed
# its wall time by at most this much before the ledger is inconsistent.
CLOCK_SLACK_S = 1e-6


class PhaseRecorder:
    """Times every outermost call into the wrapped decision-loop layers.

    A call made from inside another wrapped call (``validity`` under
    ``sf``, say) is left to its caller, so no interval is counted twice.
    Not thread-safe: the mines it wraps run on one thread.
    """

    def __init__(self) -> None:
        self.starts: dict[str, list[float]] = {"support": [], "statistic": [], "evidence": []}
        self.seconds: dict[str, list[float]] = {"support": [], "statistic": [], "evidence": []}
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "PhaseRecorder":
        for phase, owner, name in WRAPPED:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(phase, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, phase: str, function):
        starts = self.starts[phase]
        seconds = self.seconds[phase]

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth = 1
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds.append(perf_counter() - start)
                starts.append(start)
                self._depth = 0

        return timed

    def between(self, phase: str, start: float, end: float) -> tuple[float, int]:
        """Seconds and calls of ``phase`` that began inside ``[start, end]``."""
        starts = self.starts[phase]
        lo = bisect_left(starts, start)
        hi = bisect_right(starts, end)
        return sum(self.seconds[phase][lo:hi]), hi - lo


def originals() -> dict[str, object]:
    """The attributes the recorder wraps, as they are right now."""
    return {f"{phase}:{name}": vars(owner)[name] for phase, owner, name in WRAPPED}


def mine_ledger(tracer, recorder: PhaseRecorder, level_stats) -> dict[str, object]:
    """Split the most recent ``mine`` span into the ledger's phases.

    Per level: ``count + support + statistic + evidence + join + other
    == wall``.  For the whole mine, ``seed`` joins the phases and
    ``other`` also takes the time outside every level (engine set-up
    and teardown), so the seven phases sum to the mine's wall time.
    """
    root = next(span for span in reversed(tracer.roots) if span.name == "mine")
    seed = sum(c.duration for c in root.children if c.name == "mine.seed_pairs")
    level_spans = [c for c in root.children if c.name == "mine.level"]
    if len(level_spans) != len(level_stats):
        raise ValueError(
            f"{len(level_spans)} level spans for {len(level_stats)} levels"
        )
    levels: list[dict[str, object]] = []
    totals = dict.fromkeys(PHASES, 0.0)
    totals["seed"] = seed
    for span, stats in zip(level_spans, level_stats):
        entry: dict[str, object] = {
            "level": stats.level,
            "candidates": stats.candidates,
            "wall": span.duration,
            "count": stats.counting_seconds,
            "join": sum(c.duration for c in span.children if c.name == "mine.level.join"),
        }
        for phase in ("support", "statistic", "evidence"):
            seconds, calls = recorder.between(phase, span.start, span.end)
            entry[phase] = seconds
            entry[f"{phase}_calls"] = calls
        named = sum(entry[p] for p in ("count", "support", "statistic", "evidence", "join"))
        entry["other"] = span.duration - named
        levels.append(entry)
        for phase in ("count", "support", "statistic", "evidence", "join"):
            totals[phase] += entry[phase]
    named = sum(totals[p] for p in PHASES if p != "other")
    totals["other"] = root.duration - named
    return {"wall": root.duration, "phases": totals, "levels": levels}


def ledger_consistent(ledger: dict[str, object]) -> bool:
    """Whether no level's named phases overrun its wall time."""
    return all(level["other"] >= -CLOCK_SLACK_S for level in ledger["levels"]) and (
        ledger["phases"]["other"] >= -CLOCK_SLACK_S
    )


def flatten_spans(tracer) -> list[dict[str, object]]:
    """The tracer's finished span forest as flat records with parent indexes."""
    records: list[dict[str, object]] = []

    def walk(span, parent: int | None) -> None:
        index = len(records)
        records.append(
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": parent,
                "request_id": None,
            }
        )
        for child in span.children:
            walk(child, index)

    for root in tracer.roots:
        if root.end is not None:
            walk(root, None)
    return records
