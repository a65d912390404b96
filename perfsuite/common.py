"""Shared pieces of the benchmark: paths, statistics, checks, host fingerprint."""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfsuite" / "results"

# Mining parameters shared by every workload (the paper's Quest setting).
SIGNIFICANCE = 0.95
SUPPORT_COUNT = 5
SUPPORT_FRACTION = 0.3

# Top-K pair search parameters (the FP-tree engine's text setting).
TOPK_K = 10
TOPK_MIN_COOCCURRENCE = 5

# Set-ups per run; ``setup_s`` is their median.  They are spread over
# the run (see ``Spread``), so the median reflects the host's state
# across the run rather than in its first second.
SETUP_REPEATS = 5

# Only this many failure messages are kept for the report.
_MAX_FAILURE_MESSAGES = 20


def source_present() -> bool:
    """Whether the checkout holds the package this benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def median(values: list[float]) -> float:
    """The median; a workload with no sample of this kind is a broken run."""
    if not values:
        raise ValueError("no samples to take a median of")
    return statistics.median(values)


def floor(values: list[float]) -> float:
    """The fastest sample: how the benchmark reports a repeated in-process call.

    Interference on a shared host only ever slows a call down, in bursts
    that cover anything from a tenth to most of a run.  The fastest of a
    run's samples therefore tracks the code's own cost, while the median
    jumps whenever bursts cover half the run (perfsuite/README.md gives
    the spreads of both).
    """
    if not values:
        raise ValueError("no samples to take the fastest of")
    return min(values)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below it."""
    if not values:
        raise ValueError("no samples to take a percentile of")
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Spread:
    """A call a run makes a fixed number of times, spread over its rounds.

    For a costly call that needs fewer samples than the rounds give; the
    count does not depend on how fast the host runs.  ``done`` counts
    calls made before the rounds began.
    """

    call: Callable[[], object]
    times: int
    done: int = 0

    def catch_up(self, progress: float) -> None:
        """Make the calls due once ``progress`` (0 to 1) of the run has passed."""
        while self.done < min(self.times, 1 + int(self.times * progress)):
            self.call()
            self.done += 1


def run_rounds(seconds: float, one_round, spread: list[Spread], min_rounds: int = 1):
    """Rounds until ``seconds`` have passed, with the ``spread`` calls among them.

    ``one_round(index)`` runs one round.  Runs at least ``min_rounds``
    rounds.  Before each round, every spread call whose share of the run
    (of ``seconds``, or of ``min_rounds`` while fewer have run) has
    passed is made; calls still due when the rounds end are made after
    them.  Returns ``(rounds, elapsed)``.
    """
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < start + seconds:
        elapsed = time.perf_counter() - start
        progress = min(rounds / min_rounds, elapsed / seconds if seconds > 0 else 1.0)
        for task in spread:
            task.catch_up(progress)
        one_round(rounds)
        rounds += 1
    for task in spread:
        task.catch_up(1.0)
    return rounds, time.perf_counter() - start


def stop_children(grace_s: float = 5.0) -> None:
    """End every process this run started, and wait until each has ended.

    The parallel backend's shared memory starts Python's resource
    tracker, a helper that would otherwise outlive the run by a moment.
    Every other child goes first: a pool worker is terminated and
    joined, anything else is sent SIGTERM, and SIGKILL once ``grace_s``
    have passed.  The tracker is stopped last, once no child shares its
    pipe, so it can release anything still registered.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    _end_children(grace_s, spare=getattr(tracker, "_pid", None))
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    _end_children(grace_s)


def _end_children(grace_s: float, spare: int | None = None) -> None:
    """Reap every child but ``spare``, signalling those still running."""
    deadline = time.monotonic() + grace_s
    while True:
        children = [pid for pid in _child_pids() if pid != spare]
        if not children:
            return
        kill = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in children:
            # A child may be reaped or gone between the listing and here.
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, kill)
        time.sleep(0.05)


def _child_pids() -> list[int]:
    """The live (not yet reaped) children of this process, read from ``/proc``."""
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name, in brackets, may hold spaces; the parent id
        # is the second field after it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            children.append(int(entry.name))
    return children


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 where nothing was attempted."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        """Record a failure of an operation already counted as attempted."""
        self.failed += 1
        if len(self.messages) < _MAX_FAILURE_MESSAGES:
            self.messages.append(message)

    def merge(self, other: "Outcome") -> None:
        """Add another outcome's counts (one kept per thread) to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        room = _MAX_FAILURE_MESSAGES - len(self.messages)
        self.messages.extend(other.messages[:room])


def host_fingerprint() -> dict[str, object]:
    """Where a report was measured: CPUs, CPU model, versions, commit."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"
