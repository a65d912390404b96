"""RPR013 — direct clock reads outside the clock module.

The repo's determinism story rests on one discipline: anything that
reads wall time does it through an injectable
:class:`~repro.obs.clock.Clock` (``default_clock()`` in production, a
``FakeClock`` in tests), so spans, histograms, pool timings
and event timestamps are byte-reproducible under test.  A stray
``time.perf_counter()`` / ``time.time()`` / ``time.monotonic()`` deep
in library code reintroduces real time where a test injected a fake
one, and the resulting flakiness surfaces far from its cause.

The rule flags calls to those three functions anywhere under
``src/repro/`` — alias-aware, so ``import time as t; t.monotonic()``
and ``from time import perf_counter`` are caught too.
``src/repro/obs/clock.py`` is the one legitimate caller (it *is* the
clock abstraction) and is exempt.  ``time.sleep`` is not a clock read
and stays legal.

Sites that genuinely must track real elapsed time regardless of any
injected clock (the parallel pool's task-timeout deadlines) carry an
inline suppression with a justification, which is exactly the audit
trail this rule exists to force.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.framework import LintModule, Rule, Violation, register
from repro.analysis.model.project import ProjectModel

# The banned fully-qualified callables: reads of process/wall time that
# the Clock protocol abstracts over.
_BANNED = {
    "time.perf_counter": "time.perf_counter()",
    "time.time": "time.time()",
    "time.monotonic": "time.monotonic()",
}


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


@register
class ClockDisciplineRule(Rule):
    id = "RPR013"
    name = "direct-clock-read"
    rationale = (
        "Library code must read time through an injectable Clock "
        "(repro.obs.clock) so runs are deterministic under FakeClock; "
        "direct time.perf_counter()/time.time()/time.monotonic() calls "
        "bypass the injection point."
    )
    dir_scope = ("src/repro/",)
    dir_exempt = ("src/repro/obs/clock.py",)

    def check_module(self, module: LintModule, project: ProjectModel) -> Iterator[Violation]:
        symbols = project.symbols.module(module.rel_path)
        aliases = symbols.imports if symbols is not None else {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            target = aliases.get(head)
            if target is None:
                continue  # not an imported name; locals may shadow freely
            resolved = f"{target}.{rest}" if rest else target
            spelled = _BANNED.get(resolved)
            if spelled is not None:
                yield Violation(
                    module.rel_path,
                    node.lineno,
                    node.col_offset,
                    self.id,
                    f"direct {spelled} call; take a Clock from "
                    "repro.obs.clock (default_clock() / FakeClock) and "
                    "call it instead",
                )
