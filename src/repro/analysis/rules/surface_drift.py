"""RPR012 — drift between the CLI, the API, and the documented knobs.

The miner's configuration surface is spelled out three times, and no
type checker reconciles the copies.  Three surfaces must agree:

* the authoritative knob set: ``ChiSquaredSupportMiner.__init__`` in
  ``chi2support.py`` (the constructor parameters, minus internal
  plumbing);
* the convenience API: the explicit keyword parameters of
  ``mine_correlations`` in ``mining.py`` — each must still be a miner
  knob, or a call that type-checks today crashes after a rename;
* the CLI: every ``--flag`` of the ``mine`` subcommand in ``cli.py``
  (minus presentation flags) must map to a miner knob (``-`` ↔ ``_``).

Knobs the CLI does not expose are the *API-only* surface; those must at
least be named somewhere under ``docs/``, or they are undiscoverable.
(Backend *names* need no rule: the miner, the CLI and the tests all
read them from :data:`repro.counting.BACKENDS`.)

The composite ``support`` parameter is special: the CLI and
``mine_correlations`` spell it as the pair ``support_count`` /
``support_fraction`` (the ``CellSupport`` members), which this rule
treats as equivalent to the knob.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.astutil import call_name
from repro.analysis.framework import LintModule, Rule, Violation, register
from repro.analysis.model.project import ProjectModel

_MINER_FILE = "chi2support.py"
_MINER_CLASS = "ChiSquaredSupportMiner"
_API_FILE = "mining.py"
_API_FUNCTION = "mine_correlations"
_CLI_FILE = "cli.py"
_CLI_COMMAND = "mine"

# Constructor parameters that are plumbing, not user-facing knobs.
_INTERNAL_PARAMS = {"self", "telemetry"}
# The composite support threshold and the pair of scalars it travels as.
_COMPOSITE = {"support": ("support_count", "support_fraction")}
# CLI flags that shape input/output, not the mining computation.
_PRESENTATION_FLAGS = {
    "input",
    "numeric",
    "limit",
    "json",
    "telemetry",
    "trace_out",
    "metrics_out",
    "profile",
    "log_level",
}


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def _find_miner_init(
    module: LintModule,
) -> tuple[list[str], int] | None:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == _MINER_CLASS):
            continue
        for child in node.body:
            if isinstance(child, ast.FunctionDef) and child.name == "__init__":
                return _param_names(child), child.lineno
    return None


def _find_api_params(module: LintModule) -> tuple[list[str], int] | None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and node.name == _API_FUNCTION:
            return _param_names(node), node.lineno
    return None


def _find_cli_flags(module: LintModule) -> dict[str, int] | None:
    """``--flag`` name (dashes as underscores) -> line, for ``mine``."""
    mine_parser: str | None = None
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and call_name(node.value.func) is not None
            and call_name(node.value.func).endswith("add_parser")
            and node.value.args
            and isinstance(node.value.args[0], ast.Constant)
            and node.value.args[0].value == _CLI_COMMAND
        ):
            mine_parser = node.targets[0].id
    if mine_parser is None:
        return None
    flags: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == mine_parser
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("--")
        ):
            continue
        flag = node.args[0].value[2:].replace("-", "_")
        flags[flag] = node.lineno
    return flags


def _documented_names(project: ProjectModel) -> set[str] | None:
    """Words of every ``docs/*.md`` file; None when there is no docs tree."""
    if project.root is None:
        return None
    docs = project.root / "docs"
    if not docs.is_dir():
        return None
    text: list[str] = []
    for page in sorted(docs.glob("*.md")):
        try:
            text.append(page.read_text(encoding="utf-8"))
        except OSError:
            continue
    corpus = "\n".join(text)
    return set(_KNOB_WORD_RE.findall(corpus))


_KNOB_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@register
class SurfaceDriftRule(Rule):
    id = "RPR012"
    name = "surface-drift"
    rationale = (
        "The CLI flags, mine_correlations parameters, and miner constructor "
        "knobs must name one configuration surface; an API-only knob that "
        "no document names is a feature nobody can find."
    )
    scope = "project"

    def check_project(self, project: ProjectModel) -> Iterator[Violation]:
        miner: tuple[LintModule, list[str], int] | None = None
        api: tuple[LintModule, list[str], int] | None = None
        cli: tuple[LintModule, dict[str, int]] | None = None
        for module in project.modules:
            basename = module.rel_path.rsplit("/", 1)[-1]
            if basename == _MINER_FILE and miner is None:
                found = _find_miner_init(module)
                if found is not None:
                    miner = (module, found[0], found[1])
            elif basename == _API_FILE and api is None:
                found = _find_api_params(module)
                if found is not None:
                    api = (module, found[0], found[1])
            elif basename == _CLI_FILE and cli is None:
                flags = _find_cli_flags(module)
                if flags is not None:
                    cli = (module, flags)
        if miner is None:
            return  # nothing authoritative to check against

        miner_module, params, init_line = miner
        knobs = {name for name in params if name not in _INTERNAL_PARAMS}
        for composite, scalars in _COMPOSITE.items():
            if composite in knobs:
                knobs.discard(composite)
                knobs.update(scalars)

        if api is not None:
            api_module, api_params, api_line = api
            for name in api_params:
                if name in ("db", "telemetry") or name in knobs:
                    continue
                yield Violation(
                    api_module.rel_path,
                    api_line,
                    0,
                    self.id,
                    f"{_API_FUNCTION}() parameter {name!r} matches no "
                    f"{_MINER_CLASS} knob; the call crashes at dispatch",
                )

        cli_names: set[str] = set()
        if cli is not None:
            cli_module, flags = cli
            cli_names = set(flags)
            for flag, line in sorted(flags.items()):
                if flag in _PRESENTATION_FLAGS or flag in knobs:
                    continue
                yield Violation(
                    cli_module.rel_path,
                    line,
                    0,
                    self.id,
                    f"CLI flag --{flag.replace('_', '-')} matches no "
                    f"{_MINER_CLASS} knob; the mine command cannot honour it",
                )

        documented = _documented_names(project)
        if cli is None or documented is None:
            return  # a partial tree (fixtures) checks only what it ships
        for knob in sorted(knobs):
            if knob in cli_names or knob in documented:
                continue
            yield Violation(
                miner_module.rel_path,
                init_line,
                0,
                self.id,
                f"miner knob {knob!r} has no CLI flag and is never named "
                "under docs/; an undiscoverable knob is drift waiting to "
                "happen — expose it or document it",
            )
