"""``python -m repro.analysis`` — lint the tree, exit non-zero on findings."""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.framework import lint
from repro.analysis.reporters import render_json, render_rule_list, render_text

__all__ = ["main", "build_parser"]

# Default location of the incremental cache (gitignored); the cache
# only engages on full default runs — see repro.analysis.incremental.
DEFAULT_CACHE = ".replint-cache.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description="Semantic invariant checker for the correlation-mining repo",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the project root)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root that relative paths and rule scopes resolve against",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated rule ids to run (default: all)"
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated rule ids to skip"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="report stale suppressions even under --select/--ignore",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=DEFAULT_CACHE,
        help=(
            "incremental cache file, relative to --root "
            f"(default: {DEFAULT_CACHE}; full default runs only)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _split(ids: str | None) -> list[str] | None:
    if ids is None:
        return None
    return [part.strip() for part in ids.split(",") if part.strip()]


_RENDERERS = {"text": render_text, "json": render_json}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(render_rule_list())
        return 0
    root = Path(options.root)
    cache_path = None if options.no_cache else root / options.cache
    try:
        report = lint(
            paths=options.paths or None,
            root=root,
            select=_split(options.select),
            ignore=_split(options.ignore),
            strict=options.strict,
            cache_path=cache_path,
        )
    except ValueError as error:
        print(f"replint: error: {error}", file=sys.stderr)
        return 2
    print(_RENDERERS[options.format](report))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
