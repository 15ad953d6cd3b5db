"""The ``repro lint`` subcommand (see :mod:`repro.lint`).

Exit codes: 0 clean (every finding suppressed or baselined), 1 active
findings (or a grown baseline under ``--baseline-guard``), 2 usage/IO
errors.  ``--format json`` prints the stable report schema CI uploads
as an artifact; ``--write-baseline`` (re)generates the baseline file
from the current active findings — justifications must then be filled
in by hand before committing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    guard_shrink_only,
)
from repro.lint.engine import run_lint
from repro.lint.rules import all_rules, get_rules

__all__ = ["add_lint_parser", "run_from_args"]

DEFAULT_PATHS = ("src", "tests")


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``lint`` subcommand on the ``repro`` CLI."""
    parser = subparsers.add_parser(
        "lint",
        help="statically check the repo's invariant contracts (REP001–REP006)",
        description=(
            "AST-based invariant linter: tick discipline, determinism, "
            "backend pickling-safety, registry coverage, exception "
            "hygiene.  Suppress a finding inline with "
            "`# repro: allow[REP001] reason`; grandfathered findings "
            "live in the committed baseline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the stable CI-artifact schema)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            f"baseline file (default: {DEFAULT_BASELINE_NAME} in the "
            "current directory when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report grandfathered findings too)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current active findings to the baseline file and exit",
    )
    parser.add_argument(
        "--baseline-guard",
        metavar="PREVIOUS",
        default=None,
        help=(
            "compare the committed baseline against PREVIOUS (the base "
            "branch's copy) and fail if it grew — the baseline is a ratchet"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed/baselined findings in text output",
    )
    parser.set_defaults(func=run_from_args)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
            print(f"       {rule.contract}")
        return 0

    try:
        rules = get_rules(args.rule)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)

    if args.baseline_guard:
        return _guard(baseline_path, Path(args.baseline_guard))

    paths: List[str] = args.paths or [p for p in DEFAULT_PATHS if Path(p).exists()]
    if not paths:
        print("error: no lint paths given and src/tests not found", file=sys.stderr)
        return 2

    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.write_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError, KeyError) as exc:
            print(f"error: bad baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_lint(paths, rules=rules, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        new = Baseline.from_findings(
            (diag.finding for diag in report.active),
            justification="grandfathered — REPLACE with a one-line why-unfixable",
        )
        new.save(baseline_path)
        print(
            f"wrote {len(new.entries)} entr{'y' if len(new.entries) == 1 else 'ies'} "
            f"to {baseline_path}; fill in the justifications before committing"
        )
        return 0

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text(verbose=args.verbose))
    return report.exit_code


def _guard(current_path: Path, previous_path: Path) -> int:
    """--baseline-guard: fail when the committed baseline grew."""
    current = (
        Baseline.load(current_path) if current_path.exists() else Baseline()
    )
    previous = (
        Baseline.load(previous_path) if previous_path.exists() else Baseline()
    )
    grown = guard_shrink_only(current, previous)
    if grown:
        for entry in grown:
            print(
                f"error: baseline grew: {entry.rule} {entry.path} "
                f"({entry.justification or 'no justification'})",
                file=sys.stderr,
            )
        print(
            "the lint baseline is a ratchet — fix the new finding or "
            "suppress it inline with a reason instead of grandfathering it",
            file=sys.stderr,
        )
        return 1
    print(
        f"baseline ok: {len(current.entries)} entr"
        f"{'y' if len(current.entries) == 1 else 'ies'} "
        f"(previous {len(previous.entries)})"
    )
    return 0
