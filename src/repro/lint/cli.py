"""``python -m repro lint`` — CLI front-end for :mod:`repro.lint`.

Exit codes: 0 when no error-severity findings remain, 1 when any do,
2 on usage errors (consistent with the other subcommands).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .engine import Finding, all_rules, lint_paths

__all__ = ["run", "add_arguments"]

DEFAULT_PATHS = ("src/repro",)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a subparser."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids, id prefixes, or family names "
             "(e.g. DET,FLT001,handler-hygiene)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json", "sarif"),
        dest="output_format",
        help="output format: text (default), json, or sarif (2.1.0)",
    )
    parser.add_argument(
        "--check-noqa", action="store_true",
        help="also flag `# repro: noqa` comments that suppress nothing",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print per-rule finding counts after the findings",
    )


def _list_rules() -> int:
    for rule in all_rules():
        scopes = ", ".join(rule.scopes) if rule.scopes else "(all files)"
        print(f"{rule.id}  [{rule.family}]  {rule.summary}")
        print(f"        scope: {scopes}   severity: {rule.severity}")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute the lint subcommand."""
    if args.list_rules:
        return _list_rules()
    paths = list(args.paths) if args.paths else list(DEFAULT_PATHS)
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    on_file = None
    if getattr(args, "verbose", False):
        on_file = lambda p: print(f"lint: {p}", file=sys.stderr)  # noqa: E731
    try:
        findings = lint_paths(
            paths, select=select, on_file=on_file, check_noqa=args.check_noqa
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = [f for f in findings if f.severity == "error"]
    if args.output_format == "json":
        print(json.dumps([f.__dict__ for f in findings], indent=2))
    elif args.output_format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(findings))
    else:
        for f in findings:
            print(f.format())
        if not getattr(args, "quiet", False):
            _summary(findings, errors)
    if args.statistics and findings:
        counts = Counter(f.rule for f in findings)
        for rule_id, count in sorted(counts.items()):
            print(f"{count:5d}  {rule_id}")
    return 1 if errors else 0


def _summary(findings: list[Finding], errors: list[Finding]) -> None:
    if not findings:
        print("lint: clean")
    else:
        warn = len(findings) - len(errors)
        extra = f" ({warn} warning{'s' * (warn != 1)})" if warn else ""
        print(f"lint: {len(errors)} error{'s' * (len(errors) != 1)}{extra}")
