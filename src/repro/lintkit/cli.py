"""``python -m repro.lintkit`` — the repo's invariant gate.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors (unknown
path, unknown rule id, bad flags). ``--explain RLxxx`` prints a rule's
rationale with a compliant and a non-compliant example. Every finding
fails; the only escape is an inline ``# lint: allow[RLxxx] reason``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.lintkit import rules as _rules  # noqa: F401  (fills the registry)
from repro.lintkit.engine import RULES, lint_sources, load_sources
from repro.lintkit.report import render_json, render_text

__all__ = ["main"]

USAGE_EXIT = 2
FINDINGS_EXIT = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description=(
            "AST-based invariant checker: determinism, artifact-key "
            "purity, and resource hygiene (rules RL101-RL109)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests benchmarks)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="additionally write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RLxxx",
        help="print one rule's rationale and examples, then exit",
    )
    return parser


def _explain(rule_id: str) -> int:
    rule = RULES.get(rule_id)
    if rule is None:
        print(
            f"unknown rule {rule_id!r}; known rules: {', '.join(sorted(RULES))}",
            file=sys.stderr,
        )
        return USAGE_EXIT
    print(f"{rule.id} [{rule.name}] severity={rule.severity}")
    print()
    print(rule.rationale())
    print()
    print("compliant:")
    for line in rule.ok_example.splitlines():
        print(f"    {line}")
    print()
    print("non-compliant:")
    for line in rule.bad_example.splitlines():
        print(f"    {line}")
    return 0


def _list_rules() -> int:
    for rule_id, rule in sorted(RULES.items()):
        print(f"{rule_id}  {rule.name:<28} {rule.summary}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.explain is not None:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: provide at least one path (e.g. src tests benchmarks)",
            file=sys.stderr,
        )
        return USAGE_EXIT

    root = os.path.abspath(args.root or os.getcwd())
    try:
        sources = load_sources(args.paths, root=root)
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc.args[0]}", file=sys.stderr)
        return USAGE_EXIT

    findings = lint_sources(sources)
    line_text = {
        (path, number): line.strip()
        for path, source in sources.items()
        for number, line in enumerate(source.splitlines(), start=1)
    }

    report = render_json(findings, len(sources), line_text)
    if args.format == "json":
        sys.stdout.write(report)
    else:
        print(render_text(findings, len(sources), line_text))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return FINDINGS_EXIT if findings else 0
