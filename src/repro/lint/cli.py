"""Command-line front end of the lint engine.

Exit codes: ``0`` when the tree is clean, ``1`` when there are
findings, ``2`` for operational errors (a root without ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-invariant lint for the repro codebase.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root (default: auto-detected from this file)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the findings report as JSON to FILE ('-' = stdout)",
    )
    return parser


def _detect_root(explicit: Optional[Path]) -> Path:
    if explicit is not None:
        return explicit
    # src/repro/lint/cli.py -> repository root is four levels up.
    return Path(__file__).resolve().parents[3]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = _detect_root(args.root)
    if not (root / "src" / "repro").is_dir():
        print(f"error: {root} has no src/repro tree", file=sys.stderr)
        return 2

    report = run_lint(root)

    # With ``--json -`` the machine-readable report owns stdout; the
    # human-readable rendering moves to stderr so the output stays
    # parseable (``check_repro --json - | jq …``).
    human = sys.stdout
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if str(args.json) == "-":
            print(payload)
            human = sys.stderr
        else:
            args.json.write_text(payload + "\n")

    for finding in report.findings:
        print(finding, file=human)
    if report.findings:
        print(
            f"\n{len(report.findings)} finding(s). Fix them, or suppress a "
            "deliberate exception with '# repro: allow(<rule-id>): <reason>'.",
            file=human,
        )
        return 1
    print("check_repro: all invariants hold", file=human)
    return 0
