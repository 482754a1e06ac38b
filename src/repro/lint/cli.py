"""``python -m repro.lint`` — lint SPMD programs for protocol bugs."""

from __future__ import annotations

import argparse
import sys

from .baseline import apply_baseline, load_baseline, write_baseline
from .emit import to_json, to_sarif, to_text
from .findings import RULES
from .runner import lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static checker for the SPMD protocol contract of the simulated "
            "machine: lexical rules R1-R7, R13 and R14 plus the whole-program "
            "dataflow rules R8-R12 (see docs/SPMD_CONTRACT.md and "
            "docs/STATIC_ANALYSIS.md). Suppress a deliberate violation with "
            "'# noqa: R<n>' on the offending line; dataflow rules require a "
            "justification: '# noqa: R8 -- <why this is safe>'."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary line"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json/sarif are byte-deterministic documents)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="filter findings recorded in this baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="FILE",
        help="write current findings to FILE as the new baseline and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when the baseline contains stale (no-longer-firing) entries",
    )
    parser.add_argument(
        "--no-flow",
        action="store_true",
        help="skip the whole-program dataflow rules R8-R12",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point.

    Exit status: 0 clean, 1 findings (or, with ``--strict``, stale
    baseline entries), 2 on usage errors.
    """
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code, text in sorted(RULES.items()):
            print(f"{code}: {text}")
        return 0
    findings = lint_paths(args.paths, flow=not args.no_flow)

    if args.update_baseline:
        n = write_baseline(args.update_baseline, findings)
        print(f"repro.lint: wrote {n} baseline entr{'ies' if n != 1 else 'y'}")
        return 0

    stale: list[dict] = []
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro.lint: error: {exc}", file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, baseline)
        for entry in stale:
            print(
                f"repro.lint: stale baseline entry {entry['fingerprint']} "
                f"({entry['code']} in {entry['path']}) no longer fires — "
                f"remove it",
                file=sys.stderr,
            )

    if args.format == "json":
        print(to_json(findings))
    elif args.format == "sarif":
        print(to_sarif(findings))
    else:
        if findings:
            print(to_text(findings))
        if not args.quiet:
            n = len(findings)
            print(f"repro.lint: {n} finding{'s' if n != 1 else ''}")
    if findings:
        return 1
    if args.strict and stale:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
