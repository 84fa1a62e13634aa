"""Command-line driver for ``repro-lint``.

Exposed three ways — the ``repro-lint`` console script,
``repro-experiments lint`` and ``python -m repro.checks`` — all of which
call :func:`main`.

Exit codes: **0** clean (suppressed/baselined findings don't fail the
run), **1** at least one live finding, **2** usage or configuration
error (unknown rule, unreadable baseline, no repository root).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.checks.base import (BASELINE_NAME, CHECKERS, Baseline, Project,
                               find_project_root, run_checks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Contract-checking static analysis for this repository "
                    "(determinism, cache-key completeness, async-blocking, "
                    "exception discipline).")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root (default: found by walking up from the "
             "current directory to the first one containing src/repro)")
    parser.add_argument(
        "--rules", default=None, metavar="RULE[,RULE...]",
        help="comma-separated subset of rules to run (default: all)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout (default: text)")
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="also write the full JSON report to FILE (independent of "
             "--format; this is what CI archives)")
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help=f"baseline file of grandfathered findings "
             f"(default: <root>/{BASELINE_NAME})")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding, including "
             "grandfathered ones")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline file from this run's live findings "
             "(existing justifications are preserved) and exit 0")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit")
    return parser


def _print_text_report(result) -> None:
    for finding in result.findings:
        print(finding.format())
    if result.stale_baseline:
        print()
        for entry in result.stale_baseline:
            print(f"stale baseline entry {entry.get('fingerprint')} "
                  f"({entry.get('rule')} @ {entry.get('path')}): no longer "
                  f"matches any finding — remove it from {BASELINE_NAME}")
    counts = (f"{len(result.findings)} finding(s), "
              f"{len(result.suppressed)} suppressed, "
              f"{len(result.baselined)} baselined, "
              f"{len(result.stale_baseline)} stale baseline entr(y|ies)")
    ok = result.clean and not result.stale_baseline
    print(("clean: " if ok else "FAILED: ") + counts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule in sorted(CHECKERS):
            print(f"{rule:16s} {CHECKERS[rule].description}")
        return 0

    try:
        root = (Path(args.root).resolve() if args.root is not None
                else find_project_root())
        if not (root / "src" / "repro").is_dir():
            raise FileNotFoundError(
                f"{root} is not a repository root (no src/repro inside)")
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    project = Project(root)

    rules: Optional[List[str]] = None
    if args.rules is not None:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]

    baseline_path = args.baseline or (root / BASELINE_NAME)
    try:
        baseline = (Baseline() if args.no_baseline
                    else Baseline.load(baseline_path))
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_checks(project, rules=rules, baseline=baseline)
    except ValueError as exc:  # unknown rule name
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        justifications = {fp: entry.get("justification", "")
                          for fp, entry in baseline.entries.items()
                          if entry.get("justification")}
        updated = Baseline.from_findings(result.findings + result.baselined,
                                         justifications=justifications)
        updated.dump(baseline_path)
        print(f"wrote {len(updated.entries)} entr(y|ies) to {baseline_path}")
        return 0

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8")

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _print_text_report(result)

    return 0 if result.clean and not result.stale_baseline else 1


if __name__ == "__main__":  # pragma: no cover - exercised via repro-lint
    raise SystemExit(main())
