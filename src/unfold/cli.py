"""Command-line driver.

Exit codes: 0 when everything passes, 1 on contract violations or failed
expectations, 2 on parse or semantic errors and on files that cannot be
read as UTF-8 text or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .demo import DEMOS
from .dsl.desugar import desugar_text
from .dsl.parser import parse_scenario
from .dsl.scenario import run_scenario
from .errors import ParseError, SemanticError


def _print_trace(report) -> None:
    for row in report.rows:
        if not row.trace:
            continue
        print(f"-- trace of {row.name}")
        for kind, step, label in row.trace:
            print(f"   {kind:<8} step {step:<4} {label}")


def _cmd_check(args) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"unfold: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except (ParseError, SemanticError) as exc:
        print(f"unfold: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scenario, seed=args.seed, trace=args.trace)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), indent=2))
    else:
        print(report.to_text())
        if args.trace:
            _print_trace(report)
    return 0 if report.ok else 1


def _cmd_desugar(args) -> int:
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"unfold: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        skeleton, _plans = desugar_text(text)
    except (ParseError, SemanticError) as exc:
        print(f"unfold: {args.spec}: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            Path(args.output).write_text(skeleton, encoding="utf-8")
        except OSError as exc:
            print(f"unfold: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(skeleton)
    return 0


def _cmd_demo(args) -> int:
    rows = []
    all_ok = True
    for name, source in DEMOS.items():
        started = time.perf_counter()
        scenario = parse_scenario(source)
        report = run_scenario(scenario)
        millis = (time.perf_counter() - started) * 1000.0
        ok = report.ok
        all_ok = all_ok and ok
        rows.append({
            "row": name,
            "status": "pass" if ok else "fail",
            "checks": {
                "inv": sum(r.inv_checks for r in report.rows),
                "variant": sum(r.variant_checks for r in report.rows),
            },
            "cursor_checks": {
                "permitted": sum(r.permitted_checks for r in report.rows),
                "complete": sum(r.complete_checks for r in report.rows),
            },
            "millis": round(millis, 3),
            "invocations": report.to_json_obj(),
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'case study':<22} {'status':<8} {'inv':>6} {'variant':>8} "
              f"{'millis':>9}")
        for row in rows:
            print(f"{row['row']:<22} {row['status']:<8} "
                  f"{row['checks']['inv']:>6} {row['checks']['variant']:>8} "
                  f"{row['millis']:>9.2f}")
        passed = sum(1 for r in rows if r["status"] == "pass")
        print(f"{passed}/{len(rows)} case studies passed")
    return 0 if all_ok else 1


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="unfold",
        description="Runtime-checked higher-order iteration: scenario "
                    "checking and annotation desugaring.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a scenario file")
    check.add_argument("scenario", help="scenario file to execute")
    check.add_argument("--trace", action="store_true",
                       help="record and print every contract evaluation")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--seed", type=int, default=None,
                       help="permute set enumeration order (results must "
                            "not depend on it)")
    check.set_defaults(fn=_cmd_check)

    des = sub.add_parser("desugar",
                         help="render the first-order skeleton of a spec file")
    des.add_argument("spec", help="file with decl/call blocks")
    des.add_argument("-o", "--output", help="write the skeleton here")
    des.set_defaults(fn=_cmd_desugar)

    demo = sub.add_parser("demo", help="run the built-in case-study corpus")
    demo.add_argument("--format", choices=("text", "json"), default="text")
    demo.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = _argument_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
