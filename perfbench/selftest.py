"""Self-test of the benchmark's judging: planted errors must be counted.

    python3 perfbench/selftest.py

Runs the ``seq_engine`` and ``scenario_cli`` input pools of one seed once,
unchanged (``error_rate`` must be 0), then with one expectation planted
wrong at a time: a wrong fold result, and a violation step off by one on a
library fault and on a CLI fault. Each must give ``error_rate`` > 0.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import sys
import tempfile
from pathlib import Path

import scenario_cli
import seq_engine
from harness import OUT, Digest, MissingProgram, import_program, run_op


def error_rate(api, ops) -> float:
    return sum(not run_op(api, op).ok for op in ops) / len(ops)


def planted(ops, kind: str, plant) -> list:
    """``ops`` with the expectation of the first op of ``kind`` replaced."""
    i = next(i for i, op in enumerate(ops) if op.kind == kind)
    return ops[:i] + [dataclasses.replace(ops[i], expected=plant(ops[i].expected))] + ops[i + 1:]


def off_by_one(expected):
    if expected[0] == "violation":  # library outcome
        return expected[:2] + (expected[2] + 1,)
    ok, rc, ((name, status, result, (kind, step)),) = expected  # CLI outcome
    return (ok, rc, ((name, status, result, (kind, step + 1)),))


def main() -> int:
    try:
        api = import_program()
    except MissingProgram as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        pools = {
            "seq_engine": seq_engine.build(api, random.Random("selftest"), Digest(), workdir),
            "scenario_cli": scenario_cli.build(api, random.Random("selftest"), Digest(), workdir),
        }
        cases = [
            ("seq_engine", "clean pool", pools["seq_engine"], False),
            ("scenario_cli", "clean pool", pools["scenario_cli"], False),
            ("seq_engine", "wrong fold result", planted(
                pools["seq_engine"], "fold", lambda e: ("ok", e[1] + 1)), True),
            ("seq_engine", "off-by-one violation step", planted(
                pools["seq_engine"], "fault.dropped_effect", off_by_one), True),
            ("scenario_cli", "off-by-one violation step", planted(
                pools["scenario_cli"], "fault.model_mismatch", off_by_one), True),
        ]
        passed = True
        for workload, name, ops, should_fail in cases:
            rate = error_rate(api, ops)
            ok = (rate > 0) == should_fail
            passed &= ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:<13} {name:<26} "
                  f"error_rate {rate:.4f}")
        return 0 if passed else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
