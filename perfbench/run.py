"""Benchmark of unfold: one seeded workload per run, one process, one thread.

    python3 perfbench/run.py --workload seq_engine --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it wraps every layer's entry points and reports the
per-layer metrics instead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import graph_ops
import scenario_cli
import seq_engine
from harness import (OUT, Digest, MissingProgram, References, import_program,
                     percentile, run_op, scaling_exponent, speed_factor,
                     timed_phase)
from tracing import Tracer

WORKLOADS = {
    "seq_engine": seq_engine,
    "graph_ops": graph_ops,
    "scenario_cli": scenario_cli,
}
SETUP_BEFORE = 4  # set-ups before the timed phase; the last one's ops are run
SETUP_AFTER = 5  # set-ups after it, so that setup_s samples the whole run


def smallest_per_kind(ops: list) -> list:
    first: dict = {}
    for op in ops:
        if op.kind not in first or op.size < first[op.kind].size:
            first[op.kind] = op
    return list(first.values())


def set_up(workload: str, seed: int, workdir):
    """Import, generate the inputs and their expected outcomes, write the
    scenario files, warm up each op kind once. Returns the time it took,
    scaled to the nominal machine speed."""
    t0 = time.perf_counter()
    api = import_program(fresh=True)
    digest = Digest()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    ops = WORKLOADS[workload].build(api, rng, digest, workdir)
    # interleave the sizes, so a slow spell of the machine does not land
    # on one end of a size ladder
    rng.shuffle(ops)
    for op in smallest_per_kind(ops):
        run_op(api, op)
    seconds = time.perf_counter() - t0
    return seconds * speed_factor(), api, ops, digest.hexdigest()


def judge(phases) -> tuple:
    """(correct, attempted, failed) over the given phases; prints the first
    few wrong outcomes."""
    failed = sum(phase.failed for phase in phases)
    for s in [s for phase in phases for s in phase.wrong][:5]:
        print(f"wrong outcome: {s.op.kind} size {s.op.size}: expected "
              f"{str(s.op.expected)[:200]}, got {str(s.outcome)[:200]}")
    steady = len({c for phase in phases for c in phase.cycle_checks}) == 1
    if not steady:
        print("check counts differ between passes over the same inputs")
    return not failed and steady, sum(len(phase.ns) for phase in phases), failed


def end_to_end(phase, refs: References, speed: array,
               peak_rss_mb: float) -> dict:
    """Every end-to-end metric but setup_s. The op times of ops_per_s and
    the percentiles are scaled by the speed factor taken right after each
    op; the ratios need no scaling."""
    n = len(phase.ns)
    checked = plain = 0
    for op, ns in phase.timed():
        if op in refs:
            checked += ns
            plain += refs[op]
    scaled = [ns * f for ns, f in zip(phase.ns, speed)]
    stored_kib = (phase.storage_bytes + refs.storage_bytes
                  + speed.itemsize * len(speed)) / 1024

    def wall(value) -> str:
        return f"n={n}; {value:.6g} unscaled"

    return {
        "ops_per_s": (n / (sum(scaled) / 1e9), "ops/s",
                      wall(n / (sum(phase.ns) / 1e9))),
        "op_p50_ms": (percentile(scaled, 50) / 1e6, "ms",
                      wall(percentile(phase.ns, 50) / 1e6)),
        "op_p90_ms": (percentile(scaled, 90) / 1e6, "ms",
                      wall(percentile(phase.ns, 90) / 1e6)),
        "overhead_x": (checked / plain, "ratio", ""),
        "scaling_exp": (scaling_exponent(phase), "slope", ""),
        "peak_rss_mb": (peak_rss_mb, "MiB",
                        f"incl. {stored_kib:.0f} KiB of stored op times"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced(api, ops, seconds: float, workload: str, seed: int) -> tuple:
    tracer = Tracer()
    try:
        tracer.install()
        traced_phase = timed_phase(api, ops, seconds, tracer)
    finally:
        tracer.uninstall()
    plain_phase = timed_phase(api, ops, 0, cycles=traced_phase.cycles)
    traced_ns = sum(traced_phase.ns)
    plain_ns = sum(plain_phase.ns)
    inv, variant = traced_phase.cycle_checks[0]
    metrics = tracer.layer_metrics(traced_phase.cycles, traced_ns, inv, variant,
                                   traced_ns / plain_ns)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(OUT.parent.parent)}")
    return metrics, (traced_phase, plain_phase)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups, digests = [], set()

        def set_up_again():
            gc.collect()  # each set-up starts from the same heap
            seconds, api, ops, digest = set_up(args.workload, args.seed,
                                               workdir / "setup")
            setups.append(seconds)
            digests.add(digest)
            return api, ops, digest

        for _ in range(SETUP_BEFORE):
            api = ops = None
            api, ops, digest = set_up_again()
        gc.collect()
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per "
              f"pass, input digest {digest}")
        if args.trace:
            metrics, phases = traced(api, ops, args.seconds, args.workload,
                                     args.seed)
            shown = {k: (v, unit, "") for k, (v, unit) in metrics.items()}
        else:
            refs, speed = References(ops), array("d")

            def after_op(op):
                refs.measure(op)
                speed.append(speed_factor())

            phase = timed_phase(api, ops, args.seconds, after_op=after_op)
            peak = peak_rss_mb()  # before the figures are worked out
            phases = (phase,)
            inv, variant = phase.cycle_checks[0]
            print(f"{phase.cycles} passes; per pass engine.inv_checks {inv} "
                  f"engine.variant_checks {variant} (collect_stats)")
            shown = end_to_end(phase, refs, speed, peak)
        correct, attempted, failed = judge(phases)
        if not args.trace:
            api = ops = refs = speed = phase = phases = None
            for _ in range(SETUP_AFTER):
                set_up_again()
            shown["setup_s"] = (statistics.median(setups), "s",
                                f"median of {len(setups)} ({SETUP_BEFORE} before "
                                f"and {SETUP_AFTER} after the timed phase), scaled")
        if len(digests) != 1:
            print("input digest differs between set-ups of the same seed")
            return 1
        for name, (value, unit, note) in shown.items():
            print(f"{name:<34} {value:>16.6g} {unit:<8} {note}")
        print(f"{'error_rate':<34} {failed / attempted:>16.6g} fraction "
              f"({failed} of {attempted} ops)")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _note) in shown.items()},
        }))
        return 0
    except MissingProgram as exc:  # e.g. the golden specs are not there
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
