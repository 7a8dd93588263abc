"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``weylkit`` from the checkout's ``src``, builds the workload's inputs from
the seed, and, unless ``--setup-only``, runs every op as a closed loop:
each op starts when the previous one returns.  It prints one JSON line with
its timings (with every op's latency, in op order), its failures and, when
traced, the per-layer metrics.

Between ops, at most every ``CALIBRATE_EVERY_S``, it times a fixed piece
of work that does not use ``weylkit`` (``calibrate``) and notes, for every
op, the calibration that came last before it; ``run.py`` divides each op's
latency by the calibrations around it to take the host's speed out of the
reported times.

Set-up time is measured against ``--spawned-at``, the parent's reading of
``CLOCK_MONOTONIC`` just before it started this process, so it includes
interpreter start.  ``SETUP_CALIBRATIONS`` calibrations right after it let
``run.py`` scale it as it scales the ops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


CALIBRATE_EVERY_S = 0.1
CALIBRATE_KEYS = 4000
SETUP_CALIBRATIONS = 5


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds a fixed piece of dict and tuple work takes now: a probe of the host's speed.

    weylkit's work is mostly hashing, dict look-ups and small tuples, which
    the host's slow spells slow down more than plain arithmetic; this probe
    follows those spells more closely than an integer loop did.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(CALIBRATE_KEYS):
        key = (i % 7, i % 11, i % 13, i)
        table[key] = table.get(key[:3], 0) + i
    sorted(table.items())
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace this repetition and write its spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import weylkit

    if not Path(weylkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported weylkit from {weylkit.__file__}, not from {ROOT / 'src'}")
    import workloads

    ops, expected = workloads.build(args.workload, args.seed, args.tiny)
    setup_s = monotonic() - args.spawned_at
    setup_calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calibrations_s": setup_calibrations}))
        return 0

    recorder = None
    run_op = workloads.Op.run
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        recorder.install()
        run_op = recorder.span("bench.op", workloads.Op.run)

    latencies = []
    failures = []
    calibrations = []
    calibrated_before = []
    output_bytes = 0
    clock = time.perf_counter
    started = clock()
    calibrated_at = started - CALIBRATE_EVERY_S
    try:
        for op in ops:
            if clock() - calibrated_at >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                calibrated_at = clock()
            calibrated_before.append(len(calibrations) - 1)
            t0, t1 = clock(), None
            try:
                result = run_op(op)
                t1 = clock()
                ok = op.check(result, expected.get(op.key))
            except Exception as exc:  # an op that raises counts as failed; the loop goes on
                t1 = t1 or clock()
                ok, result = False, f"{type(exc).__name__}: {exc}"
            latencies.append((t1 - t0) * 1000)
            if not ok:
                failures.append({"op": op.key, "result": str(result)[:300]})
            elif op.kind == "cli":
                output_bytes += len(result[1])
        wall_s = clock() - started - sum(calibrations)
    finally:
        if recorder is not None:
            recorder.restore()

    report = {
        "setup_s": setup_s,
        "setup_calibrations_s": setup_calibrations,
        "wall_s": wall_s,
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_ms": latencies,
        "calibrations_s": calibrations,
        "calibrated_before": calibrated_before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        summary = recorder.summary()
        report["layers"] = {**spans.layer_metrics(summary, recorder.counts), "cli.output_bytes": output_bytes}
        report["spans"] = summary
        recorder.write(args.trace_out, summary)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
