"""The weylkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload sweep-field --seed 1 --seconds 26 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``), so the
package's ``functools`` caches start cold, as for a CLI or pytest user.
The load is one single-threaded closed loop.

With ``--trace 0`` the run repeats the workload a fixed number of times,
``--seconds`` divided by the workload's nominal repetition time in
``REPETITION_S`` (at least once), and reports the end-to-end metrics named
in ``BENCHMARK.json``.  The count depends only on ``--seconds``, never on
how fast the code runs, so two commits are measured over the same number of
repetitions.

The timings are scaled to a reference host speed.  On a shared host the
speed of the same code moves by up to 2x, for seconds to many minutes at a
time, so raw times of one commit differ by more than any useful bound from
one run to the next.  Each repetition therefore times a fixed piece of work
that does not use ``weylkit`` about every 0.1 s between its ops (see
``worker.py``), and each op's latency is multiplied by
``CALIBRATION_REF_S`` divided by the median of the calibration made just
before it and the two on either side of that one (``scaled_latencies``).  A change to ``weylkit``
cannot move the calibrations, so it moves the scaled times as much as the
raw ones.  ``wall_s`` is the median over the repetitions of the sum of
their scaled op latencies; ``op_p50_ms`` and ``op_p90_ms`` are percentiles
over the ops of the workload, taking each op's median scaled latency over
the repetitions.  The raw figures are printed too.  ``peak_rss_mb`` is the
median over repetitions, and ``setup_s`` the median over every repetition
and as many set-up-only starts, each scaled by the median of the
calibrations its process makes right after set-up.

With ``--trace 1`` it runs the workload once untraced and once traced, and
reports the per-layer metrics and the tracing overhead; the spans go to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader.  The error rate is ``failed / attempted``.  A
run that cannot start or finish its workers exits non-zero without that
line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
MIN_SETUPS = 5
# A calibration timing typical of the host the benchmark was built on when
# it runs fast, so that scaled times read close to seconds there.
CALIBRATION_REF_S = 0.005
# Each op is scaled by the median of the calibrations this many places on
# either side of the one before it: one calibration alone is noisy.
CALIBRATION_NEIGHBOURS = 2
# Seconds one repetition and its set-up-only start take at the commit that
# added the benchmark on a slow stretch of a shared 2-vCPU host; with
# --seconds 26 this gives 5, 6, 6 and 8 repetitions.
REPETITION_S = {"sweep-field": 5.0, "lattice-z": 4.2, "equivariance": 4.2, "element-ops": 3.2}
DEADLINE_S = 170.0
SHARES_SHOWN = 12


class RunError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile; refuses one with fewer than 10 samples beyond it."""
    n = len(values)
    if n * (100 - p) / 100 < 10:
        raise ValueError(f"p{p:g} of {n} samples has fewer than 10 samples beyond it")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * n) - 1)]


def scaled_latencies(rep: dict) -> list[float]:
    """The repetition's op latencies (ms), each scaled to the reference host speed."""
    cals, k = rep["calibrations_s"], CALIBRATION_NEIGHBOURS
    scale = [CALIBRATION_REF_S / statistics.median(cals[max(0, i - k):i + k + 1]) for i in range(len(cals))]
    return [ms * scale[i] for ms, i in zip(rep["latencies_ms"], rep["calibrated_before"])]


def scaled_setup(report: dict) -> float:
    """The worker's set-up time (s), scaled to the reference host speed."""
    return report["setup_s"] * CALIBRATION_REF_S / statistics.median(report["setup_calibrations_s"])


def repetitions(workload: str, seconds: int, tiny: bool) -> int:
    return 1 if tiny else max(1, int(seconds / REPETITION_S[workload]))


def spawn(args, deadline: float, *, setup_only=False, trace_out=None) -> dict:
    """Run one worker to completion and return its report."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker exceeded the run's deadline: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    # Set-up probes alternate with repetitions, so that both sample the
    # whole run rather than one stretch of it.
    setups, reps = [], []
    for _ in range(repetitions(args.workload, args.seconds, args.tiny)):
        setups.append(scaled_setup(spawn(args, deadline, setup_only=True)))
        rep = spawn(args, deadline)
        reps.append(rep)
        setups.append(scaled_setup(rep))
    while len(setups) < MIN_SETUPS:
        setups.append(scaled_setup(spawn(args, deadline, setup_only=True)))
    raw_setup = statistics.median(rep["setup_s"] for rep in reps)
    scaled = [scaled_latencies(rep) for rep in reps]
    latencies = [statistics.median(per_op) for per_op in zip(*scaled)]
    values = {
        "wall_s": statistics.median(sum(rep) for rep in scaled) / 1000,
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
    }
    raw_latencies = [statistics.median(per_op) for per_op in zip(*(rep["latencies_ms"] for rep in reps))]
    raw = {
        "wall_s": statistics.median(sum(rep["latencies_ms"]) for rep in reps) / 1000,
        "op_p50_ms": percentile(raw_latencies, 50),
        "op_p90_ms": percentile(raw_latencies, 90),
        "setup_s (repetitions only)": raw_setup,
    }
    values["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in reps)
    values["setup_s"] = statistics.median(setups)
    print(
        f"{args.workload} seed {args.seed}: {len(reps)} repetitions of {reps[0]['ops']} ops; "
        f"latency percentiles over {len(latencies)} samples, each op's median over the repetitions; "
        f"setup_s over {len(setups)} starts"
    )
    print("ops' time in each repetition, raw: " + " ".join(f"{sum(rep['latencies_ms']) / 1000:.3f}" for rep in reps))
    print(f"raw, before scaling by {sum(len(rep['calibrations_s']) for rep in reps)} calibrations: "
          + " ".join(f"{name} = {value:.6g}" for name, value in raw.items()))
    return values, reps


def traced(args, deadline: float) -> tuple[dict, list[dict]]:
    OUT_DIR.mkdir(exist_ok=True)
    trace_out = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    plain = spawn(args, deadline)
    rep = spawn(args, deadline, trace_out=trace_out)
    values = dict(rep["layers"])
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.traced_wall_s"] = rep["wall_s"]
    values["trace.overhead_s"] = rep["wall_s"] - plain["wall_s"]
    print(f"{args.workload} seed {args.seed}: spans written to {trace_out.relative_to(ROOT)}")
    print(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
          f"({rep['wall_s']:.3f} s traced, {plain['wall_s']:.3f} s untraced)")
    spans = sorted((kv for kv in rep["spans"].items() if kv[1]["calls"]), key=lambda kv: -kv[1]["self_s"])
    print(f"self time by span, share of the traced wall_s ({rep['wall_s']:.3f} s):")
    for name, row in spans[:SHARES_SHOWN]:
        print(f"  {name:28s} self {row['self_s']:9.4f} s {row['self_s'] / rep['wall_s']:6.1%}"
              f"  total {row['total_s']:9.4f} s {row['total_s'] / rep['wall_s']:6.1%}  calls {row['calls']}")
    return values, [plain, rep]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small shapes only, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file():
        print(f"error: no weylkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, reps = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED {failure['op']}: {failure['result']}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
