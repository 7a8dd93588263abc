"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 1-10 [--workloads sweep-field,lattice-z] [--trace 1]
                              [--out FILE --label TEXT]

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  With
``--out`` it also appends the set, every run's values and their summary, to
the ``sets`` list of that JSON file, so that every set run is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="what the set is, kept with it in --out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    result: dict = {
        "label": args.label,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seeds": args.seeds,
        "trace": args.trace,
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            elapsed = time.monotonic() - started
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"], "elapsed_s": elapsed,
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            stats[name] = summarise(values) if len(values) > 1 else {"median": values[0]}
            s = stats[name]
            if "spread" in s and s["spread"] is not None:
                bound = bounds.get(name)
                flag = "" if bound is None else f" bound {bound} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
                print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f}{flag}", flush=True)
        result["workloads"][workload] = {"runs": runs, "stats": stats}
    if args.out:
        kept = json.loads(args.out.read_text()) if args.out.exists() else {"sets": []}
        kept["sets"].append(result)
        args.out.write_text(json.dumps(kept, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
