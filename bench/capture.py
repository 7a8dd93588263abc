"""Capture the expected outputs the benchmark's correctness gates compare against.

Writes ``expected/verify.json`` (the gated part of every verify report the
two sweeps run) and ``expected/element_ops.jsonl`` (the fixed list of
distinct CLI requests ``element-ops`` runs, each with the digest of its
output).  Run from the repository root, only when a change is
meant to alter these outputs:

    python3 bench/capture.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import weylkit  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = "element-ops-pool"
POOL_SIZE = workloads.ELEMENT_REQUESTS
POOL_SIZES = (6, 7, 8)
POOL_ENTRIES = (2, 3, 4, 5)
POOL_RINGS = ("z", "z", "q", "zmod:2", "zmod:3")
COMMANDS = ("rsym", "polytabloid", "copolytabloid", "garnir", "dual-garnir", "snake", "straighten")


def _boxes(boxes) -> str:
    return ",".join(f"({i},{j})" for i, j in sorted(boxes))


def _random_request(rng: random.Random) -> list[str]:
    command = rng.choice(COMMANDS)
    shapes = [s for n in POOL_SIZES for s in weylkit.partitions_of(n)]
    if command == "garnir":
        shapes = [s for s in shapes if s[0] > 1]
    elif command in ("dual-garnir", "snake"):
        shapes = [s for s in shapes if len(s) > 1]
    shape = rng.choice(shapes)
    m = rng.choice(POOL_ENTRIES)
    rows = [[rng.randint(1, m) for _ in range(k)] for k in shape]
    argv = [command, "--tableau", json.dumps(rows, separators=(",", ":"))]
    if command == "garnir":
        cols = weylkit.conjugate(shape)
        ja, jb = sorted(rng.sample(range(1, len(cols) + 1), 2))
        nb = rng.randint(1, cols[jb - 1])
        na = rng.randint(max(1, cols[ja - 1] + 1 - nb), cols[ja - 1])
        box_a = [(i, ja) for i in rng.sample(range(1, cols[ja - 1] + 1), na)]
        box_b = [(i, jb) for i in rng.sample(range(1, cols[jb - 1] + 1), nb)]
        argv += ["--boxA", _boxes(box_a), "--boxB", _boxes(box_b)]
    elif command == "dual-garnir":
        ia, ib = sorted(rng.sample(range(1, len(shape) + 1), 2))
        la, lb = shape[ia - 1], shape[ib - 1]
        nb = rng.randint(1, lb)
        na = rng.randint(max(1, la + 1 - nb), la)
        box_a = [(ia, j) for j in rng.sample(range(1, la + 1), na)]
        box_b = [(ib, j) for j in rng.sample(range(1, lb + 1), nb)]
        argv += ["--boxA", _boxes(box_a), "--boxB", _boxes(box_b)]
    elif command == "snake":
        i, j, jp = rng.choice(list(weylkit.snake_labels(shape)))
        argv += ["--row", str(i), "--cols", f"{j}:{jp}"]
    argv += ["--entries", str(m), "--ring", rng.choice(POOL_RINGS)]
    return argv


def capture_verify() -> dict:
    expected = {}
    for op in workloads.sweep_field_ops(pairing=False) + workloads.lattice_ops():
        report = op.run()
        if not report["ok"]:
            raise SystemExit(f"verify failed at capture: {op.key}")
        expected[op.key] = workloads.verify_summary(report)
    return expected


def capture_pool() -> list[dict]:
    """POOL_SIZE distinct requests, each with the digest of its output."""
    rng = random.Random(POOL_SEED)
    seen = set()
    pool = []
    while len(pool) < POOL_SIZE:
        request = _random_request(rng)
        key = json.dumps(request)
        if key in seen:
            continue
        seen.add(key)
        code, stdout = workloads.Op("cli", "", request).run()
        if code != 0:
            raise SystemExit(f"request failed at capture (exit {code}): {request}")
        pool.append({"argv": request, "digest": workloads.cli_digest(request, stdout)})
    return pool


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    verify = capture_verify()
    lines = [f"{json.dumps(k)}: {json.dumps(verify[k], sort_keys=True)}" for k in sorted(verify)]
    workloads.VERIFY_EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    with workloads.ELEMENT_POOL.open("w") as handle:
        for rec in capture_pool():
            handle.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
