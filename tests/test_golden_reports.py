"""Byte-level regression of the CLI's JSON output on a fixed corpus of requests.

Each request's stdout, with the ``wall_time_s`` line taken out, must hash to
the sha256 recorded in ``golden_reports.json``.  The test names the first
request whose output differs.  To record the digests again, after a change
meant to alter the output, run ``PYTHONPATH=src python tests/test_golden_reports.py``.

The 600 element requests of the element-ops benchmark are replayed too,
against the digests committed in ``bench/expected/element_ops.jsonl``; the
benchmark's own ``bench/workloads.py`` is loaded unchanged to read them.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

from weylkit.cli import dispatch
from weylkit.tableaux import partitions_up_to

GOLDEN = Path(__file__).with_name("golden_reports.json")
WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_WALL_TIME = re.compile(r',\n  "wall_time_s": [-+0-9.eE]+')


def requests():
    out = []
    for command in ("schur-verify", "weyl-verify"):
        for shape in partitions_up_to(3):
            shape = ",".join(map(str, shape))
            for m in (1, 2):
                for ring in ("q", "zmod:2", "z"):
                    out.append([command, "--shape", shape, "--entries", str(m), "--ring", ring])
    for shape, m in (("2,1", 2), ("2,2", 2), ("3,1", 3), ("1,1,1", 3)):
        out.append(["duality-check", "--shape", shape, "--entries", str(m)])
    for shape, m, matrix in (("2,1", 2, "[[1,1],[0,1]]"), ("2,1", 3, "[[0,1,0],[1,1,0],[2,0,1]]")):
        for which in ("e", "lambda"):
            for ring in ("z", "zmod:6"):
                out.append(["equivariance", "--shape", shape, "--entries", str(m), "--matrix", matrix,
                            "--map", which, "--ring", ring])
    for tableau, box_a, box_b, ring, fmt in (
        ("[[1,2],[3,4]]", "(1,1),(2,1)", "(1,2)", "z", "json"),
        ("[[2,1],[1,3]]", "(1,1),(2,1)", "(1,2),(2,2)", "zmod:3", "json"),
        ("[[1,2,3],[2,3]]", "(1,1),(2,1)", "(2,2)", "q", "text"),
    ):
        out.append(["garnir", "--tableau", tableau, "--boxA", box_a, "--boxB", box_b, "--ring", ring,
                    "--format", fmt])
    for tableau, box_a, box_b, variant, fmt in (
        ("[[1,1],[2,2]]", "(1,1),(1,2)", "(2,1)", "plain", "json"),
        ("[[1,2,2],[1,3]]", "(1,2),(1,3)", "(2,1),(2,2)", "dc", "json"),
        ("[[1,1],[2,2]]", "(1,1),(1,2)", "(2,1)", "star", "text"),
        ("[[2,1],[1,2]]", "(1,1),(1,2)", "(2,2)", "star-star", "latex"),
        ("[[1,1],[2,2]]", "(1,1),(1,2)", "(2,1)", "star", "json"),
        ("[[2,1],[1,2]]", "(1,1),(1,2)", "(2,2)", "star-star", "json"),
    ):
        out.append(["dual-garnir", "--tableau", tableau, "--boxA", box_a, "--boxB", box_b,
                    "--variant", variant, "--format", fmt])
    out.append(["snake", "--tableau", "[[1,2,2],[1,2]]", "--row", "1", "--cols", "1:2", "--ring", "zmod:3",
                "--format", "json"])
    return out


def digest(argv) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one request, without ``wall_time_s``."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = dispatch(list(argv))
    return code, hashlib.sha256(_WALL_TIME.sub("", buffer.getvalue()).encode()).hexdigest()


def test_reports_match_recorded_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(requests())
    for argv in requests():
        code, got = digest(argv)
        assert (code, got) == (0, golden[" ".join(argv)]), f"first request whose output differs: {argv}"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_element_requests_match_the_benchmark_digests():
    workloads = load_workloads()
    pool = workloads.load_element_pool()
    assert len(pool) == workloads.ELEMENT_REQUESTS
    mismatches = []
    for record in pool:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = dispatch(list(record["argv"]))
        if (code, workloads.cli_digest(record["argv"], buffer.getvalue())) != (0, record["digest"]):
            mismatches.append(record["argv"])
    assert mismatches == []


if __name__ == "__main__":
    recorded = {}
    for argv in requests():
        code, recorded[" ".join(argv)] = digest(argv)
        if code != 0:
            sys.exit(f"exit {code}: {argv}")
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
