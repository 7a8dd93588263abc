"""The benchmark's own tests; kept out of tier-1 so timing noise never fails CI.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402
from run import CALIBRATION_REF_S, percentile, scaled_latencies  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_emits_every_metric(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= workloads.MIN_OPS
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 21)), 50) == 10


def test_latencies_scale_by_the_calibrations_around_each_op():
    # the reference speed for the first five calibrations, half of it for the last five
    cals = [CALIBRATION_REF_S] * 5 + [2 * CALIBRATION_REF_S] * 5
    rep = {"calibrations_s": cals, "calibrated_before": [0, 9], "latencies_ms": [2.0, 2.0]}
    assert scaled_latencies(rep) == pytest.approx([2.0, 1.0])


def test_traced_run_restores_every_weylkit_binding():
    before = spans.weylkit_bindings()
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert workloads.weylkit.schur.garnir is not before[("weylkit.schur", "garnir")]
        ops, expected = workloads.build("sweep-field", 1, tiny=True)
        cli_ops, cli_expected = workloads.build("element-ops", 1, tiny=True)
        for op in ops[:20] + cli_ops[:20]:
            assert op.check(op.run(), {**expected, **cli_expected}.get(op.key))
    finally:
        recorder.restore()
    after = spans.weylkit_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert len(recorder.start) > 0 and recorder.counts["tableaux.sort_columns_calls"] > 0


def test_span_self_time_excludes_children():
    recorder = spans.Recorder()
    inner = recorder.span("inner", lambda: sum(range(10000)))
    outer = recorder.span("outer", lambda: inner() + inner())
    outer()
    summary = recorder.summary()
    outer_total = recorder.end[0] - recorder.start[0]
    children = sum(recorder.end[i] - recorder.start[i] for i in (1, 2))
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(outer_total - children)
    assert list(recorder.parent) == [-1, 0, 0]
