"""Tests of the benchmark itself: python3 -m pytest perfbench -q  (about two minutes)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import iteration_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "tests"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    res = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = res.stdout.strip().splitlines()
    return res, (json.loads(lines[-1]) if res.returncode == 0 and lines else None)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_short_run_of_each_workload(workload):
    res, out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert res.returncode == 0, res.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrong_reference_fails_every_iteration():
    reference = json.loads((HERE / "reference.json").read_text())
    entry = reference["outcomes"]["oracle_checks"]["sobolev.near_extremal_ratio"]
    entry[0] *= 1.01
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / "wrong_reference.json"
    path.write_text(json.dumps(reference))
    res, out = bench("--workload", "oracle_checks", "--seed", "1", "--seconds", "3", "--trace", "0",
                     "--reference", str(path))
    assert res.returncode == 0, res.stderr
    assert not out["correct"] and out["attempted"] >= 1 and out["failed"] == out["attempted"]
    assert "near_extremal_ratio" in res.stderr


def test_traced_counts_repeat_for_the_same_seed():
    counts = ("solver.steps", "weakform.pair_evals", "io.bytes_written", "io.bytes_read",
              "io.write_snapshot_calls", "diagnostics.entropy_calls", "solver.poisson_calls")
    seen = []
    for _ in range(2):
        res, out = bench("--workload", "sweep_analysis", "--seed", "4", "--seconds", "1", "--trace", "1")
        assert res.returncode == 0, res.stderr
        assert out["correct"]
        assert set(out["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
        seen.append({name: out["metrics"][name]["value"] for name in counts})
    assert seen[0] == seen[1]
    assert all(isinstance(v, int) and v > 0 for v in seen[0].values())


def test_refuses_to_run_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res, _ = bench("--workload", "oracle_checks", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare, script=bare / "perfbench" / "run.py")
    assert res.returncode != 0
    assert res.stdout.strip() == ""
    shutil.rmtree(bare)


def test_self_time_excludes_covered_child_time():
    spans = [
        (0, "a.outer", 0.0, 10.0, -1, None),
        (0, "b.child", 1.0, 3.0, 0, None),
        (0, "b.child", 4.0, 5.0, 0, None),
        (0, "a.outer", 6.0, 7.0, 0, None),  # recursive call: not counted twice inclusively
        (1, "a.outer", 0.0, 99.0, -1, None),  # another iteration
    ]
    summary = iteration_summary(spans, 0)
    labels = summary["labels"]
    assert labels["a.outer"]["self_s"] == pytest.approx((10.0 - 4.0) + 1.0)
    assert labels["a.outer"]["inclusive_s"] == pytest.approx(10.0)
    assert labels["b.child"]["self_s"] == pytest.approx(3.0)
    assert summary["top_s"] == pytest.approx(10.0)
    assert sum(v["self_s"] for v in labels.values()) == pytest.approx(summary["top_s"])
