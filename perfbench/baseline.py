#!/usr/bin/env python3
"""Run every workload on several seeds and record the results as a baseline.

    python3 perfbench/baseline.py --label "commit abc1234"

For each workload in BENCHMARK.json: one untraced run per seed (seeds
1..10) and one traced run (seed 1), each a fresh process of run.py with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median and the quartile spread (q3 - q1) / median, the figure the metric's
bound is judged against, and flags a spread above a third of the bound;
the exit code is 1 if any is flagged.  perfbench/baseline.json keeps every
result line verbatim.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
OUT = HERE / "baseline.json"


def run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def environment() -> dict:
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "oracle_checks", "--seconds", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    line = next(ln for ln in res.stdout.splitlines() if ln.startswith("environment "))
    return json.loads(line.split(" ", 1)[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {"label": args.label, "environment": environment(), "run_seconds": seconds, "workloads": {}}
    worst_ok = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = [{"seed": s, "result": run(name, s, seconds, 0)} for s in SEEDS]
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            worst_ok &= not flag
            print(f"{name:16s} {m['name']:12s} median {med:10.4f} {m['unit']:3s} spread {spread:.4f} "
                  f"(bound {m['bound']}){flag}", flush=True)
        record["workloads"][name] = {
            "runs": runs,
            "summary": summary,
            "traced": {"seed": 1, "result": run(name, 1, seconds, 1)},
            "failed_frac": sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"] for r in runs),
        }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
