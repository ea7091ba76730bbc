#!/usr/bin/env python3
"""kslab benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload radial_collapse --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--seconds defaults to run_seconds in BENCHMARK.json.

Each iteration waits for the one before it; kslab runs in this thread and
BLAS pools are capped at the number of usable cores.  Nothing queues or
retries, so there is no time waited to report.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall seconds of one iteration (the timed call only;
               the correctness gate runs after it)
  setup_s      median of five set-ups (this process, two fresh ones before
               the timed loop and two after it): importing kslab and
               building the inputs
  peak_rss_mb  peak resident memory of this process (getrusage), in MB
  failed_frac  iterations failing the gate over iterations attempted
               (carried by the "failed" and "attempted" fields)
--trace 1 alternates untraced and traced iterations; spans around the
calls into each kslab module give the per-layer metrics, and
trace.overhead_s is the median over pairs of a traced iteration's wall
minus that of the untraced iteration just before it.  Spans are
written to .bench_out/trace/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The checkout must hold src/kslab; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
NAMES = ("radial_collapse", "rect_256", "sweep_analysis", "oracle_checks")
SETUP_SAMPLES = 5
# KSW1 snapshot header as documented in kslab.io: magic, u32 nx, u32 ny,
# f64 hx, hy, t, u8 regularization code, f64 epsilon.
SNAPSHOT_HEADER_BYTES = struct.calcsize("<4sIIdddBd")

TRACED = {
    "solver": ("radial_run", "run", "solve_poisson_neumann", "radial_poisson_face_gradient", "radial_potential",
               "f_eps", "make_radial_grid", "initial_condition_radial", "initial_condition_rect"),
    "diagnostics": ("entropy", "atom_estimate", "sobolev_check", "random_band_limited_field"),
    "weakform": ("weak_residual", "interior_bump_test"),
    "io": ("save_trajectory", "write_snapshot", "read_snapshot", "write_csv", "write_manifest"),
    "sweep": ("run_sweep",),
    "greens": ("grad_x_G_terms", "greens_disk_exact", "disk_mean_of_greens", "build_greens_decomposition",
               "remainder_k_exact", "grad_x_remainder_k_exact"),
    "geometry": ("reflect_tau",),
    "testfn": ("build_boundary_bump", "verify_bump"),
    "config": ("parse_run_config", "parse_sweep_plan", "emit_run_config"),
    "checks": ("check_greens", "check_testfn", "check_sobolev", "check_weak_residual"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)  # the modules of src/kslab


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(bench_spec()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(HERE / "reference.json"), help="reference outcomes to gate on")
    ap.add_argument("--setup-probe", action="store_true", help="time one set-up, print it and exit")
    ap.add_argument("--write-reference", action="store_true", help="store the nominal outcomes as the reference")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "?")
    l3_path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    l3 = l3_path.read_text().strip() if l3_path.exists() else ""
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    # the largest arrays: the six weak-residual kernel tables of 256^2 f64
    largest = 6 * 256 * 256 * 8
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "l3_cache": l3 or "?",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "largest_arrays_bytes_computed": largest,
        "largest_arrays_fit_in_l3": None if l3_bytes is None else largest < l3_bytes,
    }


def timed_setup(name, seed, workdir):
    start = time.perf_counter()
    import workloads

    wl = workloads.make(name, seed, workdir)
    return time.perf_counter() - start, workloads, wl


def setup_probe(name, seed) -> float:
    res = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def tail_percentile(n: int):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


class Loop:
    """Closed loop: the next iteration starts when the previous one and its
    gate are done; no iteration starts that would likely end past the budget."""

    def __init__(self, workloads, wl, reference, seconds, tracer=None):
        self.workloads, self.wl, self.tracer = workloads, wl, tracer
        self.reference = reference
        self.seconds = seconds
        self.walls, self.traced_walls, self.failed = [], [], []

    def iteration(self, it: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer:
            tracer.iteration = it
            tracer.install()
        start = time.perf_counter()
        try:
            result = self.wl.run(it)
            error = None
        except Exception:  # noqa: BLE001 - a failing call counts as a failed iteration
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        failures = [error] if error else []
        if not error:
            try:
                fails, outcomes = self.wl.gate(result)
                failures += fails + self.workloads.compare(outcomes, self.reference["outcomes"][self.wl.name],
                                                           self.reference["tolerances"])
            except Exception:  # noqa: BLE001 - a gate that cannot evaluate fails the iteration
                failures.append(traceback.format_exc())
        self.wl.clean()
        (self.traced_walls if traced else self.walls).append(wall)
        if failures:
            self.failed.append(it)
            print(f"iteration {it} FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)

    def run(self, min_iterations: int) -> None:
        start = time.perf_counter()
        totals = []
        it = 0
        while True:
            elapsed = time.perf_counter() - start
            whole = self.tracer is None or it % 2 == 0  # traced runs end on an untraced/traced pair
            if it >= min_iterations and whole and elapsed + statistics.median(totals) > self.seconds:
                break
            t0 = time.perf_counter()
            self.iteration(it, traced=self.tracer is not None and it % 2 == 1)
            totals.append(time.perf_counter() - t0)
            it += 1

    @property
    def attempted(self) -> int:
        return len(self.walls) + len(self.traced_walls)


def metric(value, unit):
    return {"value": value, "unit": unit}


def metric_units(kind: str) -> dict:
    """Units of the "end_to_end" or "per_layer" metrics named in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in bench_spec()[kind]}


def end_to_end(args, workloads, wl, setup_first, reference):
    # set-ups on both sides of the timed loop, so one slow moment of a shared machine does not set the median
    probes = SETUP_SAMPLES - 1
    samples = [setup_first] + [setup_probe(args.workload, args.seed) for _ in range(probes // 2)]
    loop = Loop(workloads, wl, reference, args.seconds)
    loop.run(min_iterations=1)
    samples += [setup_probe(args.workload, args.seed) for _ in range(probes - probes // 2)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    n = len(loop.walls)
    wall = statistics.median(loop.walls)
    tail = tail_percentile(n)
    print(f"wall_s       {wall:.6f} s   median of {n} iterations", end="")
    print(f"; p{tail:g} {percentile(loop.walls, tail):.6f} s (information)" if tail and tail > 50 else
          "; too few iterations for a tail percentile")
    print(f"             iterations {[round(w, 4) for w in loop.walls]}")
    print(f"setup_s      {statistics.median(samples):.6f} s   median of {len(samples)} set-ups {[round(s, 4) for s in samples]}")
    print(f"peak_rss_mb  {peak_mb:.3f} MB")
    print(f"failed_frac  {len(loop.failed) / n:.6f} fraction ({len(loop.failed)} of {n} iterations)")
    values = {"wall_s": wall, "setup_s": statistics.median(samples), "peak_rss_mb": peak_mb}
    units = metric_units("end_to_end")
    return loop, {name: metric(values[name], unit) for name, unit in units.items()}


def _steps_counter(workloads):
    def count(arguments, traj):
        return {"steps": len(traj.diag), "dt_ratio": workloads.dt_over_diffusive_cfl(traj) if traj.diag else 0.0}
    return count


def _sweep_counter(arguments, report):
    offsets = [od for row in report.rows for od in row.offsets]
    return {
        "runs": len(report.rows),
        "ok": sum(row.status == "ok" for row in report.rows),
        "offsets": len(offsets),
        "atoms": sum(not od["no_atom"] for od in offsets),
    }


def _pair_evals(arguments, qb):
    traj = arguments["traj"]
    return {"pair_evals": arguments["n_theta"] * traj.grid.n**2 if traj.backend == "radial" else 0}


def make_tracer(workloads):
    import importlib

    from spans import Tracer

    modules = {name: importlib.import_module(f"kslab.{name}") for name in LAYERS}
    targets = [(modules[layer], fn) for layer, fns in TRACED.items() for fn in fns]
    counters = {
        "solver.radial_run": _steps_counter(workloads),
        "solver.run": _steps_counter(workloads),
        "sweep.run_sweep": _sweep_counter,
        "weakform.weak_residual": _pair_evals,
        "io.write_snapshot": lambda a, r: {"bytes": SNAPSHOT_HEADER_BYTES + 8 * a["values"].size},
        "io.read_snapshot": lambda a, r: {"bytes": SNAPSHOT_HEADER_BYTES + 8 * r["nx"] * r["ny"]},
    }
    return Tracer(list(modules.values()), targets, counters)


def layer_metrics(summary, wall) -> dict:
    labels = summary["labels"]

    def get(label, field):
        return labels.get(label, {}).get(field, 0)

    def counts(label, key):
        return [c[key] for c in labels.get(label, {}).get("counts", [])]

    runs = ("solver.radial_run", "solver.run")
    intervals = []
    starts = labels.get("diagnostics.entropy", {}).get("starts", [])
    by_parent = {}
    for parent, start in starts:
        by_parent.setdefault(parent, []).append(start)
    for group in by_parent.values():
        group.sort()
        intervals += [(b - a) * 1e6 for a, b in zip(group, group[1:])]
    tail = tail_percentile(len(intervals))
    dt_ratios = [r for lab in runs for r in counts(lab, "dt_ratio")]
    sweeps = labels.get("sweep.run_sweep", {}).get("counts", [])
    entropy_durations = labels.get("diagnostics.entropy", {}).get("durations", [])
    pair_evals = sum(counts("weakform.weak_residual", "pair_evals"))
    weak_s = get("weakform.weak_residual", "inclusive_s")
    m = {
        "solver.steps": sum(c for lab in runs for c in counts(lab, "steps")),
        "solver.dt_over_diffusive_cfl": statistics.median(dt_ratios) if dt_ratios else 0.0,
        "solver.step_us.p50": statistics.median(intervals) if intervals else 0.0,
        "solver.step_us.tail": percentile(intervals, tail) if tail else 0.0,
        "solver.run_self_s": sum(get(lab, "self_s") for lab in runs),
        "solver.poisson_s": get("solver.solve_poisson_neumann", "inclusive_s")
        + get("solver.radial_poisson_face_gradient", "inclusive_s"),
        "solver.poisson_calls": get("solver.solve_poisson_neumann", "calls")
        + get("solver.radial_poisson_face_gradient", "calls"),
        "solver.potential_s": get("solver.radial_potential", "inclusive_s"),
        "diagnostics.entropy_s": get("diagnostics.entropy", "inclusive_s"),
        "diagnostics.entropy_calls": get("diagnostics.entropy", "calls"),
        "diagnostics.entropy_us.p50": statistics.median(entropy_durations) * 1e6 if entropy_durations else 0.0,
        "diagnostics.atom_estimate_s": get("diagnostics.atom_estimate", "inclusive_s"),
        "diagnostics.sobolev_check_s": get("diagnostics.sobolev_check", "inclusive_s"),
        "weakform.weak_residual_s": weak_s,
        "weakform.pair_evals": pair_evals,
        "weakform.pair_evals_per_s": pair_evals / weak_s if weak_s else 0.0,
        "io.save_trajectory_s": get("io.save_trajectory", "inclusive_s"),
        "io.write_snapshot_calls": get("io.write_snapshot", "calls"),
        "io.bytes_written": sum(counts("io.write_snapshot", "bytes")),
        "io.read_snapshot_s": get("io.read_snapshot", "inclusive_s"),
        "io.bytes_read": sum(counts("io.read_snapshot", "bytes")),
        "sweep.run_sweep_self_s": get("sweep.run_sweep", "self_s"),
        "sweep.runs_ok_frac": sum(c["ok"] for c in sweeps) / max(1, sum(c["runs"] for c in sweeps)),
        "sweep.atom_found_frac": sum(c["atoms"] for c in sweeps) / max(1, sum(c["offsets"] for c in sweeps)),
        "greens.grad_x_G_terms_s": get("greens.grad_x_G_terms", "inclusive_s"),
        "greens.grad_x_G_terms_calls": get("greens.grad_x_G_terms", "calls"),
        "greens.greens_disk_exact_s": get("greens.greens_disk_exact", "inclusive_s"),
        "greens.greens_disk_exact_calls": get("greens.greens_disk_exact", "calls"),
        "greens.disk_mean_of_greens_s": get("greens.disk_mean_of_greens", "inclusive_s"),
        "geometry.reflect_tau_s": get("geometry.reflect_tau", "inclusive_s"),
        "testfn.build_boundary_bump_s": get("testfn.build_boundary_bump", "inclusive_s"),
        "testfn.verify_bump_s": get("testfn.verify_bump", "inclusive_s"),
        "config.parse_s": get("config.parse_run_config", "self_s") + get("config.parse_sweep_plan", "self_s"),
        "trace.unspanned_s": wall - summary["top_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for lab, v in labels.items() if lab.split(".", 1)[0] == layer)
    return m


def per_layer(args, workloads, wl, reference):
    from spans import iteration_summary

    tracer = make_tracer(workloads)
    loop = Loop(workloads, wl, reference, args.seconds, tracer)
    loop.run(min_iterations=2)
    traced_its = sorted({s[0] for s in tracer.spans if s is not None})
    per_it = []
    print(f"{'span':34s} {'calls':>9s} {'inclusive_s':>12s} {'self_s':>12s}   (traced iterations, totals)")
    totals = {}
    for it, wall in zip(traced_its, loop.traced_walls):
        summary = iteration_summary(tracer.spans, it)
        per_it.append(layer_metrics(summary, wall))
        for lab, v in summary["labels"].items():
            t = totals.setdefault(lab, [0, 0.0, 0.0])
            t[0] += v["calls"]
            t[1] += v["inclusive_s"]
            t[2] += v["self_s"]
    for lab, (calls, inc, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(f"{lab:34s} {calls:9d} {inc:12.6f} {self_s:12.6f}")
    traced_total = sum(loop.traced_walls)
    self_total = sum(v[2] for v in totals.values())
    unspanned = sum(m["trace.unspanned_s"] for m in per_it)
    print(f"accounting: span self times {self_total:.6f} s + unspanned {unspanned:.6f} s = "
          f"{self_total + unspanned:.6f} s of traced wall {traced_total:.6f} s")
    units = metric_units("per_layer")
    exact_counts = [name for name in per_it[0] if units[name] in ("count", "bytes")]
    metrics = {
        name: (statistics.median_low if name in exact_counts else statistics.median)(m[name] for m in per_it)
        for name in per_it[0]
    }
    # iterations alternate untraced, traced: pair each traced one with the one before it
    pairs = [traced - plain for plain, traced in zip(loop.walls, loop.traced_walls)]
    metrics["trace.overhead_s"] = statistics.median(pairs)
    print(f"trace.overhead_s {metrics['trace.overhead_s']:.6f} s   median of {len(pairs)} pairs "
          f"(traced minus the untraced iteration before it) {[round(d, 4) for d in pairs]}")
    for name in exact_counts:
        exact = {m[name] for m in per_it}
        print(f"count {name} = {metrics[name]:.0f} per traced iteration"
              f"{' (bytes computed from array sizes)' if name.startswith('io.bytes') else ''}"
              f"{'' if len(exact) == 1 else f'; differs between iterations: {sorted(exact)}'}")
    out_dir = ROOT / ".bench_out" / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(out_dir / f"{args.workload}-seed{args.seed}.csv")
    return loop, {name: metric(value, units[name]) for name, value in sorted(metrics.items())}


def run_one(args, workdir) -> int:
    setup_first, workloads, wl = timed_setup(args.workload, args.seed, workdir)
    if args.setup_probe:
        print(repr(setup_first))
        return 0
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"closed loop, 1 caller; nothing queues or retries, so no time is spent waiting")
    print("environment " + json.dumps(env))
    reference = json.loads(Path(args.reference).read_text())
    if args.trace:
        loop, metrics = per_layer(args, workloads, wl, reference)
    else:
        loop, metrics = end_to_end(args, workloads, wl, setup_first, reference)
    print(json.dumps({"correct": not loop.failed, "attempted": loop.attempted, "failed": len(loop.failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table of the end-to-end metrics."""
    rows, code = [], 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--reference", args.reference]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            code = 1
            continue
        out = json.loads(res.stdout.strip().splitlines()[-1])
        rows.append((name, out))
    if not args.trace:
        print(f"{'workload':16s} {'wall_s [s]':>12s} {'setup_s [s]':>12s} {'peak_rss_mb [MB]':>17s} {'failed_frac':>12s}")
        for name, out in rows:
            m = out["metrics"]
            print(f"{name:16s} {m['wall_s']['value']:12.6f} {m['setup_s']['value']:12.6f} "
                  f"{m['peak_rss_mb']['value']:17.3f} {out['failed'] / out['attempted']:12.6f}")
    return code if all(out["correct"] for _, out in rows) else 1


def write_reference(args, workdir) -> int:
    """Run one iteration of every workload at the nominal inputs (no seed
    perturbation) and store its outcomes as the reference."""
    import workloads

    tolerances = {"seeded": 0.10, "fixed": 1e-6}
    outcomes = {}
    for name in NAMES:
        wl = workloads.make(name, None, workdir / name)
        fails, got = wl.gate(wl.run(0))
        wl.clean()
        if fails:
            print("\n".join(fails), file=sys.stderr)
            return 1
        outcomes[name] = workloads.reference_entries(name, got)
    Path(args.reference).write_text(json.dumps({"tolerances": tolerances, "outcomes": outcomes}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kslab" / "__init__.py").is_file():
        print(f"error: the kslab sources are missing ({SRC / 'kslab'}); run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        return write_reference(args, workdir) if args.write_reference else run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
