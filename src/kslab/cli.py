"""Command line driver: run, sweep, check, and report subcommands.

Exit codes: 0 success; 2 a run stopped on the concentration rule (artifacts
intact); 1 configuration or execution error.  Every artifact directory
holds a manifest (config hash, seed, version) sufficient to re-execute the
producing command bit-identically.  ``check`` prints one line per CSV row,
then the suite's elapsed seconds (``elapsed 0.123 s``), which stay out of
the CSV.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import checks, io
from .config import ConfigError, parse_run_config, parse_sweep_plan
from .solver import diffusive_dt_limit, initial_condition, radial_run, run as rect_run
from .testfn import CORE_MARGIN, RHO_MAX


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kslab", description="Regularized aggregation dynamics laboratory")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    ap.add_argument("--seed", type=int, default=None, help="seed override")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run from a config file")
    p_run.add_argument("config", help="run configuration path")

    p_sweep = sub.add_parser("sweep", help="execute an epsilon sweep plan")
    p_sweep.add_argument("plan", help="sweep plan path")

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=["greens", "testfn", "sobolev", "weak-residual"])
    p_check.add_argument("--mesh", type=float, default=1.0 / 512.0, help="stencil mesh for greens/testfn, in (0, 0.25)")
    p_check.add_argument("--rho", type=float, default=0.02, help=f"bump radius for testfn, in (0, {RHO_MAX}]")
    p_check.add_argument("--levels", default="64 128 256", help="refinement ladder for weak-residual, integers >= 2")

    p_rep = sub.add_parser("report", help="summarize an artifact directory")
    p_rep.add_argument("directory")
    return ap


def cmd_run(args) -> int:
    try:
        cfg = parse_run_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = args.out or cfg.out_dir
    try:
        u0 = initial_condition(cfg.domain, cfg.solver, cfg.initial_kind, cfg.initial_params)
        traj = radial_run(cfg.solver, cfg.reg, u0) if cfg.domain == "disk" else rect_run(cfg.solver, cfg.reg, u0)
    except Exception as exc:  # noqa: BLE001 - reported with exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out_dir:
        io.save_run(traj, out_dir, cfg)
    if traj.failed:
        print(f"error: {traj.failure_message}", file=sys.stderr)
        return 1
    if traj.stop_reason in ("umax_stop", "dt_min"):
        print(f"stopped on concentration rule at t={traj.times[-1]} ({traj.stop_reason})")
        return 2
    print(f"completed t={traj.times[-1]} with {len(traj.diag)} steps")
    return 0


def cmd_sweep(args) -> int:
    from .sweep import run_sweep

    try:
        plan = parse_sweep_plan(args.plan)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        plan.seed = args.seed
    out = args.out or plan.out_dir or "sweep_out"
    try:
        report = run_sweep(plan, out, threads=max(1, args.threads))
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_fail = sum(1 for row in report.rows if row.status != "ok")
    print(f"sweep complete: {len(report.rows)} runs, {n_fail} failed; report in {out}")
    return 0


def _parse_check_options(args) -> tuple[int, ...]:
    """The weak-residual ladder, once the ``check`` options are found in
    range; ValueError naming the first option out of range otherwise."""
    if not (np.isfinite(args.mesh) and 0.0 < args.mesh and 4.0 * args.mesh < 1.0):
        # the Neumann stencil steps 4 meshes inward from the circle
        raise ValueError(f"--mesh must be finite with 0 < mesh < 0.25, got {args.mesh}")
    if not 0.0 < args.rho <= RHO_MAX:
        raise ValueError(f"--rho must lie in (0, {RHO_MAX}], got {args.rho}")
    if args.suite == "testfn" and not args.mesh < (1.0 - CORE_MARGIN) * args.rho:
        # verify_bump samples the core of a bump centered on the wall at
        # least one mesh inside the disk, which needs a core wider than it
        raise ValueError(f"--mesh must stay below {1.0 - CORE_MARGIN} * rho for testfn, got {args.mesh}")
    try:
        levels = tuple(int(tok) for tok in args.levels.split())
    except ValueError:
        levels = ()
    if len(levels) < 2 or min(levels) < 2:
        raise ValueError(f"--levels must be at least two integers, each >= 2, got {args.levels!r}")
    return levels


def cmd_check(args) -> int:
    try:
        levels = _parse_check_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    if args.suite == "greens":
        rows, passed = checks.check_greens(mesh=args.mesh)
    elif args.suite == "testfn":
        rows, passed = checks.check_testfn(rhos=(args.rho,), mesh=args.mesh)
    elif args.suite == "sobolev":
        rows, passed = checks.check_sobolev()
    else:
        rows, passed = checks.check_weak_residual(levels=levels)
    elapsed = time.perf_counter() - start
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    io.write_csv(out / f"check_{args.suite.replace('-', '_')}.csv", checks.CHECK_COLUMNS, rows)
    for row in rows:
        mark = "PASS" if row["passed"] else "FAIL"
        print(f"{mark:4s} {row['check']}: {row['value']} (gate {row['gate']})")
    # timing stays out of the CSV, which repeats byte for byte
    print(f"elapsed {elapsed:.3f} s")
    return 0 if passed else 1


def cmd_report(args) -> int:
    root = Path(args.directory)
    if not root.exists():
        print(f"error: no such directory {root}", file=sys.stderr)
        return 1
    manifests = sorted(root.rglob("manifest.ini")) + sorted(root.rglob("sweep_manifest.ini"))
    if not manifests:
        print("error: no manifests found", file=sys.stderr)
        return 1
    for m in manifests:
        entries = io.read_manifest(m)
        print(f"== {m.parent}")
        for key in sorted(entries):
            print(f"  {key} = {entries[key]}")
        diag = m.parent / "diagnostics.csv"
        lines = diag.read_text().strip().splitlines() if diag.exists() else []
        if len(lines) < 2:
            continue
        rows = dict(zip(lines[0].split(","), np.array([line.split(",") for line in lines[1:]], dtype=float).T))
        print(f"  steps = {len(lines) - 1}, final mass drift = {float(abs(rows['mass'][-1] - rows['mass'][0]))!r}")
        if len(lines) < 3:  # row n is the state before step n
            print("  dt and energy law unavailable: one row")
            continue
        if (m.parent / "config.ini").exists():
            _report_dt_regime(m.parent / "config.ini", rows["t"])
        _report_energy_law(rows["t"], rows["entropy"], rows["dissipation"])
    return 0


def _report_dt_regime(config_path: Path, times: np.ndarray) -> None:
    """Median dt and median dt over the pure-diffusion CFL bound of the
    run's grid: near ``cfl_safety`` diffusion sets the step, well below it
    advection does."""
    try:
        cfg = parse_run_config(config_path)
    except (ConfigError, OSError) as exc:
        print(f"  dt regime unavailable: {exc}")
        return
    dt = np.diff(times)  # row n is the state at t_n, before step n
    ratio = dt / diffusive_dt_limit(cfg.domain, cfg.solver)
    print(f"  median dt = {float(np.median(dt))!r}, median dt / diffusive CFL = {float(np.median(ratio)):.4f}")


def _report_energy_law(t: np.ndarray, E: np.ndarray, D: np.ndarray) -> None:
    """Median over the rows of |(E_{n+1} - E_n) / (t_{n+1} - t_n) + D_n| / |D_n|:
    D_n is step n's own energy rate, so this is O(dt) below the cutoff knee."""
    moving = D[:-1] != 0.0  # a state at rest has no relative residual
    residual = np.abs(np.diff(E) / np.diff(t) + D[:-1])[moving] / np.abs(D[:-1][moving])
    if residual.size:
        print(f"  energy law: median |dE/dt + D| / |D| = {float(np.median(residual)):.3e} over {residual.size} steps")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check, "report": cmd_report}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
