"""Epsilon sweeps, regularization comparison, and extrapolation reports.

A sweep runs all (regularization, epsilon) combinations of a plan from a
shared initial state, estimates the atom quantities at matched times past
the common concentration flag, fits their epsilon-trends, and measures how
far apart the two regularizations' states drift once concentration sets
in.  Artifacts land in content-addressed run directories (hash of the
normalized per-run configuration plus seed), so identical plans rerun
byte-identically.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics, io
from .config import ConfigError, RunConfig, SweepPlanConfig, emit_run_config
from .solver import REPEATED_TIME, RadialField, RegKind, Trajectory, initial_condition, radial_run
from .testfn import phi as phi_profile

__all__ = [
    "SweepReport",
    "run_sweep",
    "fit_trend",
    "mass_change_modulus",
    "build_radial_partition",
    "singular_set_continuity_check",
]


@dataclass
class SweepRow:
    reg: str
    epsilon: float
    run_dir: str
    status: str  # "ok" | "failed"
    concentrated: bool
    t_flag: float | None
    offsets: list = field(default_factory=list)  # per matched offset dicts


@dataclass
class SweepReport:
    plan_hash: str
    rows: list
    trend: dict  # per reg: {"r0_sqrt":, "r0_lin":, "r0":, "quality":}
    divergence: list  # per epsilon dicts with pre/post L1 distances
    verdicts: dict

    def csv_rows(self):
        out = []
        for row in self.rows:
            for od in row.offsets:
                out.append(
                    {
                        "reg": row.reg,
                        "epsilon": row.epsilon,
                        "status": row.status,
                        "t_flag": row.t_flag if row.t_flag is not None else "",
                        "offset": od["offset"],
                        "alpha": od["alpha"],
                        "beta": od["beta"],
                        "ratio_eight_pi": od.get("ratio", ""),
                        "no_atom": od["no_atom"],
                        "run_dir": Path(row.run_dir).name,  # relative to the sweep root
                    }
                )
        return out

    COLUMNS = ["reg", "epsilon", "status", "t_flag", "offset", "alpha", "beta", "ratio_eight_pi", "no_atom", "run_dir"]


def _single_run(cfg: RunConfig, out_root: Path):
    u0 = initial_condition(cfg.domain, cfg.solver, cfg.initial_kind, cfg.initial_params)
    digest = io.run_config_hash(cfg)
    run_dir = out_root / f"run_{cfg.reg.variant}_{digest}"
    traj = radial_run(cfg.solver, cfg.reg, u0)
    io.save_run(traj, run_dir, cfg)
    return traj, str(run_dir), digest


def _snapshot_at(traj: Trajectory, t: float) -> tuple[float, np.ndarray]:
    times = np.asarray(traj.times)
    k = int(np.argmin(np.abs(times - t)))
    return float(times[k]), traj.snapshots[k]


def fit_trend(eps: np.ndarray, vals: np.ndarray) -> dict:
    """Least-squares r(eps) = r0 + c eps^q for q in {1/2, 1}; keeps both and
    the better (smaller residual) as the headline r0."""
    out = {}
    best = None
    for tag, q in (("sqrt", 0.5), ("lin", 1.0)):
        A = np.stack([np.ones_like(eps), eps**q], axis=-1)
        coef, res, *_ = np.linalg.lstsq(A, vals, rcond=None)
        sse = float(res[0]) if res.size else float(np.sum((A @ coef - vals) ** 2))
        out[f"r0_{tag}"] = float(coef[0])
        out[f"sse_{tag}"] = sse
        if best is None or sse < best[0]:
            best = (sse, float(coef[0]), tag)
    out["r0"] = best[1]
    out["q_best"] = best[2]
    return out


def run_sweep(plan: SweepPlanConfig, out_dir, threads: int = 1) -> SweepReport:
    """Execute the plan and assemble the cross-epsilon report."""
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    jobs = []
    for reg_name in plan.regs:
        for eps in plan.epsilons:
            cfg = copy.deepcopy(plan.base)
            cfg.reg = RegKind(reg_name, eps)
            cfg.seed = plan.seed
            jobs.append(cfg)

    results: dict[tuple[str, float], tuple] = {}

    def work(cfg: RunConfig):
        try:
            traj, run_dir, digest = _single_run(cfg, out_root)
            return (cfg.reg.variant, cfg.reg.epsilon), (traj, run_dir, None)
        except Exception as exc:  # noqa: BLE001 - recorded per run
            return (cfg.reg.variant, cfg.reg.epsilon), (None, "", str(exc))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # deferred: only threaded sweeps need it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for key, val in pool.map(work, jobs):
                results[key] = val
    else:
        for cfg in jobs:
            key, val = work(cfg)
            results[key] = val

    flags = [
        traj.concentrated_time
        for traj, _, err in results.values()
        if err is None and traj.concentrated
    ]
    t_common = max(flags) if flags else None

    rows = []
    per_reg_ratio: dict[str, list] = {r: [] for r in plan.regs}
    for reg_name in plan.regs:
        for eps in plan.epsilons:
            traj, run_dir, err = results[(reg_name, eps)]
            if err is not None:
                rows.append(
                    SweepRow(reg=reg_name, epsilon=eps, run_dir=run_dir, status="failed", concentrated=False, t_flag=None)
                )
                continue
            row = SweepRow(
                reg=reg_name,
                epsilon=eps,
                run_dir=run_dir,
                status="ok",
                concentrated=traj.concentrated,
                t_flag=traj.concentrated_time,
            )
            if t_common is not None:
                for off in plan.matched_offsets:
                    t_req = min(t_common + off, traj.times[-1])
                    t_got, snap = _snapshot_at(traj, t_req)
                    est = diagnostics.atom_estimate(
                        RadialField(traj.grid, snap), (0.0, 0.0), traj.reg, plan.rho_ladder
                    )
                    od = {
                        "offset": off,
                        "t": t_got,
                        "alpha": est.plateau_alpha,
                        "beta": est.plateau_beta,
                        "no_atom": est.no_atom,
                    }
                    if est.ratio_eight_pi is not None:
                        od["ratio"] = est.ratio_eight_pi
                        per_reg_ratio[reg_name].append((eps, est.ratio_eight_pi))
                    row.offsets.append(od)
            rows.append(row)

    ok_eps = {r: [row.epsilon for row in rows if row.reg == r and row.status == "ok"] for r in plan.regs}
    for r, lst in ok_eps.items():
        if len(lst) < 2:
            raise ConfigError(f"fewer than two surviving runs for {r}; sweep report impossible")

    trend = {}
    for reg_name in plan.regs:
        pts = per_reg_ratio[reg_name]
        if pts:
            eps_a = np.asarray([p[0] for p in pts])
            val_a = np.asarray([p[1] for p in pts])
            trend[reg_name] = fit_trend(eps_a, val_a)

    divergence = []
    if set(plan.regs) >= {"cutoff_flux", "nonlinear_diffusion"} and t_common is not None:
        for eps in plan.epsilons:
            t_a = results[("cutoff_flux", eps)]
            t_b = results[("nonlinear_diffusion", eps)]
            if t_a[2] is not None or t_b[2] is not None:
                continue
            ta, tb = t_a[0], t_b[0]
            vol = 2.0 * np.pi * ta.grid.vol
            t_pre = 0.5 * min(
                ta.concentrated_time or t_common, tb.concentrated_time or t_common
            )
            _, sa = _snapshot_at(ta, t_pre)
            _, sb = _snapshot_at(tb, t_pre)
            pre = float(np.sum(np.abs(sa - sb) * vol))
            post = []
            for off in plan.matched_offsets:
                t_req = min(t_common + off, ta.times[-1], tb.times[-1])
                _, sa = _snapshot_at(ta, t_req)
                _, sb = _snapshot_at(tb, t_req)
                post.append(float(np.sum(np.abs(sa - sb) * vol)))
            divergence.append({"epsilon": eps, "pre_l1": pre, "post_l1_max": max(post), "post_l1": post})

    verdicts = {
        "any_concentrated": any(row.concentrated for row in rows if row.status == "ok"),
        "all_ok": all(row.status == "ok" for row in rows),
    }
    plan_text = "\n".join(f"{r} {e}" for r in plan.regs for e in plan.epsilons)
    report = SweepReport(
        plan_hash=io.config_hash(emit_run_config(plan.base) + plan_text + f"|seed={plan.seed}"),
        rows=rows,
        trend=trend,
        divergence=divergence,
        verdicts=verdicts,
    )
    io.write_csv(
        out_root / "sweep_report.csv",
        SweepReport.COLUMNS,
        report.csv_rows(),
        {
            "reg": "regularization variant",
            "epsilon": "regularization strength",
            "status": "ok or failed",
            "t_flag": "time the concentration flag rose",
            "offset": "matched-time offset past the common flag",
            "alpha": "plateau ball mass of u",
            "beta": "plateau ball mass of the companion density",
            "ratio_eight_pi": "alpha^2 / (8 pi beta), diffusion model",
            "no_atom": "plateau detection failed",
            "run_dir": "per-run artifact directory",
        },
    )
    trend_rows = [
        {"reg": reg_name, **{k: v for k, v in t.items()}} for reg_name, t in sorted(trend.items())
    ]
    if trend_rows:
        io.write_csv(
            out_root / "sweep_trend.csv",
            ["reg", "r0", "q_best", "r0_sqrt", "sse_sqrt", "r0_lin", "sse_lin"],
            trend_rows,
        )
    if divergence:
        io.write_csv(
            out_root / "sweep_divergence.csv",
            ["epsilon", "pre_l1", "post_l1_max"],
            [{k: d[k] for k in ("epsilon", "pre_l1", "post_l1_max")} for d in divergence],
        )
    io.write_manifest(
        out_root / "sweep_manifest.ini",
        {
            "plan_hash": report.plan_hash,
            "seed": plan.seed,
            "epsilons": " ".join(repr(e) for e in plan.epsilons),
            "regs": " ".join(plan.regs),
            "version": "kslab-0.1.0",
        },
    )
    return report


# ---------------------------------------------------------------------------
# patch-mass Lipschitz moduli
# ---------------------------------------------------------------------------


def build_radial_partition(grid, n_patches: int, spacing_factor: float = 1.0):
    """Partition of unity over [0, 1] from normalized interior profiles.

    Bumps phi(|r - c_l| / rho) on an even ladder, then normalized by their
    sum.  ``spacing_factor`` > ~2.7 leaves holes (the sum vanishes), which
    the partition check rejects.
    """
    centers = np.linspace(0.0, 1.0, n_patches)
    rho = spacing_factor * (centers[1] - centers[0])
    r = grid.centers
    raw = [np.asarray(phi_profile(np.abs(r - c) / rho)) for c in centers]
    total = np.sum(raw, axis=0)
    if np.any(total <= 0):
        return raw  # un-normalizable; caller's partition check will fail
    return [b / total for b in raw]


def mass_change_modulus(traj: Trajectory, cover, tol: float = 1e-8) -> dict:
    """Per-patch Lipschitz moduli max |d/dt int psi_l u| over the snapshots.

    ``cover`` is a list of patch values on the grid cells; it must be a
    partition of unity within ``tol``.
    """
    total = np.sum(cover, axis=0)
    if float(np.max(np.abs(total - 1.0))) > tol:
        raise ValueError("cover is not a partition of unity")
    weights = np.reshape(cover, (len(cover), -1)) * traj.field_at(0).cell_area
    moduli = np.abs(traj.rate(traj.stack() @ weights.T)).max(axis=0, initial=0.0)
    return {"moduli": moduli, "max_modulus": float(np.max(moduli))}


# ---------------------------------------------------------------------------
# singular-set track continuity
# ---------------------------------------------------------------------------


def singular_set_continuity_check(times, centers_series) -> dict:
    """sqrt(t)-Hoelder modulus of detected concentration tracks.

    ``centers_series[k]`` lists centers at ``times[k]``.  Tracks link each
    center to the nearest one at the previous snapshot.  Steps jumping
    beyond ten times the running modulus estimate are flagged
    as re-identifications, not continuity violations.
    """
    moduli = []
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        if dt <= REPEATED_TIME or not centers_series[k] or not centers_series[k - 1]:
            continue
        prev = np.asarray(centers_series[k - 1])
        for c in centers_series[k]:
            c = np.asarray(c)
            d = np.min(np.hypot(prev[:, 0] - c[0], prev[:, 1] - c[1]))
            moduli.append((k, d / np.sqrt(dt)))
    if not moduli:
        return {"modulus": 0.0, "flagged": [], "n_steps": 0}
    vals = np.asarray([m for _, m in moduli])
    scale = float(np.median(vals))
    flagged = [k for (k, m) in moduli if scale > 0 and m > 10.0 * scale]
    kept = [m for (k, m) in moduli if k not in flagged]
    return {
        "modulus": float(np.max(kept)) if kept else 0.0,
        "flagged": flagged,
        "n_steps": len(moduli),
    }
