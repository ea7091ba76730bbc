"""Acceptance suite: one test per published criterion, printed PASS/FAIL.

Shared expensive runs live in module fixtures:

* ``sweep12``: strongly supercritical disk runs (mass 12 pi, width 0.05)
  over both regularizations and the atom ladder {1e-4, 3e-5, 1e-5}; drives
  the rate-uniformity, critical-mass, and divergence criteria.
* ``sweep9``: mildly supercritical runs (mass 9 pi, width 0.06, ladder
  {3e-4, 1e-4, 3e-5}); the atom lives near 8 pi there, which is where the
  eight-pi ratio gate is meaningful and the cores are grid-resolved.

Two sub-criteria are implemented verbatim and are expected to fail at
desk scale (see the repo notes): the epsilon-uniformity of the weighted
u^{7/6} integral on the pinned ladder (criterion 4b; passing requires
resolving arrest densities ~(0.4/eps)^6, far beyond any feasible grid; a
companion test demonstrates the same property on an attainable ladder)
and the cutoff-deficit monotonicity (criterion 7c; the measured ordering
is resolution-limited and runs opposite at every feasible grid).
"""

import subprocess
import sys

import numpy as np
import pytest

from kslab import checks, diagnostics, solver, sweep, testfn, weakform


def _report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {tag} {detail}")
    assert passed, f"{criterion}: {detail}"


def _radial_traj(mass, width, eps, reg, n=768, t_end=0.012, snapshot_dt=4e-4, **kw):
    grid = solver.make_radial_grid(n, 1.0)
    u0 = solver.initial_condition_radial(grid, "gaussian", mass=mass, width=width)
    cfg = solver.SolverConfig(t_end=t_end, snapshot_dt=snapshot_dt, **kw)
    return solver.radial_run(cfg, solver.RegKind(reg, eps), u0)


ATOM_LADDER = (1e-4, 3e-5, 1e-5)
RATIO_LADDER = (3e-4, 1e-4, 3e-5)


@pytest.fixture(scope="module")
def sweep12():
    out = {}
    for reg in ("cutoff_flux", "nonlinear_diffusion"):
        for eps in ATOM_LADDER:
            out[(reg, eps)] = _radial_traj(12 * np.pi, 0.05, eps, reg, stop_umax_factor=1e30)
    return out


@pytest.fixture(scope="module")
def sweep9():
    out = {}
    for reg in ("cutoff_flux", "nonlinear_diffusion"):
        for eps in RATIO_LADDER:
            out[(reg, eps)] = _radial_traj(
                9 * np.pi, 0.06, eps, reg, t_end=0.03, snapshot_dt=5e-4, stop_umax_factor=1e30
            )
    return out


def _snapshot_at(traj, tq):
    k = int(np.argmin(np.abs(np.asarray(traj.times) - tq)))
    return traj.field_at(k)


# -- criterion 1: mass conservation ----------------------------------------


def test_acceptance_01_mass_conservation():
    details = []
    ok = True
    for reg in ("cutoff_flux", "nonlinear_diffusion"):
        traj = _radial_traj(4 * np.pi, 0.2, 1e-3, reg, n=1024, t_end=2.5e-3, snapshot_dt=None)
        m = traj.mass_series()
        drift = float(np.max(np.abs(m - m[0])) / m[0])
        ok &= drift <= 1e-12 and len(m) >= 10_000
        details.append(f"radial/{reg}: drift {drift:.2e} over {len(m)} steps")
    for reg in ("cutoff_flux", "nonlinear_diffusion"):
        u0 = solver.initial_condition_rect(256, 256, 1.0, 1.0, "gaussian", mass=4.0, width=0.1)
        cfg = solver.SolverConfig(t_end=0.034)
        traj = solver.run(cfg, solver.RegKind(reg, 1e-2), u0)
        m = traj.mass_series()
        drift = float(np.max(np.abs(m - m[0])) / m[0])
        ok &= drift <= 1e-12 and len(m) >= 10_000
        details.append(f"rect/{reg}: drift {drift:.2e} over {len(m)} steps")
    _report("1 mass conservation", ok, "; ".join(details))


# -- criterion 2: Green's oracle consistency --------------------------------


def test_acceptance_02_greens():
    rows, passed = checks.check_greens()
    detail = ", ".join(f"{r['check']}={r['value']:.3g}" for r in rows if not isinstance(r["gate"], str))
    _report("2 greens oracle", passed, detail)


# -- criterion 3: test functions --------------------------------------------


def test_acceptance_03_testfn():
    # exact one-sided slopes at the profile breakpoints
    mismatches = [
        abs(-1.0 - (-1.0 / 1.0)),  # quadratic vs log piece at r = 1
        abs(-1.0 / testfn.PHI_LOG_KNEE - (-2.0 * np.exp(-0.5) * (testfn.PHI_SUPPORT - testfn.PHI_LOG_KNEE))),
        abs(-2.0 * np.exp(-0.5) * (testfn.PHI_SUPPORT - testfn.PHI_SUPPORT) - 0.0),
    ]
    ok = max(mismatches) <= 1e-12
    rows, bump_ok = checks.check_testfn(rhos=(0.02,))
    detail = f"phi C1 mismatch {max(mismatches):.2e}; " + ", ".join(
        f"{r['check']}={r['value']:.3g}" for r in rows if r["check"].startswith("bump_core")
    )
    _report("3 test functions", ok and bump_ok, detail)


# -- criterion 4: entropy ----------------------------------------------------


@pytest.fixture(scope="module")
def entropy_ladder_runs():
    runs = {}
    for eps in (1e-2, 3e-3, 1e-3, 3e-4):
        runs[eps] = _radial_traj(
            12 * np.pi, 0.1, eps, "nonlinear_diffusion", n=640, t_end=6e-3, snapshot_dt=None
        )
    return runs


def test_acceptance_04a_entropy_monotone(entropy_ladder_runs):
    worst = 0.0
    for eps, traj in entropy_ladder_runs.items():
        rows = traj.diag
        for k in range(len(rows) - 1):
            dE = rows[k + 1]["entropy"] - rows[k]["entropy"]
            dt = rows[k + 1]["t"] - rows[k]["t"]
            worst = max(worst, dE - 1e-3 * abs(rows[k]["entropy"]) * dt)
    _report("4a entropy non-increasing", worst <= 0.0, f"worst tolerance excess {worst:.2e}")


def test_acceptance_04b_entropy_epsilon_uniformity(entropy_ladder_runs):
    # Verbatim gate on the pinned ladder. At feasible resolutions the
    # saturated-core density (0.43/eps)^6 the bound calibrates against is
    # unreachable, so the weighted maxima scale like eps^{~1} and the
    # spread far exceeds 3; kept red deliberately (see repo notes).
    vals = {eps: diagnostics.entropy_epsilon_bound(traj) for eps, traj in entropy_ladder_runs.items()}
    spread = max(vals.values()) / min(vals.values())
    _report(
        "4b eps-uniform entropy bound (pinned ladder)",
        spread <= 3.0,
        f"maxima {dict((k, round(v, 4)) for k, v in vals.items())}, spread {spread:.1f}",
    )


def test_acceptance_04c_entropy_uniformity_attainable_regime():
    # companion demonstration: on a ladder whose arrest densities the grid
    # resolves, the weighted maxima flatten out as the bound asserts
    vals = {}
    for eps in (0.2, 0.1, 0.05):
        traj = _radial_traj(
            12 * np.pi, 0.1, eps, "nonlinear_diffusion", n=384, t_end=0.25, snapshot_dt=None,
            stop_umax_factor=1e30,
        )
        vals[eps] = diagnostics.entropy_epsilon_bound(traj)
    spread = max(vals.values()) / min(vals.values())
    _report(
        "4c eps-uniform entropy bound (arrest ladder)",
        spread <= 3.0,
        f"maxima {dict((k, round(v, 3)) for k, v in vals.items())}, spread {spread:.2f}",
    )


# -- criterion 5: local mass rate eps-uniformity -----------------------------


def test_acceptance_05_rate_uniformity(sweep12):
    ok = True
    details = []
    for rho in (0.05, 0.1):
        cvals = []
        nvals = []
        for eps in ATOM_LADDER:
            sc = diagnostics.local_mass_rate(sweep12[("cutoff_flux", eps)], ((0.0, 0.0), rho))
            cvals.append(float(np.max(sc.rho2_abs_rate)))
            sn = diagnostics.local_mass_rate(sweep12[("nonlinear_diffusion", eps)], ((0.0, 0.0), rho))
            nvals.append(float(np.max(sn.rho2_onesided)))
        spread = max(cvals) / min(cvals)
        ok &= spread <= 2.0
        # one-sided bound: uniformly bounded across the ladder (zero when
        # the probe mass never decays faster than the allowance)
        one_ok = max(nvals) <= 2.0 * max(min(nvals), 1e-3 * max(cvals))
        ok &= one_ok
        details.append(f"rho={rho}: cutoff spread {spread:.2f}, onesided max {max(nvals):.2e}")
    _report("5 local mass rate uniformity", ok, "; ".join(details))


# -- criterion 6: critical-mass behavior -------------------------------------


def test_acceptance_06a_subcritical_bounded():
    traj = _radial_traj(4 * np.pi, 0.1, 3e-5, "nonlinear_diffusion", n=320, t_end=0.5, snapshot_dt=0.05)
    sup_u = max(r["max_u"] for r in traj.diag)
    u0max = traj.snapshots[0].max()
    ok = (not traj.concentrated) and sup_u <= 10.0 * u0max
    _report("6a subcritical mass 4pi", ok, f"sup u {sup_u:.1f} vs 10*u0 {10 * u0max:.1f}, flag {traj.concentrated}")


def test_acceptance_06b_supercritical_ball_mass(sweep12):
    ok = True
    details = []
    for reg in ("cutoff_flux", "nonlinear_diffusion"):
        for eps in ATOM_LADDER:
            traj = sweep12[(reg, eps)]
            best = max(
                diagnostics.ball_mass_radial(traj.field_at(k), 0.05) for k in range(len(traj.times))
            )
            ok &= traj.concentrated and best > 8 * np.pi
            details.append(f"{reg[:4]}/{eps}: {best / (8 * np.pi):.2f}x8pi")
    _report("6b supercritical mass 12pi", ok, "; ".join(details))


# -- criterion 7: eight-pi atom relations ------------------------------------


def _matched_estimates(trajs, ladder, offsets=(0.005, 0.01)):
    t_common = max(trajs[k].concentrated_time for k in trajs)
    out = {}
    for key, traj in trajs.items():
        ests = []
        for off in offsets:
            fld = _snapshot_at(traj, min(t_common + off, traj.times[-1]))
            ests.append(
                diagnostics.atom_estimate(fld, (0.0, 0.0), traj.reg, rho_ladder=(0.02, 0.03, 0.05, 0.08, 0.12))
            )
        out[key] = ests
    return out, t_common


def test_acceptance_07a_ratio_trend(sweep9):
    trajs = {k: v for k, v in sweep9.items() if k[0] == "nonlinear_diffusion"}
    ests, _ = _matched_estimates(trajs, RATIO_LADDER)
    eps_arr = np.asarray(RATIO_LADDER)
    ratios = np.asarray([ests[("nonlinear_diffusion", e)][-1].ratio_eight_pi for e in RATIO_LADDER])
    fit = sweep.fit_trend(eps_arr, ratios)
    ok = 0.85 <= fit["r0"] <= 1.15
    _report(
        "7a eight-pi ratio trend",
        ok,
        f"ratios {np.round(ratios, 3).tolist()} -> r0 {fit['r0']:.3f} (q={fit['q_best']})",
    )


def test_acceptance_07b_cutoff_inequalities(sweep9):
    trajs = {k: v for k, v in sweep9.items() if k[0] == "cutoff_flux"}
    ests, _ = _matched_estimates(trajs, RATIO_LADDER)
    ok = True
    details = []
    for eps in RATIO_LADDER:
        for est in ests[("cutoff_flux", eps)]:
            ok &= bool(np.all(est.beta <= est.alpha + 1e-12))
            ratio = est.plateau_beta**2 / (8 * np.pi * est.plateau_alpha)
            ok &= ratio <= 1.1
        details.append(f"eps {eps}: beta<=alpha, beta^2/(8pi alpha) {ratio:.3f}")
    _report("7b cutoff exact inequalities", ok, "; ".join(details))


def test_acceptance_07c_cutoff_deficit_trend(sweep9):
    # Verbatim gate: alpha - beta increasing as eps decreases once
    # alpha > 8 pi.  Measured ordering is the opposite at every feasible
    # resolution (the smaller-eps cores are the least resolved, which
    # suppresses their saturation deficit); kept red deliberately.
    trajs = {k: v for k, v in sweep9.items() if k[0] == "cutoff_flux"}
    ests, _ = _matched_estimates(trajs, RATIO_LADDER)
    deficits = []
    for eps in RATIO_LADDER:  # descending eps
        est = ests[("cutoff_flux", eps)][-1]
        if est.plateau_alpha > 8 * np.pi:
            deficits.append((eps, est.plateau_alpha - est.plateau_beta))
    increasing = all(b[1] >= a[1] - 1e-12 for a, b in zip(deficits, deficits[1:]))
    ok = len(deficits) >= 2 and increasing
    _report(
        "7c cutoff deficit monotone in eps",
        ok,
        f"(eps, alpha-beta) pairs {[(e, round(d, 4)) for e, d in deficits]}",
    )


# -- criterion 8: regularization divergence ----------------------------------


def test_acceptance_08_divergence(sweep12):
    ok = True
    details = []
    for eps in ATOM_LADDER[-2:]:  # two smallest
        ta = sweep12[("cutoff_flux", eps)]
        tb = sweep12[("nonlinear_diffusion", eps)]
        tflag = max(ta.concentrated_time, tb.concentrated_time)
        vol = 2 * np.pi * ta.grid.vol
        pre = float(
            np.sum(np.abs(_snapshot_at(ta, 0.5 * tflag).values - _snapshot_at(tb, 0.5 * tflag).values) * vol)
        )
        post = max(
            float(
                np.sum(
                    np.abs(
                        _snapshot_at(ta, min(tflag + off, ta.times[-1])).values
                        - _snapshot_at(tb, min(tflag + off, tb.times[-1])).values
                    )
                    * vol
                )
            )
            for off in (0.002, 0.005, 0.01)
        )
        ratio = post / max(pre, 1e-300)
        ok &= ratio > 10.0
        details.append(f"eps {eps}: post/pre {ratio:.0f}")
    _report("8 regularization divergence", ok, "; ".join(details))


# -- criterion 9: weak residual convergence ----------------------------------


def test_acceptance_09_weak_residual():
    rows, passed = checks.check_weak_residual(levels=(64, 128, 256))
    detail = ", ".join(
        f"{r['check']}={r['value']:.3g}" for r in rows if r["check"].startswith(("residual", "order"))
    )
    _report("9 weak residual convergence", passed, detail)


# -- criterion 10: Sobolev regression ----------------------------------------


def test_acceptance_10_sobolev():
    rows, passed = checks.check_sobolev()
    detail = ", ".join(f"{r['check']}={r['value']}" for r in rows)
    _report("10 sobolev regression", passed, detail)


# -- criterion 11: determinism ------------------------------------------------


PLAN_TEXT = """
[sweep]
epsilons = 0.0003 0.0001
regs = cutoff_flux nonlinear_diffusion
matched_offsets = 0.0005 0.001
rho_ladder = 0.05 0.08 0.12
seed = 5

[domain]
kind = disk

[grid]
radial_n = 256
radial_ratio = 1.0

[initial]
kind = gaussian
mass = 37.699
width = 0.08

[time]
t_end = 0.004
snapshot_dt = 0.0004

[stopping]
stop_factor = 1e30

[output]
seed = 5
"""


def test_acceptance_11_determinism(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text(PLAN_TEXT)
    outs = []
    for tag in ("a", "b"):
        res = subprocess.run(
            [sys.executable, "-m", "kslab.cli", "--out", str(tmp_path / tag), "sweep", str(plan)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / tag / "sweep_report.csv").read_bytes())
    same = outs[0] == outs[1]
    trend_same = (tmp_path / "a" / "sweep_trend.csv").read_bytes() == (
        tmp_path / "b" / "sweep_trend.csv"
    ).read_bytes()
    _report("11 determinism", same and trend_same, f"report bytes equal: {same}, trend equal: {trend_same}")
