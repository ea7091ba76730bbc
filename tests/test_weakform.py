from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslab import solver as S
from kslab import weakform as W
from kslab.greens import cutoff_z_value


class QuadPsi:
    """psi = |x|^2/2: linear gradient, identity Hessian."""

    def gradient(self, x, t):
        return np.asarray(x, dtype=float)

    def hessian(self, x, t):
        return np.eye(2)

    def laplacian(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], 2.0) if x.ndim > 1 else 2.0


def test_kernel_h1_quadratic_is_constant(rng):
    psi = QuadPsi()
    pts = rng.uniform(-0.5, 0.5, size=(50, 2))
    x, y = pts[:25], pts[25:]
    vals = W.kernel_H1(x, y, psi, 0.0)
    assert np.allclose(vals, 1.0 / (4 * np.pi), atol=1e-14)
    # diagonal value matches the angular average Lap psi / (8 pi) = 1/(4 pi)
    assert W.kernel_H1(x[0], x[0], psi, 0.0) == pytest.approx(1.0 / (4 * np.pi))


def test_kernel_h1_interior_bump_bound(rng):
    test = W.interior_bump_test(radius=0.3, t_hold=0.5, t_off=1.0)
    pts = rng.uniform(-0.6, 0.6, size=(20_000, 2))
    x, y = pts[:10_000], pts[10_000:]
    vals = np.abs(W.kernel_H1(x, y, test, 0.0))
    C = np.max(vals) * 4 * np.pi * 0.3**2
    assert np.isfinite(C) and C < 50.0


def test_kernel_h1_outside_support_zero(rng):
    test = W.interior_bump_test(radius=0.2, t_hold=0.5, t_off=1.0)
    pts = 0.5 + 0.3 * rng.uniform(0, 1, size=(100, 2))
    x, y = pts[:50], pts[50:]
    assert np.allclose(W.kernel_H1(x, y, test, 0.0), 0.0)


def test_profile_neumann_guard():
    def p(r):
        return r  # slope 1 at the wall

    with pytest.raises(ValueError):
        W.RadialProfileTest("bad", p, lambda r: np.ones_like(np.asarray(r)), lambda r: np.zeros_like(np.asarray(r)), 1.0, 0.1, 0.2)


def test_quadratic_window_hessian_on_plateau():
    test = W.quadratic_window_test(radius=0.5, t_hold=0.5, t_off=1.0)
    x = np.array([0.1, 0.15])  # inside the plateau
    H = test.hessian(x, 0.0)
    assert np.allclose(H, np.eye(2), atol=1e-12)


def test_constant_state_residual_small(subcritical_radial_traj):
    grid = S.make_radial_grid(128, 1.0)
    u0 = S.RadialField(grid, np.full(128, 1.5))
    cfg = S.SolverConfig(t_end=0.01, snapshot_dt=0.01 / 24)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    test = W.interior_bump_test(radius=0.45, t_hold=0.003, t_off=0.008)
    qb = W.weak_residual(traj, test, n_theta=128)
    assert abs(qb.residual) < 5e-3 * max(abs(qb.Q1), 1e-12) + 1e-4


def test_collar_terms_vanish_for_interior_tests(subcritical_radial_traj):
    test = W.interior_bump_test(radius=0.4, t_hold=0.003, t_off=0.008)
    qb = W.weak_residual(subcritical_radial_traj, test, n_theta=96)
    assert qb.Q2 == 0.0 and qb.Q3 == 0.0 and qb.Q4 == 0.0


def test_residual_decreases_under_refinement():
    residuals = []
    for n in (48, 96):
        grid = S.make_radial_grid(n, 1.0)
        u0 = S.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.25)
        cfg = S.SolverConfig(t_end=0.01, snapshot_dt=0.01 / 24)
        traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
        test = W.interior_bump_test(radius=0.45, t_hold=0.003, t_off=0.008)
        residuals.append(abs(W.weak_residual(traj, test, n_theta=128).residual))
    assert residuals[1] < residuals[0]


def test_boundary_compatible_collar_terms_active():
    grid = S.make_radial_grid(96, 1.0)
    u0 = S.initial_condition_radial(grid, "annulus", mass=4.0, r0=0.7, width=0.1)
    cfg = S.SolverConfig(t_end=0.008, snapshot_dt=0.008 / 24)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    test = W.boundary_compatible_test(t_hold=0.002, t_off=0.006)
    qb = W.weak_residual(traj, test, n_theta=128)
    assert qb.Q2 != 0.0 and qb.Q3 != 0.0 and qb.Q4 != 0.0
    scale = max(abs(qb.L1), abs(qb.Q1), abs(qb.Q5))
    assert abs(qb.residual) < 0.1 * scale


def test_q1_swap_symmetry():
    # swapping the quadrature roles of x and y leaves Q1 unchanged: the
    # angle-integrated kernel table is symmetric
    grid = S.make_radial_grid(64, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=3.0, width=0.3)
    cfg = S.SolverConfig(t_end=0.005, snapshot_dt=0.005 / 8)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    test = W.interior_bump_test(radius=0.45, t_hold=0.0015, t_off=0.004)
    tables = W._radial_kernel_tables(traj, test, 96, 0.25, 0.75)
    K = tables["Q1"]
    m = traj.snapshots[0]
    a = float(m @ K @ m)
    b = float(m @ K.T @ m)
    assert a == pytest.approx(b, rel=1e-12)


def test_diagonal_rule_reproduces_atom_weight():
    # manufactured Dirac-like blob: Q1 collapses to Lap psi(0) mass^2/(8 pi)
    grid = S.make_radial_grid(512, 1.0)
    vals = np.where(grid.centers < 0.004, 1.0, 0.0)
    u = S.RadialField(grid, vals)
    u.values *= 5.0 / u.mass()
    traj = S.radial_run(
        S.SolverConfig(t_end=1e-6, dt_policy="fixed", dt_fixed=5e-7),
        S.RegKind("cutoff_flux", 1e-9),  # far below saturation: f_eps(u) = u exactly
        u,
    )
    assert not traj.failed
    test = W.quadratic_window_test(radius=0.5, t_hold=2e-7, t_off=8e-7)
    qb = W.weak_residual(traj, test, n_theta=128)
    T_eff = 0.0
    times = np.asarray(traj.times)
    for k in range(times.size - 1):
        T_eff += (times[k + 1] - times[k]) * float(test.zeta(0.5 * (times[k] + times[k + 1])))
    mass = u.mass()
    lap0 = float(test.plap(np.asarray(0.0)))
    expect = T_eff * lap0 * mass**2 / (8 * np.pi)
    assert qb.Q1 == pytest.approx(expect, rel=0.1)


def test_rect_interior_matches_disk_scale():
    # matched interior data on both backends: residuals both small on the
    # scale of the gross linear term
    n = 32
    t_end = 0.006
    u0r = S.initial_condition_rect(n, n, 2.0, 2.0, "gaussian", mass=3.0, width=0.2, center=(1, 1))
    cfgr = S.SolverConfig(t_end=t_end, snapshot_dt=t_end / 48)
    trar = S.run(cfgr, S.RegKind("cutoff_flux", 1e-2), u0r)
    test = W.interior_bump_test(radius=0.45, t_hold=0.2 * t_end, t_off=0.8 * t_end)
    qbr = W.weak_residual(trar, test)
    assert qbr.Q2 == qbr.Q3 == qbr.Q4 == 0.0
    grid = S.make_radial_grid(n, 1.0)
    u0d = S.initial_condition_radial(grid, "gaussian", mass=3.0, width=0.2)
    trad = S.radial_run(
        S.SolverConfig(t_end=t_end, snapshot_dt=t_end / 48),
        S.RegKind("cutoff_flux", 1e-2),
        u0d,
    )
    qbd = W.weak_residual(trad, test, n_theta=96)
    # scale: the gross linear payload |int psi(0) u0| (the summands of L1
    # cancel to the residual, so L1 itself is not a scale)
    X, Y = trar.field_at(0).cell_centers()
    rr = np.hypot(X - 1.0, Y - 1.0)
    gross = float(np.sum(test.p(rr) * trar.snapshots[0]) * trar.hx * trar.hy)
    assert abs(qbr.residual) < 0.02 * gross
    assert abs(qbd.residual) < 0.02 * gross


def test_rect_rejects_wall_reaching_test():
    u0 = S.initial_condition_rect(24, 24, 1.0, 1.0, "gaussian", mass=1.0, width=0.2)
    traj = S.run(S.SolverConfig(t_end=1e-3, snapshot_dt=5e-4), S.RegKind("cutoff_flux", 1e-2), u0)
    with pytest.raises(ValueError):
        W.weak_residual(traj, W.boundary_compatible_test(t_hold=2e-4, t_off=8e-4))


def test_limit_phi_values():
    psi = QuadPsi()
    y = np.array([1.0, 0.0])
    # tangential-only limit: lambda = 0, |Y| = 1
    Yt = np.array([0.0, 1.0])
    val = W.limit_test_phi(y, Yt, 0.0, 0.0, psi)
    assert val == pytest.approx((Yt @ np.eye(2) @ Yt) / (4 * np.pi))
    # Y = 0, lambda1 = lambda2 = 1/2
    val2 = W.limit_test_phi(y, np.zeros(2), 0.5, 0.5, psi)
    assert val2 == pytest.approx(1 / (4 * np.pi) + 0.25 / (2 * np.pi))


def test_limit_phi_zero_psi():
    class ZeroPsi:
        def gradient(self, x, t):
            return np.zeros(2)

        def hessian(self, x, t):
            return np.zeros((2, 2))

    assert W.limit_test_phi(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.0, 0.0, ZeroPsi()) == 0.0


def test_limit_phi_rejects_unnormalized():
    with pytest.raises(ValueError):
        W.limit_test_phi(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 0.5, QuadPsi())


def _full_angle_tables(grid, test, n_theta, sigma0, diag_factor):
    """Reference: every kernel on every pair at each of the n_theta angles."""
    r = grid.centers
    n = r.size
    dr = grid.widths
    dth = 2.0 * np.pi / n_theta
    dpr = test.dp(r)
    plap_r = test.plap(r)
    dp1 = float(test.dp(np.asarray(1.0)))
    d = 1.0 - r
    z = cutoff_z_value(d, sigma0)
    R, Sy = r[:, None], r[None, :]
    DPR, DPS = dpr[:, None], dpr[None, :]
    DXv, DYv = d[:, None], d[None, :]
    HS = (1.0 / r)[None, :]
    gate = z[:, None] * z[None, :]
    diag_tol = diag_factor * (dr[:, None] + dr[None, :] + np.minimum(R, Sy) * dth)
    K1, K2, K31, K32, K4, K5 = (np.zeros((n, n)) for _ in range(6))
    for k in range(n_theta):
        c = np.cos((k + 0.5) * dth)
        sep2 = R**2 + Sy**2 - 2.0 * R * Sy * c
        num = DPR * (R - Sy * c) - DPS * (R * c - Sy)
        h1 = np.where(np.sqrt(sep2) < diag_tol, plap_r[:, None] / (8.0 * np.pi), num / sep2 / (4.0 * np.pi))
        K1 += h1 * dth
        Dden = (2.0 - 2.0 * c) + (DXv + DYv) ** 2
        K2 += gate * (1.0 - c) * (DPR + DPS) / Dden / (4.0 * np.pi) * dth
        K31 += -gate * ((DPR - dp1) * (DXv + DYv * c) + (DPS - dp1) * (DXv * c + DYv)) / Dden / (4.0 * np.pi) * dth
        K32 += -gate * dp1 * ((DXv + DYv * c) + (DXv * c + DYv)) / Dden / (4.0 * np.pi) * dth
        sqrtD = np.sqrt(Dden)
        lam1, lam2 = DXv / sqrtD, DYv / sqrtD
        Y2 = (2.0 - 2.0 * c) / Dden
        gt_coef = -2.0 * (lam1 + lam2) * lam2**2 + (lam1 - lam2) * Y2
        gn = -(lam2**2) + 2.0 * lam2**2 * (lam1 + lam2) ** 2 + (lam2**2 - lam1**2) * Y2
        curv = (gate * HS / (2.0 * np.pi)) * (gt_coef * (1.0 - c) / sqrtD + gn * c)
        K4 += DPR * curv * dth
        image2 = R**2 * Sy**2 - 2.0 * R * Sy * c + 1.0
        exact = -((R - Sy * c) / sep2 + (Sy**2 * R - Sy * c) / image2) / (2.0 * np.pi) + R / (2.0 * np.pi)
        coulomb = -(R - Sy * c) / sep2 / (2.0 * np.pi)
        image_term = -gate * ((1.0 - c) - (DXv + DYv * c)) / Dden / (2.0 * np.pi)
        K5 += -DPR * (exact - coulomb - image_term + curv) * dth
    meas = (2.0 * np.pi * grid.vol)[:, None] * grid.vol[None, :]
    return {"Q1": K1 * meas, "Q2": K2 * meas, "Q3_1": K31 * meas, "Q3_2": K32 * meas, "Q4": K4 * meas, "Q5": K5 * meas}


@st.composite
def kernel_table_cases(draw):
    grid = S.make_radial_grid(draw(st.integers(8, 48)), draw(st.floats(1.0, 1.01)))
    kind = draw(st.sampled_from(["interior_bump", "quadratic_window", "boundary_compatible"]))
    if kind == "interior_bump":
        test = W.interior_bump_test(radius=draw(st.floats(0.2, 0.95)))  # inside or reaching into the collar
    elif kind == "quadratic_window":
        test = W.quadratic_window_test(radius=draw(st.floats(0.2, 0.95)))
    else:
        test = W.boundary_compatible_test()
    n_theta = draw(st.integers(2, 40))
    sigma0 = draw(st.floats(0.1, 0.3))
    diag_factor = draw(st.floats(0.5, 1.0))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 5.0, grid.n)
    return grid, test, n_theta, sigma0, diag_factor, m


@given(kernel_table_cases())
@settings(max_examples=150, deadline=None)
def test_kernel_tables_match_full_angle_loop(case):
    grid, test, n_theta, sigma0, diag_factor, m = case
    old = _full_angle_tables(grid, test, n_theta, sigma0, diag_factor)
    new = W._radial_kernel_tables(SimpleNamespace(grid=grid), test, n_theta, sigma0, diag_factor)
    assert set(new) == set(old)
    for key, K_old in old.items():
        K_new = new[key]
        assert K_new.shape == K_old.shape
        tol = 1e-10 * float(np.sum(np.abs(K_old))) * float(np.max(m)) ** 2
        assert abs(float(m @ K_new @ m) - float(m @ K_old @ m)) <= tol, key
        if key != "Q1" and key != "Q5":  # the collar tables keep the oracle's exact zeros
            assert np.all(K_new[K_old == 0.0] == 0.0), key
