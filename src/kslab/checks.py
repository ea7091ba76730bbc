"""Verification suites behind the ``check`` subcommand.

Each suite measures the defining residuals of one subsystem and gates them
at the library's published tolerances.  Suites return (rows, passed); rows
are CSV-ready dicts with columns (check, value, gate, passed).
"""

from __future__ import annotations

import numpy as np

from . import diagnostics, greens, solver, testfn, weakform
from .geometry import unit_disk

__all__ = ["check_greens", "check_testfn", "check_sobolev", "check_weak_residual", "CHECK_COLUMNS"]

CHECK_COLUMNS = ["check", "value", "gate", "passed"]


def _row(name: str, value: float, gate: float, larger_ok: bool = False) -> dict:
    ok = value >= gate if larger_ok else value <= gate
    return {"check": name, "value": value, "gate": gate, "passed": bool(ok)}


def _sample_disk(rng, n, r_max=0.999):
    r = np.sqrt(rng.uniform(0, r_max**2, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def _max_abs(*arrays) -> float:
    return max(float(np.max(np.abs(a))) for a in arrays)


def _collar_pairs_fd(rng, decomp, n_pairs: int) -> tuple[float, int]:
    """Largest gap between the gradient decomposition and central finite
    differences of G over ``n_pairs`` collar pairs, and the pair count.

    Each batch of ``2 n_pairs`` samples pairs consecutive collar points and
    keeps, in order, the pairs that pass the separation and step filters.
    """
    worst = 0.0
    count = 0
    while count < n_pairs:
        pts = _sample_disk(rng, 2 * n_pairs, 0.998)
        d = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
        collar = pts[(d < 2 * decomp.sigma0) & (d > 2e-3)]
        m = len(collar) // 2
        x, y = collar[0 : 2 * m : 2], collar[1 : 2 * m : 2]
        sep = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1])
        tau = greens.reflect_tau(decomp.domain, y)
        sep_t = np.hypot(x[:, 0] - tau[:, 0], x[:, 1] - tau[:, 1])
        h = np.minimum(3e-3 * np.minimum(sep, sep_t), 0.3 * (1.0 - np.hypot(x[:, 0], x[:, 1])))
        keep = np.flatnonzero((sep >= 5e-3) & (h >= 1e-9))[: n_pairs - count]
        if keep.size == 0:
            continue
        x, y, h = x[keep], y[keep], h[keep]
        step = h[:, None, None] * np.eye(2)  # step[p, k] = h_p e_k
        f = greens.greens_disk_exact(np.stack([x[:, None] + step, x[:, None] - step]), y[:, None])
        fd = (f[0] - f[1]) / (2 * h[:, None])
        terms = greens.grad_x_G_terms(decomp, x, y)
        worst = max(worst, float(np.max(np.abs(terms.total - fd))))
        count += keep.size
    return worst, count


def _amplitude_scan(decomp, n_r: int, n_t: int) -> tuple[float, float, float]:
    """Largest |K|, |grad K| and |W| between 64 fixed probes and a polar
    grid of ``n_r`` radii by ``n_t`` angles, leaving out the grid points
    within 1e-2 of each probe; one pair evaluator per probe."""
    pr = np.linspace(0.05, 0.97, 8)
    pt = 2 * np.pi * np.arange(8) / 8
    prr, ptt = np.meshgrid(pr, pt, indexing="ij")
    probes = np.stack([prr * np.cos(ptt), prr * np.sin(ptt)], axis=-1).reshape(-1, 2)
    r = np.linspace(0.02, 0.99, n_r)
    th = 2 * np.pi * np.arange(n_t) / n_t
    rr, tt = np.meshgrid(r, th, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)
    a0, a1 = np.ascontiguousarray(pts.T)
    kmax = gkmax = wmax = 0.0
    for p0, p1 in probes:
        keep = np.hypot(a0 - p0, a1 - p1) > 1e-2
        pair = greens.GreensPair(decomp, a0[keep], a1[keep], p0, p1)
        kmax = max(kmax, _max_abs(pair.k))
        gkmax = max(gkmax, _max_abs(*pair.grad_k))
        wmax = max(wmax, _max_abs(*pair.w))
    return kmax, gkmax, wmax


def check_greens(mesh: float = 1.0 / 512.0, n_pairs: int = 1000, seed: int = 11) -> tuple[list, bool]:
    rng = np.random.default_rng(seed)
    rows = []

    xs = _sample_disk(rng, 200)
    ys = _sample_disk(rng, 200)
    keep = np.hypot(*(xs - ys).T) > 1e-3
    sym = np.abs(
        np.asarray(greens.greens_disk_exact(xs[keep], ys[keep]))
        - np.asarray(greens.greens_disk_exact(ys[keep], xs[keep]))
    ).max()
    rows.append(_row("symmetry", float(sym), 1e-12))

    mz = max(abs(greens.disk_mean_of_greens(x)) for x in _sample_disk(rng, 20, 0.95))
    rows.append(_row("mean_zero", float(mz), 1e-8))

    # Neumann: 4th-order one-sided inward stencil at 64 boundary points
    th = 2 * np.pi * np.arange(64) / 64
    b = np.stack([np.cos(th), np.sin(th)], axis=-1)
    # one source per boundary point, each drawn on its own: the order of
    # the draws fixes which samples the later checks see
    srcs = np.array([_sample_disk(rng, 1, 0.6)[0] for _ in th])
    steps = np.arange(5)[:, None, None] * mesh
    f = greens.greens_disk_exact(b - steps * b, srcs)
    d = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * mesh)
    rows.append(_row("neumann_residual", float(np.max(np.abs(d))), 1e-6))

    decomp = greens.build_greens_decomposition()
    worst, _ = _collar_pairs_fd(rng, decomp, n_pairs)
    rows.append(_row("grad_decomposition_fd", worst, 1e-4))

    # amplitude scan stability under sampling-mesh doubling: sample points
    # refine while the probe partners stay fixed, so the maxima converge
    k1, g1, w1 = _amplitude_scan(decomp, 40, 48)
    k2, g2, w2 = _amplitude_scan(decomp, 80, 96)
    for name, v1, v2 in (("K_max_stability", k1, k2), ("gradK_max_stability", g1, g2), ("W_max_stability", w1, w2)):
        ratio = abs(v2 / v1 - 1.0) if v1 else 0.0
        rows.append(_row(name, ratio, 0.10))
        rows.append({"check": name + "_value", "value": v2, "gate": "", "passed": True})

    passed = all(r["passed"] for r in rows)
    return rows, passed


def check_testfn(rhos=(0.02,), lambda0: float = 8.0, mesh: float = 1.0 / 512.0) -> tuple[list, bool]:
    rows = []
    tiny = 1e-9
    for b in (1.0, testfn.PHI_LOG_KNEE, testfn.PHI_SUPPORT):
        mismatch = abs(testfn.phi_deriv(b - tiny) - testfn.phi_deriv(b + tiny))
        # one-sided slopes agree to O(tiny); the analytic mismatch is zero
        rows.append(_row(f"phi_c1_breakpoint_{b:.4f}", float(mismatch), 1e-8))
    dom = unit_disk()
    for rho in rhos:
        for depth in (0.0, 1.0, 2.0):
            rr = rho if depth < 2 else rho / 2
            x0 = np.array([1.0 - depth * rr, 0.0])
            bump = testfn.build_boundary_bump(dom, x0, rr, lambda0)
            rep = testfn.verify_bump(bump, mesh=mesh, n_samples=600)
            tag = f"rho{rr}_depth{depth}"
            rows.append(_row(f"bump_core_lap_{tag}", rep.core_laplacian_rel_err, 0.05))
            rows.append(_row(f"bump_neumann_{tag}", rep.neumann_residual, 1e-6))
            rows.append(_row(f"bump_min_core_{tag}", rep.min_on_core, 0.5, larger_ok=True))
            rows.append(_row(f"bump_support_{tag}", rep.support_leak, 0.0))
            rows.append(_row(f"bump_annulus_sign_{tag}", rep.annulus_min_laplacian, -0.12, larger_ok=True))
    passed = all(r["passed"] for r in rows)
    if not passed:
        admissible = testfn.max_admissible_rho(dom, 0.0, 1.0, lambda0)
        rows.append({"check": "max_admissible_rho", "value": admissible, "gate": "", "passed": True})
    return rows, passed


def check_sobolev(n_fields: int = 100, seed: int = 20240) -> tuple[list, bool]:
    rows = []
    rng = np.random.default_rng(seed)
    eta = diagnostics._sobolev_eta(96, 1.0)
    fails = 0
    for _ in range(n_fields):
        u = diagnostics.random_band_limited_field(96, 1.0, rng)
        _, _, ok = diagnostics.sobolev_check(u, eta, 0.5)
        fails += 0 if ok else 1
    rows.append(_row("regression_failures", fails, 0))
    # near-extremal probe: concentrated polynomial bump inside eta == 1
    eta2 = diagnostics._sobolev_eta(192, 1.0)
    X, Y = eta2.cell_centers()
    worst_ratio = 0.0
    for R in (0.12, 0.08, 0.05):
        r2 = ((X - 0.5) ** 2 + (Y - 0.5) ** 2) / R**2
        u = eta2.like(np.maximum(1 - r2, 0.0) ** 5)
        lhs, t1, _ = diagnostics.sobolev_check(u, eta2, 0.5, C=0.0)
        worst_ratio = max(worst_ratio, lhs / t1)
    rows.append(_row("near_extremal_ratio", worst_ratio, 1.0))
    return rows, all(r["passed"] for r in rows)


def check_weak_residual(levels=(64, 128, 256), t_end: float = 0.01, n_theta: int = 160) -> tuple[list, bool]:
    rows = []
    residuals = []
    for n in levels:
        grid = solver.make_radial_grid(n, 1.0)
        u0 = solver.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.25)
        cfg = solver.SolverConfig(t_end=t_end, snapshot_dt=t_end / 24)
        traj = solver.radial_run(cfg, solver.RegKind("cutoff_flux", 1e-2), u0)
        test = weakform.interior_bump_test(radius=0.45, t_hold=0.3 * t_end, t_off=0.8 * t_end)
        qb = weakform.weak_residual(traj, test, n_theta=n_theta)
        residuals.append(abs(qb.residual))
        rows.append({"check": f"residual_n{n}", "value": abs(qb.residual), "gate": "", "passed": True})
        rows.append(_row(f"collar_terms_zero_n{n}", abs(qb.Q2) + abs(qb.Q3) + abs(qb.Q4), 0.0))
    orders = [np.log2(residuals[k] / residuals[k + 1]) for k in range(len(residuals) - 1)]
    for k, o in enumerate(orders):
        rows.append(_row(f"order_{levels[k]}to{levels[k + 1]}", float(o), 0.8, larger_ok=True))
    return rows, all(r["passed"] for r in rows)
