"""Decomposed weak-form residual of the aggregation dynamics on trajectories.

For a space-time test function psi with zero boundary normal derivative,
solutions satisfy L1 + Q1 + Q2 + Q3 + Q4 + Q5 = 0, where L1 collects the
linear terms, Q1 the symmetrized Coulomb drift

    (1/4pi) intintint [(x-y).(grad psi(x) - grad psi(y))] / |x-y|^2 domega,

Q2-Q4 the boundary-collar image and curvature kernels, and Q5 the
continuous remainder.  ``domega = m(x) m(y) dx dy dt`` with m the
saturated flux f_eps(u) for the cutoff model and u itself for the
nonlinear-diffusion model (whose L1 Laplacian term uses u + eps u^{7/6}).

Collar terms are gated by Z(x) Z(y): both points must sit in the boundary
collar.  The gate leaves the telescoped sum exact (the complement is
absorbed into the remainder kernel W) and makes Q2-Q4 vanish identically
for test functions supported away from the boundary, where the image
machinery has no business.  In the collar-pair regime that matters for
boundary concentration, Z = 1 and the kernels agree with the ungated ones.

Evaluated on radially symmetric trajectories with radial test profiles,
every kernel reduces to (r, s, relative angle), so the double space
integral costs n_r^2 * n_theta; a dense pair quadrature covers small
rectangle grids (interior tests only there, and the remainder route goes
through the potential identity since the rectangle has no smooth collar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import smoothstep5, smoothstep5_d1, smoothstep5_d2
from .greens import cutoff_z_value, g_normal, g_tangential
from .solver import Trajectory, f_eps, solve_poisson_neumann
from .testfn import PHI_SUPPORT

__all__ = [
    "RadialProfileTest",
    "interior_bump_test",
    "quadratic_window_test",
    "boundary_compatible_test",
    "QBreakdown",
    "kernel_H1",
    "weak_residual",
    "limit_test_phi",
]


class RadialProfileTest:
    """Separable test function psi(x, t) = p(|x|) * zeta(t).

    ``p`` must have vanishing slope at the wall (zero Neumann data); the
    time window is 1 up to ``t_hold`` and tapers smoothly to 0 at
    ``t_off`` (compact support in time, so no terminal boundary term).
    """

    def __init__(self, name, p, dp, ddp, support_radius, t_hold, t_off):
        self.name = name
        self._p = p
        self._dp = dp
        self._ddp = ddp
        self.support_radius = support_radius
        self.t_hold = t_hold
        self.t_off = t_off
        slope_at_wall = abs(float(dp(np.asarray(1.0))))
        if slope_at_wall > 1e-10:
            raise ValueError(f"test profile violates the Neumann condition: p'(1)={slope_at_wall}")
        self.interior = support_radius < 1.0 - 1e-12

    # radial profile oracles -------------------------------------------------
    def p(self, r):
        return self._p(np.asarray(r, dtype=float))

    def dp(self, r):
        return self._dp(np.asarray(r, dtype=float))

    def ddp(self, r):
        return self._ddp(np.asarray(r, dtype=float))

    def plap(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            over_r = np.where(r > 1e-14, self._dp(r) / np.maximum(r, 1e-300), self._ddp(r))
        return self._ddp(r) + over_r

    # time window ------------------------------------------------------------
    def zeta(self, t):
        s = (np.asarray(t, dtype=float) - self.t_hold) / max(self.t_off - self.t_hold, 1e-300)
        return 1.0 - smoothstep5(s)

    def zeta_t(self, t):
        span = max(self.t_off - self.t_hold, 1e-300)
        s = (np.asarray(t, dtype=float) - self.t_hold) / span
        return -smoothstep5_d1(s) / span

    # point oracles (2D), used by kernel_H1 and limit_test_phi ---------------
    def gradient(self, x, t):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[..., None] > 1e-14, x / np.maximum(r, 1e-300)[..., None], 0.0)
        return self.dp(r)[..., None] * unit * np.asarray(self.zeta(t))[..., None]

    def hessian(self, x, t):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        rr = np.maximum(r, 1e-300)
        unit = x / rr[..., None]
        P = unit[..., :, None] * unit[..., None, :]
        eye = np.eye(2)
        H = self.ddp(r)[..., None, None] * P + (self.dp(r) / rr)[..., None, None] * (eye - P)
        return H * np.asarray(self.zeta(t))[..., None, None]

    def laplacian(self, x, t):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return self.plap(r) * self.zeta(t)


def interior_bump_test(radius: float = 0.45, t_hold: float = 0.3, t_off: float = 0.9) -> RadialProfileTest:
    """C^2 bump supported in |x| <= radius (quintic taper)."""
    R = radius

    def p(r):
        return 1.0 - smoothstep5(r / R)

    def dp(r):
        return -smoothstep5_d1(r / R) / R

    def ddp(r):
        return -smoothstep5_d2(r / R) / R**2

    return RadialProfileTest("interior_bump", p, dp, ddp, R, t_hold, t_off)


def quadratic_window_test(radius: float = 0.5, t_hold: float = 0.3, t_off: float = 0.9) -> RadialProfileTest:
    """|x|^2/2 windowed to zero before the wall; Hessian = I on the plateau."""
    R = radius
    plateau = 0.6 * R  # window = 1 inside, tapers on [0.6R, R]

    def w(r):
        return 1.0 - smoothstep5((r - plateau) / (R - plateau))

    def dw(r):
        return -smoothstep5_d1((r - plateau) / (R - plateau)) / (R - plateau)

    def ddw(r):
        return -smoothstep5_d2((r - plateau) / (R - plateau)) / (R - plateau) ** 2

    def p(r):
        return 0.5 * r**2 * w(r)

    def dp(r):
        return r * w(r) + 0.5 * r**2 * dw(r)

    def ddp(r):
        return w(r) + 2.0 * r * dw(r) + 0.5 * r**2 * ddw(r)

    return RadialProfileTest("quadratic_window", p, dp, ddp, R, t_hold, t_off)


def boundary_compatible_test(t_hold: float = 0.3, t_off: float = 0.9) -> RadialProfileTest:
    """Globally supported profile 1 + cos(pi r); p'(1) = 0 exactly."""

    def p(r):
        return 1.0 + np.cos(np.pi * r)

    def dp(r):
        return -np.pi * np.sin(np.pi * r)

    def ddp(r):
        return -np.pi**2 * np.cos(np.pi * r)

    return RadialProfileTest("boundary_compatible", p, dp, ddp, 1.0, t_hold, t_off)


@dataclass
class QBreakdown:
    L1: float
    Q1: float
    Q2: float
    Q3: float
    Q3_1: float
    Q3_2: float
    Q4: float
    Q5: float

    @property
    def residual(self) -> float:
        return self.L1 + self.Q1 + self.Q2 + self.Q3 + self.Q4 + self.Q5


def kernel_H1(x, y, psi, t, diag_threshold: float = 1e-8):
    """Symmetrized Coulomb kernel of psi at a point pair, including the
    angular-averaged diagonal value Lap(psi)/(8 pi) below the threshold."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    gx = psi.gradient(x, t)
    gy = psi.gradient(y, t)
    num = np.sum(dx * (gx - gy), axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = num / np.where(sep2 > 0, sep2, 1.0) / (4.0 * np.pi)
    diag = sep2 < diag_threshold**2
    if np.any(diag):
        lap = np.asarray(psi.laplacian(x, t))
        val = np.where(diag, lap / (8.0 * np.pi), val)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# radial-pair kernel tables
# ---------------------------------------------------------------------------


_TABLE_KEYS = ("Q1", "Q2", "Q3_1", "Q3_2", "Q4", "Q5")


def _radial_kernel_tables(traj: Trajectory, test: RadialProfileTest, n_theta: int, sigma0: float, diag_factor: float):
    """Angle-integrated pair kernels K[i, j] (measure weights folded in).

    The midpoint rule runs over the n_theta angles phi_k = (k + 1/2) dth,
    but every kernel sees phi only through c = cos(phi), and phi_k pairs
    with 2 pi - phi_k; so each distinct cosine is evaluated once at weight
    2 dth (phi = pi, present for odd n_theta, pairs with itself).  Each
    kernel is evaluated only on the index block where its factors can be
    non-zero; every other entry is an exact zero:

    * Q1 on the pairs with a row or a column in P = {p' != 0 or Lap p != 0};
    * the ungated part of Q5 (the exact gradient minus its Coulomb piece,
      in closed form) on the rows of P;
    * the collar terms on C x C, C = {Z(1 - r) > 0}, and not at all when
      p' vanishes on C and at the wall.
    """
    grid = traj.grid
    r = grid.centers
    n = r.size
    dth = 2.0 * np.pi / n_theta
    # (cos phi, share of the pair weight 2 dth); phi = pi has half of it
    angles = [(np.cos((k + 0.5) * dth), 0.5 if 2 * k + 1 == n_theta else 1.0) for k in range((n_theta + 1) // 2)]
    dpr = test.dp(r)
    plap = test.plap(r)
    dp1 = float(test.dp(np.asarray(1.0)))  # wall slope (0 for admitted tests)
    z = cutoff_z_value(1.0 - r, sigma0)

    K = {key: np.zeros((n, n)) for key in _TABLE_KEYS}
    support = (dpr != 0.0) | (plap != 0.0)
    rows = np.flatnonzero(support)
    if rows.size:
        for bi, bj, with_q5 in ((rows, np.arange(n), True), (np.flatnonzero(~support), rows, False)):
            q1, q5 = _coulomb_block(grid, dpr, plap, bi, bj, angles, dth, diag_factor, with_q5)
            K["Q1"][np.ix_(bi, bj)] = q1
            if with_q5:
                K["Q5"][np.ix_(bi, bj)] = q5
    collar = np.flatnonzero(z > 0.0)
    if collar.size and (dp1 != 0.0 or np.any(dpr[collar] != 0.0)):
        block = np.ix_(collar, collar)
        for key, val in _collar_block(r[collar], z[collar], dpr[collar], dp1, angles, dth).items():
            K[key][block] += val

    meas = (2.0 * np.pi * grid.vol)[:, None] * grid.vol[None, :]  # x-measure, y-measure (angle in the dth sums)
    return {key: T * meas for key, T in K.items()}


def _coulomb_block(grid, dpr, plap, rows, cols, angles, dth, diag_factor, with_q5):
    """Q1, and with ``with_q5`` the ungated part of Q5, on ``rows`` x ``cols``.

    Q1 is (p'(r)(r - s c) + p'(s)(s - r c)) / (4 pi |x - y|^2), replaced by
    Lap p(r) / (8 pi) on the band |x - y| < diag_tol.  In Q5 the Coulomb
    piece of the exact gradient cancels analytically, leaving
    -p'(r) (r - s (r s - c) / (r^2 s^2 - 2 r s c + 1)) / (2 pi).
    """
    R = grid.centers[rows, None]
    S = grid.centers[None, cols]
    DPR = dpr[rows, None]
    DPS = dpr[None, cols]
    rr_ss = R**2 + S**2
    two_rs = 2.0 * R * S
    n0 = DPR * R + DPS * S  # numerator = n0 - c n1
    n1 = DPR * S + DPS * R
    tol = diag_factor * (grid.widths[rows, None] + grid.widths[None, cols] + np.minimum(R, S) * dth)
    tol2 = tol * tol
    band_val = np.broadcast_to(0.5 * plap[rows, None], n0.shape)  # Lap p / (8 pi), times 4 pi
    sep2 = np.empty_like(n0)
    h = np.empty_like(n0)
    band = np.empty(n0.shape, dtype=bool)
    acc1 = np.zeros_like(n0)
    if with_q5:
        wall = (1.0 - R**2) * (1.0 - S**2)  # image distance^2 = sep^2 + wall
        s2r = S**2 * R
        acc5 = np.zeros_like(n0)
    for c, share in angles:
        np.multiply(two_rs, c, out=sep2)
        np.subtract(rr_ss, sep2, out=sep2)
        np.multiply(n1, c, out=h)
        np.subtract(n0, h, out=h)
        h /= sep2
        np.less(sep2, tol2, out=band)
        np.copyto(h, band_val, where=band)
        if share != 1.0:
            h *= share
        acc1 += h
        if with_q5:
            sep2 += wall
            np.subtract(s2r, S * c, out=h)
            h /= sep2
            if share != 1.0:
                h *= share
            acc5 += h
    q1 = acc1 * (dth / (2.0 * np.pi))  # 2 dth / (4 pi)
    if not with_q5:
        return q1, None
    # the dth / (2 pi) sum of r over all angles is r; each pair carries 2 dth / (2 pi) = dth / pi
    return q1, -DPR * (R - acc5 * (dth / np.pi))


def _collar_block(r, z, dp, dp1, angles, dth):
    """The collar-gated kernels (and the gated part of Q5) on C x C.

    With e = 1 - c and D = 2 e + (d_x + d_y)^2, each gated kernel is a
    polynomial in e over D or D^2 whose coefficients do not depend on the
    angle; the angle loop only sums e^k / D (k = 0, 1) and e^k / D^2
    (k = 0, 1, 2).  The curvature part of Q5 is exactly -Q4.
    """
    DX = (1.0 - r)[:, None]
    DY = (1.0 - r)[None, :]
    a = DX + DY
    a2 = a**2
    D = np.empty_like(a2)
    inv = np.empty_like(a2)
    tmp = np.empty_like(a2)
    s0, se, m0, me, mee = (np.zeros_like(a2) for _ in range(5))
    for c, share in angles:
        e = 1.0 - c
        np.add(a2, 2.0 - 2.0 * c, out=D)
        np.divide(share, D, out=inv)
        s0 += inv
        np.multiply(inv, e, out=tmp)
        se += tmp
        inv /= D
        m0 += inv
        np.multiply(inv, e, out=tmp)
        me += tmp
        tmp *= e
        mee += tmp
    gate = (2.0 * dth) * (z[:, None] * z[None, :])  # the pair weight 2 dth folded into Z(x) Z(y)
    DPR = dp[:, None]
    DPS = dp[None, :]
    A = DPR - dp1
    B = DPS - dp1
    # Q4's curvature factor g_t (1 - c) / sqrt(D) + g_n c, in the similarity variables
    # lambda = d / sqrt(D), equals (DY^2 a^2 c - 2 DX^2 c e - 2 a DY^2 e + 2 (DX - DY) e^2) / D^2;
    # collected in powers of e
    gamma = DY**2 * a2
    delta = DX**2
    q4 = (gate * DPR / r[None, :] / (2.0 * np.pi)) * (
        gamma * m0 + (-2.0 * a * DY**2 - gamma - 2.0 * delta) * me + 2.0 * (DX - DY + delta) * mee
    )
    return {
        "Q2": gate * (DPR + DPS) / (4.0 * np.pi) * se,
        "Q3_1": -gate / (4.0 * np.pi) * ((A + B) * a * s0 - (A * DY + B * DX) * se),
        "Q3_2": -gate * dp1 / (4.0 * np.pi) * a * (2.0 * s0 - se),
        "Q4": q4,
        "Q5": -gate * DPR / (2.0 * np.pi) * ((1.0 + DY) * se - a * s0) - q4,
    }


def _mobility_series(traj: Trajectory):
    eps = traj.reg.epsilon
    if traj.reg.is_cutoff:
        return [f_eps(s, eps) for s in traj.snapshots]
    return list(traj.snapshots)


def _companion_series(traj: Trajectory):
    eps = traj.reg.epsilon
    if traj.reg.is_cutoff:
        return list(traj.snapshots)
    return [s + eps * s ** (7.0 / 6.0) for s in traj.snapshots]


def weak_residual(
    traj: Trajectory,
    test: RadialProfileTest,
    n_theta: int = 192,
    sigma0: float = 0.25,
    diag_factor: float = 0.75,
) -> QBreakdown:
    """Evaluate the term breakdown on a trajectory; midpoint time rule.

    Radial backend: full collar machinery.  Rectangle backend: interior
    tests only; the collar terms vanish by construction and the remainder
    route contracts m(y) against the Green's function through the
    potential (the rectangle offers no pointwise collar kernels).
    """
    if traj.backend == "rect":
        return _weak_residual_rect(traj, test)
    if test.t_off > traj.times[-1] + 1e-12:
        raise ValueError("test time window must close before the trajectory ends")
    grid = traj.grid
    r = grid.centers
    tables = _radial_kernel_tables(traj, test, n_theta, sigma0, diag_factor)
    # an all-zero table contributes exactly 0.0, its starting value
    tables = {key: K for key, K in tables.items() if K.any()}
    mob = _mobility_series(traj)
    comp = _companion_series(traj)
    times = np.asarray(traj.times)
    w_meas = 2.0 * np.pi * grid.vol
    p_r = test.p(r)
    plap_r = test.plap(r)

    L1 = -float(np.sum(p_r * test.zeta(times[0]) * traj.snapshots[0] * w_meas))
    vals = {k: 0.0 for k in _TABLE_KEYS}
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt <= 1e-15:
            continue
        tm = 0.5 * (times[k] + times[k + 1])
        u_mid = 0.5 * (traj.snapshots[k] + traj.snapshots[k + 1])
        m_mid = 0.5 * (mob[k] + mob[k + 1])
        c_mid = 0.5 * (comp[k] + comp[k + 1])
        zt = float(test.zeta_t(tm))
        zv = float(test.zeta(tm))
        L1 += -dt * zt * float(np.sum(p_r * u_mid * w_meas))
        L1 += -dt * zv * float(np.sum(plap_r * c_mid * w_meas))
        for key, K in tables.items():
            vals[key] += dt * zv * float(m_mid @ K @ m_mid)
    q3 = vals["Q3_1"] + vals["Q3_2"]
    return QBreakdown(
        L1=L1,
        Q1=vals["Q1"],
        Q2=vals["Q2"],
        Q3=q3,
        Q3_1=vals["Q3_1"],
        Q3_2=vals["Q3_2"],
        Q4=vals["Q4"],
        Q5=vals["Q5"],
    )


def _weak_residual_rect(traj: Trajectory, test: RadialProfileTest) -> QBreakdown:
    if not test.interior:
        raise ValueError("rectangle backend supports interior tests only")
    hx, hy = traj.hx, traj.hy
    f0 = traj.field_at(0)
    X, Y = f0.cell_centers()
    cx, cy = 0.5 * f0.nx * hx, 0.5 * f0.ny * hy
    rr = np.hypot(X - cx, Y - cy)
    if float(rr.min()) + test.support_radius > min(cx, cy):
        raise ValueError("test support reaches the rectangle wall")
    p_v = test.p(rr)
    plap_v = test.plap(rr)
    dp_v = test.dp(rr)
    with np.errstate(invalid="ignore", divide="ignore"):
        ux = np.where(rr > 1e-14, (X - cx) / np.maximum(rr, 1e-300), 0.0)
        uy = np.where(rr > 1e-14, (Y - cy) / np.maximum(rr, 1e-300), 0.0)
    gpx = dp_v * ux
    gpy = dp_v * uy
    area = hx * hy

    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    npts = pts.shape[0]
    dxm = pts[:, None, 0] - pts[None, :, 0]
    dym = pts[:, None, 1] - pts[None, :, 1]
    sep2 = dxm**2 + dym**2
    gxf = np.stack([gpx.ravel(), gpy.ravel()], axis=-1)
    num = dxm * (gxf[:, None, 0] - gxf[None, :, 0]) + dym * (gxf[:, None, 1] - gxf[None, :, 1])
    diag_tol2 = (0.75 * (hx + hy)) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        H1 = np.where(sep2 > diag_tol2, num / np.where(sep2 > 0, sep2, 1.0), plap_v.ravel()[:, None]) / (
            4.0 * np.pi
        )

    mob = _mobility_series(traj)
    comp = _companion_series(traj)
    times = np.asarray(traj.times)
    L1 = -float(np.sum(p_v * test.zeta(times[0]) * traj.snapshots[0]) * area)
    Q1 = 0.0
    Q5 = 0.0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt <= 1e-15:
            continue
        tm = 0.5 * (times[k] + times[k + 1])
        u_mid = 0.5 * (traj.snapshots[k] + traj.snapshots[k + 1])
        m_mid = 0.5 * (mob[k] + mob[k + 1])
        c_mid = 0.5 * (comp[k] + comp[k + 1])
        zt = float(test.zeta_t(tm))
        zv = float(test.zeta(tm))
        L1 += -dt * zt * float(np.sum(p_v * u_mid) * area)
        L1 += -dt * zv * float(np.sum(plap_v * c_mid) * area)
        mf = m_mid.ravel() * area
        q1_t = float(mf @ H1 @ mf)
        Q1 += dt * zv * q1_t
        # drift against the full Green's gradient via the potential of m
        mean = float(m_mid.mean())
        vx, vy = solve_poisson_neumann(f0.like(m_mid - mean)).gradient()
        drift = float(np.sum(m_mid * (gpx * vx + gpy * vy)) * area)
        Q5 += dt * zv * (-drift - q1_t)
    return QBreakdown(L1=L1, Q1=Q1, Q2=0.0, Q3=0.0, Q3_1=0.0, Q3_2=0.0, Q4=0.0, Q5=Q5)


# ---------------------------------------------------------------------------
# boundary limit test function
# ---------------------------------------------------------------------------


def limit_test_phi(y, Y, lam1: float, lam2: float, psi, t: float = 0.0) -> float:
    """Boundary concentration test function phi1 + phi2 + phi3 + phi4.

    ``y`` lies on the unit circle, ``Y`` is tangent there, and the triple
    must satisfy |Y|^2 + (lam1+lam2)^2 = 1 (the normalized similarity
    manifold).  ``psi`` provides ``gradient(x, t)`` and ``hessian(x, t)``.
    """
    y = np.asarray(y, dtype=float)
    Y = np.asarray(Y, dtype=float)
    norm = float(Y @ Y + (lam1 + lam2) ** 2)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"unnormalized similarity variables: |Y|^2+(l1+l2)^2 = {norm}")
    if abs(np.hypot(*y) - 1.0) > 1e-10:
        raise ValueError("base point must lie on the unit circle")
    nu = y / np.hypot(*y)
    H = np.asarray(psi.hessian(y, t))
    grad = np.asarray(psi.gradient(y, t))
    h_curv = 1.0  # unit circle
    phi1 = (Y + (lam2 - lam1) * nu) @ H @ Y / (4.0 * np.pi)
    phi2 = (lam1 + lam2) ** 2 * (nu @ H @ nu) / (4.0 * np.pi)
    phi3 = (lam1 - lam2) * (Y @ H @ nu) / (4.0 * np.pi)
    gt = g_tangential(Y[None, :], np.asarray([lam1]), np.asarray([lam2]))[0]
    gn = float(g_normal(Y[None, :], np.asarray([lam1]), np.asarray([lam2]))[0])
    phi4 = (h_curv / (2.0 * np.pi)) * float(grad @ (gt + gn * nu))
    return float(phi1 + phi2 + phi3 + phi4)
