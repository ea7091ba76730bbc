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

One midpoint rule in time serves both backends.  Evaluated on radially
symmetric trajectories with radial test profiles, every kernel reduces to
(r, s, relative angle), so the double space integral costs n_r^2 * n_theta;
a dense pair quadrature covers small rectangle grids (interior tests only
there, and the remainder route goes through the potential identity since
the rectangle has no smooth collar).  Near the diagonal, Q1 takes the
kernel's angular average Lap psi / (8 pi) on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import smoothstep5, smoothstep5_d1, smoothstep5_d2
from .greens import cutoff_z_value, g_normal, g_tangential
from .solver import RadialGrid, Trajectory, solve_poisson_neumann
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
    Q3_1: float
    Q3_2: float
    Q4: float
    Q5: float

    @property
    def Q3(self) -> float:
        return self.Q3_1 + self.Q3_2

    @property
    def residual(self) -> float:
        return self.L1 + self.Q1 + self.Q2 + self.Q3 + self.Q4 + self.Q5


def kernel_H1(x, y, psi, t):
    """Symmetrized Coulomb kernel of psi at a point pair, including the
    angular-averaged diagonal value Lap(psi)/(8 pi) for pairs closer than
    1e-8."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    gx = psi.gradient(x, t)
    gy = psi.gradient(y, t)
    num = np.sum(dx * (gx - gy), axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = num / np.where(sep2 > 0, sep2, 1.0) / (4.0 * np.pi)
    diag = sep2 < 1e-8**2
    if np.any(diag):
        lap = np.asarray(psi.laplacian(x, t))
        val = np.where(diag, lap / (8.0 * np.pi), val)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# radial-pair kernel tables
# ---------------------------------------------------------------------------


_TABLE_KEYS = ("Q1", "Q2", "Q3_1", "Q3_2", "Q4", "Q5")

# Q1's near-diagonal band on both backends: pairs closer than _DIAG_FACTOR
# times the summed cell sizes take the kernel's angular average Lap p / (8 pi)
_DIAG_FACTOR = 0.75


def _radial_kernel_tables(grid: RadialGrid, test: RadialProfileTest, n_theta: int, sigma0: float):
    """Angle-integrated pair kernels K[i, j] (measure weights folded in);
    ``sigma0`` is the collar half-width of the cutoff Z.

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
            q1, q5 = _coulomb_block(grid, dpr, plap, bi, bj, angles, dth, with_q5)
            K["Q1"][np.ix_(bi, bj)] = q1
            if with_q5:
                K["Q5"][np.ix_(bi, bj)] = q5
    collar = np.flatnonzero(z > 0.0)
    if collar.size and (dp1 != 0.0 or np.any(dpr[collar] != 0.0)):
        block = np.ix_(collar, collar)
        for key, val in _collar_block(r[collar], z[collar], dpr[collar], dp1, angles, dth).items():
            K[key][block] += val

    meas = grid.cell_areas[:, None] * grid.vol[None, :]  # x-measure, y-measure (angle in the dth sums)
    return {key: T * meas for key, T in K.items()}


def _coulomb_block(grid, dpr, plap, rows, cols, angles, dth, with_q5):
    """Q1, and with ``with_q5`` the ungated part of Q5, on ``rows`` x ``cols``.

    Q1 is (p'(r)(r - s c) + p'(s)(s - r c)) / (4 pi |x - y|^2), replaced by
    Lap p(r) / (8 pi) on the band |x - y| < _DIAG_FACTOR (dr + ds + min(r, s) dth).
    In Q5 the Coulomb piece of the exact gradient cancels analytically, leaving
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
    tol = _DIAG_FACTOR * (grid.widths[rows, None] + grid.widths[None, cols] + np.minimum(R, S) * dth)
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


def _disk_quadrature(traj: Trajectory, test: RadialProfileTest, n_theta: int):
    """Cell radii and pair terms of the disk backend: per row m of a stack
    of mobilities, m K m over the nonzero angle-integrated tables, whose
    collar is the one of the disk domain."""
    grid = traj.grid
    tables = _radial_kernel_tables(grid, test, n_theta, traj.field_at(0).domain.sigma0)
    # an all-zero table contributes exactly 0.0, its starting value
    tables = {key: K for key, K in tables.items() if K.any()}

    def pairs(M):
        return {key: ((M @ K) * M).sum(axis=1) for key, K in tables.items()}

    return grid.centers, pairs


def _rect_quadrature(traj: Trajectory, test: RadialProfileTest):
    """Flattened cell radii and pair terms of the rectangle backend
    (interior tests only; the collar terms vanish by construction): per row
    m of a stack of mobilities, Q1 is m H1 m over the dense cell-pair table,
    and Q5 contracts m against the Green's function through its DCT
    potential, less Q1 (the rectangle offers no pointwise collar kernels)."""
    if not test.interior:
        raise ValueError("rectangle backend supports interior tests only")
    f0 = traj.field_at(0)
    X, Y = f0.cell_centers()
    cx, cy = 0.5 * f0.nx * f0.hx, 0.5 * f0.ny * f0.hy
    rr = np.hypot(X - cx, Y - cy)
    if float(rr.min()) + test.support_radius > min(cx, cy):
        raise ValueError("test support reaches the rectangle wall")
    # grad p: the test's gradient on its hold plateau, where the time window is 1
    gpx, gpy = np.moveaxis(test.gradient(np.stack([X - cx, Y - cy], axis=-1), test.t_hold), -1, 0)

    xs, ys, gx, gy = X.ravel(), Y.ravel(), gpx.ravel(), gpy.ravel()
    dxm = xs[:, None] - xs[None, :]
    dym = ys[:, None] - ys[None, :]
    sep2 = dxm**2 + dym**2
    num = dxm * (gx[:, None] - gx[None, :]) + dym * (gy[:, None] - gy[None, :])
    band_val = 0.5 * test.plap(rr).ravel()[:, None]  # Lap p / (8 pi), times 4 pi
    band = sep2 < (_DIAG_FACTOR * (f0.hx + f0.hy)) ** 2
    H1 = np.where(band, band_val, num / np.where(sep2 > 0, sep2, 1.0)) / (4.0 * np.pi)

    def pairs(M):
        Mf = M * f0.cell_area
        q1 = ((Mf @ H1) * Mf).sum(axis=1)
        m = M.reshape(-1, *f0.values.shape)
        vx, vy = solve_poisson_neumann(f0.like(m - m.mean(axis=(1, 2), keepdims=True))).gradient()
        drift = f0.row_integrals(m * (gpx * vx + gpy * vy))
        return {"Q1": q1, "Q5": -drift - q1}

    return rr.ravel(), pairs


def weak_residual(traj: Trajectory, test: RadialProfileTest, n_theta: int = 192) -> QBreakdown:
    """Evaluate the term breakdown on a trajectory: midpoint rule in time
    over its intervals.  The backends differ only in what
    ``_disk_quadrature`` and ``_rect_quadrature`` supply: each cell's radius
    from the test's center and the pair terms of the mid-interval
    mobilities.  ``n_theta`` is the angle count of the disk's pair tables.
    """
    if test.t_off > traj.times[-1] + 1e-12:
        raise ValueError("test time window must close before the trajectory ends")
    if traj.backend == "rect":
        rr, pairs = _rect_quadrature(traj, test)
    else:
        rr, pairs = _disk_quadrature(traj, test, n_theta)
    meas = traj.field_at(0).cell_area
    snaps = traj.stack()
    mid, dt = traj.intervals()
    weight = dt * test.zeta(mid)  # of the Laplacian and the pair terms
    mass = snaps @ (test.p(rr) * meas)  # int p u at each snapshot
    lap = traj.reg.diffusion(snaps) @ (test.plap(rr) * meas)
    L1 = (
        -float(test.zeta(traj.times[0])) * mass[0]
        - (dt * test.zeta_t(mid)) @ traj.midpoints(mass)
        - weight @ traj.midpoints(lap)
    )
    vals = dict.fromkeys(_TABLE_KEYS, 0.0)
    for key, q in pairs(traj.midpoints(traj.reg.mobility(snaps))).items():
        vals[key] = float(weight @ q)
    return QBreakdown(L1=float(L1), **vals)


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
