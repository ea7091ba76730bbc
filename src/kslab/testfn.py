"""Localized test functions: interior radial bumps and boundary bumps.

The interior profile is the C^{1,1} four-piece function

    phi(r) = 1 - r^2/2            on [0, 1]
           = 1/2 - log r          on [1, e^{1/4}]
           = e^{-1/2} (3 e^{1/4}/2 - r)^2   on [e^{1/4}, 3 e^{1/4}/2]
           = 0                    beyond,

whose scaled version psi_rho(x) = phi(|x-x0|/rho) has Laplacian exactly
-2/rho^2 inside the unit ball, 0 on the log annulus, and >= 0 outside.

The boundary bump reproduces the same Laplacian structure for centers
within 2*rho of the disk boundary.  It is assembled in half-plane
coordinates X = (arc length along the boundary, distance to it)/rho from
the log-potential of the union of a unit source ball at X0 = (0, d/rho)
and its mirror ball across the wall (image symmetry gives the Neumann
condition exactly).  The union potential is the two closed-form ball
potentials minus the potential of their overlap lens, the latter by
Gauss-Legendre quadrature near the lens and a multipole expansion away
from it.  Outside radius lambda0 the profile is matched C^1 onto the
compactly supported paraboloid cap

    Phi(X) = (m / 4 pi lambda0) (lambda0 + 1 - |X|)_+^2,

with a quintic Hermite blend ring carrying the O(1/lambda0^2) mismatch.
The whole profile is scaled by 2 so the core Laplacian is -2/rho^2; its
maximum then exceeds 1, which is reported rather than clamped (the core
Laplacian level, the 1/2 lower bound on the unit ball and the support
bound cannot coexist with a [0, 1] range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, GeometryError, distance_to_boundary, smoothstep5, smoothstep5_d1, smoothstep5_d2

__all__ = [
    "PHI_LOG_KNEE",
    "PHI_SUPPORT",
    "phi",
    "phi_deriv",
    "phi_radial_laplacian",
    "PsiEval",
    "psi_interior",
    "InteriorBump",
    "BoundaryBump",
    "build_boundary_bump",
    "BumpReport",
    "verify_bump",
    "max_admissible_rho",
    "lens_area",
]

PHI_LOG_KNEE = float(np.exp(0.25))  # e^{1/4}
PHI_SUPPORT = 1.5 * PHI_LOG_KNEE  # 3 e^{1/4} / 2


def phi(r):
    """Four-piece interior profile; C^1, supported on [0, 3e^{1/4}/2]."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m1 = r <= 1.0
    out[m1] = 1.0 - 0.5 * r[m1] ** 2
    m2 = (r > 1.0) & (r <= PHI_LOG_KNEE)
    out[m2] = 0.5 - np.log(r[m2])
    m3 = (r > PHI_LOG_KNEE) & (r < PHI_SUPPORT)
    out[m3] = np.exp(-0.5) * (PHI_SUPPORT - r[m3]) ** 2
    return float(out) if out.ndim == 0 else out


def phi_deriv(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m1 = r <= 1.0
    out[m1] = -r[m1]
    m2 = (r > 1.0) & (r <= PHI_LOG_KNEE)
    out[m2] = -1.0 / r[m2]
    m3 = (r > PHI_LOG_KNEE) & (r < PHI_SUPPORT)
    out[m3] = -2.0 * np.exp(-0.5) * (PHI_SUPPORT - r[m3])
    return float(out) if out.ndim == 0 else out


def phi_radial_laplacian(r):
    """phi'' + phi'/r, the 2D Laplacian of phi(|x|) in the radial variable.

    Equals -2 on [0,1), 0 on the log annulus, and
    2 e^{-1/2} (2 - (3e^{1/4}/2)/r) >= 0 beyond the knee.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    m1 = r < 1.0
    out[m1] = -2.0
    m3 = (r > PHI_LOG_KNEE) & (r < PHI_SUPPORT)
    out[m3] = 2.0 * np.exp(-0.5) * (2.0 - PHI_SUPPORT / r[m3])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PsiEval:
    value: np.ndarray
    gradient: np.ndarray
    laplacian: np.ndarray


def psi_interior(x, x0, rho: float, domain: DomainGeometry | None = None) -> PsiEval:
    """Scaled interior bump psi(x) = phi(|x-x0|/rho) with derivatives.

    When a domain is supplied the support condition
    d(x0) >= (3 e^{1/4}/2) rho is enforced.
    """
    x0 = np.asarray(x0, dtype=float)
    if domain is not None:
        if distance_to_boundary(domain, x0) < PHI_SUPPORT * rho - 1e-12:
            raise GeometryError("interior bump support leaves the domain")
    x = np.asarray(x, dtype=float)
    dx = x - x0
    r = np.hypot(dx[..., 0], dx[..., 1]) / rho
    val = np.asarray(phi(r))
    dphi = np.asarray(phi_deriv(r))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r[..., None] > 0, dx / (r[..., None] * rho), 0.0)
    grad = (dphi[..., None] / rho) * unit
    lap = np.asarray(phi_radial_laplacian(r)) / rho**2
    return PsiEval(value=val, gradient=grad, laplacian=lap)


class InteriorBump:
    """The interior profile phi(|x - x0| / rho) as a point function, for probe integrals."""

    def __init__(self, x0, rho: float, domain: DomainGeometry | None = None):
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = float(rho)
        if domain is not None and distance_to_boundary(domain, self.x0) < PHI_SUPPORT * rho - 1e-12:
            raise GeometryError("interior bump support leaves the domain")
        self.support_radius = PHI_SUPPORT * rho

    def value(self, x):
        dx = np.asarray(x, dtype=float) - self.x0
        return np.asarray(phi(np.hypot(dx[..., 0], dx[..., 1]) / self.rho))


# ---------------------------------------------------------------------------
# boundary bump
# ---------------------------------------------------------------------------


def lens_area(center_dist: float) -> float:
    """Area of the intersection of two unit disks with centers this far apart."""
    d = float(center_dist)
    if d >= 2.0:
        return 0.0
    return 2.0 * np.arccos(0.5 * d) - 0.5 * d * np.sqrt(4.0 - d * d)


def _ball_potential(z: np.ndarray) -> np.ndarray:
    """Log-potential of a unit disk: (1-|z|^2)/4 inside, -(1/2) log|z| outside."""
    r2 = z[..., 0] ** 2 + z[..., 1] ** 2
    inside = r2 <= 1.0
    out = np.empty(r2.shape)
    out[inside] = 0.25 * (1.0 - r2[inside])
    out[~inside] = -0.25 * np.log(r2[~inside])
    return out


def _ball_potential_grad(z: np.ndarray) -> np.ndarray:
    r2 = (z[..., 0] ** 2 + z[..., 1] ** 2)[..., None]
    inside = (r2 <= 1.0)[..., 0]
    out = np.empty(z.shape)
    out[inside] = -0.5 * z[inside]
    out[~inside] = -0.5 * z[~inside] / r2[~inside]
    return out


def _ball_potential_d11(z: np.ndarray) -> np.ndarray:
    r2 = z[..., 0] ** 2 + z[..., 1] ** 2
    inside = r2 <= 1.0
    out = np.empty(r2.shape)
    out[inside] = -0.5
    out[~inside] = -0.5 * (1.0 / r2[~inside] - 2.0 * z[~inside, 0] ** 2 / r2[~inside] ** 2)
    return out


class _LensQuadrature:
    """Gauss-Legendre nodes over the overlap lens of B1((0,a)) and B1((0,-a)).

    Near field: direct sums.  Far field (|X| >= 3): monopole + quadrupole
    from the same nodes (odd moments vanish by the lens's double symmetry).
    """

    R_NEAR = 3.0

    def __init__(self, a: float, n1: int = 96, n2: int = 96):
        w = np.sqrt(max(1.0 - a * a, 0.0))
        g1, w1 = np.polynomial.legendre.leggauss(n1)
        g2, w2 = np.polynomial.legendre.leggauss(n2)
        y1 = w * g1
        b = np.sqrt(np.maximum(1.0 - y1**2, 0.0)) - a  # half-height of the lens
        Y1 = np.repeat(y1, n2)
        Y2 = (b[:, None] * g2[None, :]).ravel()
        self.nodes = np.stack([Y1, Y2], axis=-1)
        self.weights = (w * w1[:, None] * (b[:, None] * w2[None, :])).ravel()
        self.mass = float(self.weights.sum())
        self.I1 = float(np.sum(self.weights * Y1**2))
        self.I2 = float(np.sum(self.weights * Y2**2))
        # Gradient kernels are regularized at the node-spacing scale; the
        # bias is O(spacing^2), far below the uses of the lens gradient.
        self.reg2 = (2.0 * w / n1) ** 2

    def potential(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        R2 = X[:, 0] ** 2 + X[:, 1] ** 2
        out = np.empty(X.shape[0])
        near = R2 < self.R_NEAR**2
        if np.any(near):
            Xn = X[near]
            acc = np.zeros(Xn.shape[0])
            for lo in range(0, Xn.shape[0], 1024):
                blk = Xn[lo : lo + 1024]
                d2 = (blk[:, None, 0] - self.nodes[None, :, 0]) ** 2 + (
                    blk[:, None, 1] - self.nodes[None, :, 1]
                ) ** 2
                acc[lo : lo + 1024] = -(
                    0.5 * np.log(np.maximum(d2, 1e-300)) * self.weights[None, :]
                ).sum(axis=1)
            out[near] = acc / (2.0 * np.pi)
        far = ~near
        if np.any(far):
            Xf = X[far]
            R2f = R2[far]
            quad = (Xf[:, 0] ** 2 - Xf[:, 1] ** 2) * (self.I1 - self.I2) / R2f**2
            out[far] = -(0.5 * self.mass * np.log(R2f) + 0.5 * quad) / (2.0 * np.pi)
        return out

    def potential_grad(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        R2 = X[:, 0] ** 2 + X[:, 1] ** 2
        out = np.empty_like(X)
        near = R2 < self.R_NEAR**2
        if np.any(near):
            Xn = X[near]
            acc = np.zeros_like(Xn)
            for lo in range(0, Xn.shape[0], 1024):
                blk = Xn[lo : lo + 1024]
                dx = blk[:, None, 0] - self.nodes[None, :, 0]
                dy = blk[:, None, 1] - self.nodes[None, :, 1]
                d2 = dx * dx + dy * dy + self.reg2
                acc[lo : lo + 1024, 0] = -(dx / d2 * self.weights[None, :]).sum(axis=1)
                acc[lo : lo + 1024, 1] = -(dy / d2 * self.weights[None, :]).sum(axis=1)
            out[near] = acc / (2.0 * np.pi)
        far = ~near
        if np.any(far):
            Xf = X[far]
            R2f = (R2[far])[:, None]
            Dm = self.I1 - self.I2
            gq = np.empty_like(Xf)
            r2 = R2f[:, 0]
            gq[:, 0] = Dm * 2.0 * Xf[:, 0] * (r2 - 2.0 * (Xf[:, 0] ** 2 - Xf[:, 1] ** 2)) / r2**3
            gq[:, 1] = -Dm * 2.0 * Xf[:, 1] * (r2 + 2.0 * (Xf[:, 0] ** 2 - Xf[:, 1] ** 2)) / r2**3
            out[far] = -(self.mass * Xf / R2f + 0.5 * gq) / (2.0 * np.pi)
        return out

def _hermite_q(s):
    """Quintic taper: value 0 slope 1 curvature 0 at s=0, all zero at s=1."""
    return s - 6.0 * s**3 + 8.0 * s**4 - 3.0 * s**5


def _hermite_q_d1(s):
    return 1.0 - 18.0 * s**2 + 32.0 * s**3 - 15.0 * s**4


def _hermite_q_d2(s):
    return -36.0 * s + 96.0 * s**2 - 60.0 * s**3


class BoundaryBump:
    """Boundary-adapted bump on the unit disk; see the module docstring.

    Evaluation happens through boundary-fitted coordinates
    ``X = (arc length of the projection, boundary distance) / rho`` rotated
    so the bump center projects to arc 0.  The profile is even in X2, so
    the normal derivative on the disk boundary vanishes identically.
    """

    SCALE = 2.0  # core Laplacian level over the half-plane value of -1

    def __init__(self, domain: DomainGeometry, x0, rho: float, lambda0: float, n_ring: int = 2048):
        if not domain.is_disk:
            raise GeometryError("boundary bumps are disk-only")
        self.domain = domain
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = float(rho)
        self.lambda0 = float(lambda0)
        self.Lambda = self.lambda0 + 2.0
        d0 = distance_to_boundary(domain, self.x0)
        if d0 > 2.0 * rho + 1e-12:
            raise GeometryError(f"bump center too deep: d(x0)={d0} > 2*rho={2 * rho}")
        self.a = d0 / rho
        self.theta0 = float(np.arctan2(self.x0[1], self.x0[0])) if np.hypot(*self.x0) > 0 else 0.0
        self.center_projection = np.array([np.cos(self.theta0), np.sin(self.theta0)])
        self.m = 2.0 * np.pi - lens_area(2.0 * self.a)
        # Coincident source and mirror balls (center on the wall): the union
        # is a single ball and everything is closed form.
        self._single_ball = self.a < 1e-9
        self.lens = (
            _LensQuadrature(self.a, 192, 192) if (self.a < 1.0 and not self._single_ball) else None
        )
        self.c1 = np.array([0.0, self.a])
        self.c2 = np.array([0.0, -self.a])
        self._phi_coef = self.m / (4.0 * np.pi * self.lambda0)
        self._build_ring(n_ring)
        self._table = None

    # -- half-plane profile ------------------------------------------------

    def _psi_hat(self, X: np.ndarray) -> np.ndarray:
        if self._single_ball:
            return _ball_potential(X - self.c1)
        val = _ball_potential(X - self.c1) + _ball_potential(X - self.c2)
        if self.lens is not None:
            val = val - self.lens.potential(X.reshape(-1, 2)).reshape(val.shape)
        return val

    def _psi_hat_grad(self, X: np.ndarray) -> np.ndarray:
        if self._single_ball:
            return _ball_potential_grad(X - self.c1)
        g = _ball_potential_grad(X - self.c1) + _ball_potential_grad(X - self.c2)
        if self.lens is not None:
            g = g - self.lens.potential_grad(X.reshape(-1, 2)).reshape(g.shape)
        return g

    def _in_lens(self, X: np.ndarray) -> np.ndarray:
        d1 = (X[..., 0] - self.c1[0]) ** 2 + (X[..., 1] - self.c1[1]) ** 2
        d2 = (X[..., 0] - self.c2[0]) ** 2 + (X[..., 1] - self.c2[1]) ** 2
        return (d1 <= 1.0) & (d2 <= 1.0)

    def _psi_hat_d11(self, X: np.ndarray) -> np.ndarray:
        """Second X1-derivative of the union potential (used only in the
        O(rho) chart metric correction, so a wide stencil for the lens
        part is fine; the stencil never straddles the lens boundary, where
        the second derivative jumps)."""
        out = _ball_potential_d11(X - self.c1)
        if self._single_ball:
            return out
        out = out + _ball_potential_d11(X - self.c2)
        if self.lens is None:
            return out
        h = 0.05
        Xf = X.reshape(-1, 2)
        corr = np.empty(Xf.shape[0])
        for shift in (0.0, 2.5 * h, -2.5 * h):
            base = Xf.copy()
            base[:, 0] += shift
            plus = base.copy()
            plus[:, 0] += h
            minus = base.copy()
            minus[:, 0] -= h
            same_side = (
                (self._in_lens(base) == self._in_lens(plus))
                & (self._in_lens(base) == self._in_lens(minus))
                & (self._in_lens(base) == self._in_lens(Xf))
            )
            if shift == 0.0:
                todo = np.ones(Xf.shape[0], dtype=bool)
            if not np.any(todo & same_side):
                continue
            sel = todo & same_side
            corr[sel] = (
                self.lens.potential(plus[sel])
                - 2.0 * self.lens.potential(base[sel])
                + self.lens.potential(minus[sel])
            ) / h**2
            todo = todo & ~same_side
        if np.any(todo):
            # stencil straddles the interface in every shift: fall back to
            # the plain centered stencil there
            sel = todo
            plus = Xf[sel].copy()
            plus[:, 0] += h
            minus = Xf[sel].copy()
            minus[:, 0] -= h
            corr[sel] = (
                self.lens.potential(plus)
                - 2.0 * self.lens.potential(Xf[sel])
                + self.lens.potential(minus)
            ) / h**2
        return out - corr.reshape(out.shape)

    def _build_ring(self, n_ring: int) -> None:
        th = 2.0 * np.pi * np.arange(n_ring) / n_ring
        ring = self.lambda0 * np.stack([np.cos(th), np.sin(th)], axis=-1)
        raw = self._psi_hat(ring) + (self.m / (2.0 * np.pi)) * np.log(self.lambda0)
        gbar = float(raw.mean())
        # Free constant of the potential; absorbing the angular mean keeps
        # the blend-ring mismatch centered.
        self.A = self.m / (4.0 * np.pi * self.lambda0) + (self.m / (2.0 * np.pi)) * np.log(
            self.lambda0
        ) - gbar
        self._ring_th = th
        self._gval = raw - gbar
        e_r = ring / self.lambda0
        radial = np.sum(self._psi_hat_grad(ring) * e_r, axis=-1)
        self._gslope = radial + self.m / (2.0 * np.pi * self.lambda0)
        dth = 2.0 * np.pi / n_ring
        self._gval_d1 = (np.roll(self._gval, -1) - np.roll(self._gval, 1)) / (2 * dth)
        self._gval_d2 = (np.roll(self._gval, -1) - 2 * self._gval + np.roll(self._gval, 1)) / dth**2
        self._gslope_d1 = (np.roll(self._gslope, -1) - np.roll(self._gslope, 1)) / (2 * dth)
        self._gslope_d2 = (
            np.roll(self._gslope, -1) - 2 * self._gslope + np.roll(self._gslope, 1)
        ) / dth**2
        self.matching_mismatch = float(np.max(np.abs(self._gval)))

    def _ring_lookup(self, th: np.ndarray, arr: np.ndarray) -> np.ndarray:
        n = self._ring_th.size
        f = (th % (2.0 * np.pi)) / (2.0 * np.pi) * n
        i0 = f.astype(int) % n
        w = f - np.floor(f)
        return (1.0 - w) * arr[i0] + w * arr[(i0 + 1) % n]

    def profile(self, X: np.ndarray, want_grad: bool = False):
        """Half-plane profile (even in X2) and optionally its X-gradient."""
        X = np.asarray(X, dtype=float)
        flat = X.reshape(-1, 2)
        r = np.hypot(flat[:, 0], flat[:, 1])
        val = np.zeros(flat.shape[0])
        grad = np.zeros_like(flat) if want_grad else None
        core = r <= self.lambda0
        if np.any(core):
            val[core] = self.SCALE * (self.A + self._psi_hat(flat[core]))
            if want_grad:
                grad[core] = self.SCALE * self._psi_hat_grad(flat[core])
        ring = (r > self.lambda0) & (r < self.lambda0 + 1.0)
        if np.any(ring):
            rr = r[ring]
            th = np.arctan2(flat[ring, 1], flat[ring, 0])
            s = rr - self.lambda0
            gv = self._ring_lookup(th, self._gval)
            gs = self._ring_lookup(th, self._gslope)
            cap = self._phi_coef * (self.lambda0 + 1.0 - rr) ** 2
            taper = 1.0 - smoothstep5(s)
            w = gv * taper + gs * _hermite_q(s)
            val[ring] = self.SCALE * (cap + w)
            if want_grad:
                dr = -2.0 * self._phi_coef * (self.lambda0 + 1.0 - rr)
                dr = dr - gv * smoothstep5_d1(s) + gs * _hermite_q_d1(s)
                dth_w = self._ring_lookup(th, self._gval_d1) * taper + self._ring_lookup(
                    th, self._gslope_d1
                ) * _hermite_q(s)
                e_r = flat[ring] / rr[:, None]
                e_t = np.stack([-e_r[:, 1], e_r[:, 0]], axis=-1)
                grad[ring] = self.SCALE * (dr[:, None] * e_r + (dth_w / rr)[:, None] * e_t)
        shape = X.shape[:-1]
        if want_grad:
            return val.reshape(shape), grad.reshape(X.shape)
        return val.reshape(shape)

    def profile_laplacian(self, X: np.ndarray) -> np.ndarray:
        """Exact Laplacian of the half-plane profile, region by region."""
        X = np.asarray(X, dtype=float)
        flat = X.reshape(-1, 2)
        r = np.hypot(flat[:, 0], flat[:, 1])
        out = np.zeros(flat.shape[0])
        in1 = np.sum((flat - self.c1) ** 2, axis=-1) <= 1.0
        in2 = np.sum((flat - self.c2) ** 2, axis=-1) <= 1.0
        out[(in1 | in2) & (r <= self.lambda0)] = -self.SCALE
        ring = (r > self.lambda0) & (r < self.lambda0 + 1.0)
        if np.any(ring):
            rr = r[ring]
            th = np.arctan2(flat[ring, 1], flat[ring, 0])
            s = rr - self.lambda0
            gv = self._ring_lookup(th, self._gval)
            gs = self._ring_lookup(th, self._gslope)
            cap_rr = 2.0 * self._phi_coef
            cap_r = -2.0 * self._phi_coef * (self.lambda0 + 1.0 - rr)
            w_rr = gs * _hermite_q_d2(s) - gv * smoothstep5_d2(s)
            w_r = gs * _hermite_q_d1(s) - gv * smoothstep5_d1(s)
            w_tt = self._ring_lookup(th, self._gval_d2) * (1.0 - smoothstep5(s)) + self._ring_lookup(
                th, self._gslope_d2
            ) * _hermite_q(s)
            out[ring] = self.SCALE * (cap_rr + w_rr + (cap_r + w_r) / rr + w_tt / rr**2)
        return out.reshape(X.shape[:-1])

    def profile_p11(self, X: np.ndarray) -> np.ndarray:
        """Second X1-derivative of the half-plane profile (metric correction)."""
        X = np.asarray(X, dtype=float)
        flat = X.reshape(-1, 2)
        r = np.hypot(flat[:, 0], flat[:, 1])
        out = np.zeros(flat.shape[0])
        core = r <= self.lambda0
        if np.any(core):
            out[core] = self.SCALE * self._psi_hat_d11(flat[core])
        ring = (r > self.lambda0) & (r < self.lambda0 + 1.0)
        if np.any(ring):
            rr = r[ring]
            th = np.arctan2(flat[ring, 1], flat[ring, 0])
            s = rr - self.lambda0
            gv = self._ring_lookup(th, self._gval)
            gs = self._ring_lookup(th, self._gslope)
            gv1 = self._ring_lookup(th, self._gval_d1)
            gs1 = self._ring_lookup(th, self._gslope_d1)
            gv2 = self._ring_lookup(th, self._gval_d2)
            gs2 = self._ring_lookup(th, self._gslope_d2)
            p_r = -2.0 * self._phi_coef * (self.lambda0 + 1.0 - rr) - gv * smoothstep5_d1(s) + gs * _hermite_q_d1(s)
            p_rr = 2.0 * self._phi_coef - gv * smoothstep5_d2(s) + gs * _hermite_q_d2(s)
            taper = 1.0 - smoothstep5(s)
            p_t = gv1 * taper + gs1 * _hermite_q(s)
            p_tt = gv2 * taper + gs2 * _hermite_q(s)
            p_rt = gs1 * _hermite_q_d1(s) - gv1 * smoothstep5_d1(s)
            ct = np.cos(th)
            st = np.sin(th)
            out[ring] = self.SCALE * (
                ct**2 * p_rr
                + st**2 / rr**2 * p_tt
                - 2.0 * st * ct / rr * p_rt
                + st**2 / rr * p_r
                + 2.0 * st * ct / rr**2 * p_t
            )
        return out.reshape(X.shape[:-1])

    # -- disk-side evaluation ----------------------------------------------

    def x_coords(self, x) -> np.ndarray:
        """Boundary-fitted coordinates of disk points, scaled by rho."""
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        th = np.arctan2(x[..., 1], x[..., 0]) - self.theta0
        th = (th + np.pi) % (2.0 * np.pi) - np.pi
        X1 = th / self.rho  # arc length along the unit circle
        X2 = (1.0 - r) / self.rho
        return np.stack([X1, X2], axis=-1)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        out = np.zeros(r.shape)
        live = (1.0 - r) <= (self.lambda0 + 1.0) * self.rho
        if np.any(live):
            out[live] = self.profile(self.x_coords(x[live]))
        return out

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        out = np.zeros(x.shape)
        live = ((1.0 - r) <= (self.lambda0 + 1.0) * self.rho) & (r > 1e-12)
        if np.any(live):
            xl = x[live]
            rl = r[live]
            _, gX = self.profile(self.x_coords(xl), want_grad=True)
            e_r = xl / rl[:, None]
            e_t = np.stack([-e_r[:, 1], e_r[:, 0]], axis=-1)
            # grad X1 = e_t / (r rho); grad X2 = -e_r / rho
            out[live] = gX[..., 0, None] * e_t / (rl * self.rho)[:, None] - gX[..., 1, None] * e_r / self.rho
        return out

    def laplacian(self, x) -> np.ndarray:
        """Physical Laplacian: exact X-space Laplacian plus the metric
        corrections of the boundary-fitted chart (O(rho) relative)."""
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        out = np.zeros(r.shape)
        live = ((1.0 - r) <= (self.lambda0 + 1.0) * self.rho) & (r > 1e-12)
        if not np.any(live):
            return out
        X = self.x_coords(x[live])
        lap_flat = self.profile_laplacian(X)
        # psi(r, th) = P(th/rho, (1-r)/rho):
        # Delta psi = [P_22 + P_11 / r^2] / rho^2 - P_2 / (rho r)
        #          = [Delta_X P + P_11 (1/r^2 - 1)] / rho^2 - P_2 / (rho r)
        p11 = self.profile_p11(X)
        _, gX = self.profile(X, want_grad=True)
        rl = r[live]
        out[live] = (lap_flat + p11 * (1.0 / rl**2 - 1.0)) / self.rho**2 - gX[..., 1] / (
            self.rho * rl
        )
        return out

    def normal_derivative_residual(self, n_samples: int = 181) -> float:
        """max |nu . grad psi| on the boundary arc inside the support.

        The profile is even in X2, so this vanishes up to quadrature
        symmetry error in the lens potential.
        """
        arcs = np.linspace(-(self.lambda0 + 1.0), self.lambda0 + 1.0, n_samples)
        X = np.stack([arcs, np.zeros_like(arcs)], axis=-1)
        _, gX = self.profile(X, want_grad=True)
        return float(np.max(np.abs(gX[:, 1])) / self.rho)


def build_boundary_bump(
    domain: DomainGeometry,
    x0,
    rho: float,
    lambda0: float = 8.0,
    rho0: float = 0.1,
) -> BoundaryBump:
    """Construct the boundary bump; centers must satisfy d(x0) <= 2*rho.

    ``rho0`` is the configured build maximum; the Laplacian tolerance of
    ``verify_bump`` typically restricts usable radii further (metric
    distortion of the boundary chart grows like rho)."""
    if rho > rho0 + 1e-15:
        raise GeometryError(f"rho={rho} exceeds configured maximum rho0={rho0}")
    return BoundaryBump(domain, x0, rho, lambda0)


@dataclass
class BumpReport:
    rho: float
    lambda0: float
    core_laplacian_rel_err: float  # max |Delta psi * rho^2 / (-2) - 1| on the core ball
    annulus_min_laplacian: float  # min of Delta psi * rho^2 outside the core ball
    neumann_residual: float
    min_on_core: float
    sup_value: float
    support_leak: float  # max |psi| outside B_{Lambda rho}
    grad_bound: float  # max rho|grad psi| + rho^2|D^2 psi| + rho^2 |nu.grad psi| / d
    matching_mismatch: float  # max |Psi-hat + (m/2pi) log lambda0 - mean| on the ring
    passed: bool


def _bump_samples(bump: BoundaryBump, radius_lo: float, radius_hi: float, n: int, mesh: float):
    """Sample points of the annulus radius_lo..radius_hi around the bump
    center, inside the disk, at least ``mesh`` away from the wall."""
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < n:
        q = rng.uniform(-radius_hi, radius_hi, size=(4 * n, 2)) + bump.x0
        rr = np.hypot(q[:, 0] - bump.x0[0], q[:, 1] - bump.x0[1])
        keep = (rr >= radius_lo) & (rr <= radius_hi)
        q = q[keep]
        inside = np.hypot(q[:, 0], q[:, 1]) <= 1.0 - mesh
        q = q[inside]
        pts.extend(q.tolist())
    return np.asarray(pts[:n])


def verify_bump(
    bump: BoundaryBump,
    mesh: float = 1.0 / 512.0,
    core_margin: float = 0.12,
    n_samples: int = 1500,
    lap_tol: float = 0.05,
) -> BumpReport:
    """Measure the defining properties of a built bump.

    The core Laplacian is checked on B_{(1-margin) rho}(x0) (the margin
    absorbs the O(rho) mismatch between the boundary chart and the true
    metric near the core edge), the sign condition on the annulus out to
    the support, and the Neumann property on the wall.
    """
    rho = bump.rho
    core = _bump_samples(bump, 0.0, (1.0 - core_margin) * rho, n_samples, mesh)
    lap_core = bump.laplacian(core) * rho**2
    core_err = float(np.max(np.abs(lap_core / (-2.0) - 1.0)))

    ann = _bump_samples(bump, (1.0 + core_margin) * rho, (bump.lambda0 + 1.0) * rho, 2 * n_samples, mesh)
    ann_min = float(np.min(bump.laplacian(ann) * rho**2))

    neumann = bump.normal_derivative_residual() * rho  # scale-free: rho |nu.grad|
    vals_core = bump.value(core)
    min_core = float(np.min(vals_core))
    both = np.vstack([core, ann])
    vals = bump.value(both)
    sup_val = float(np.max(vals))

    outside = _bump_samples(bump, bump.Lambda * rho, (bump.Lambda + 2.0) * rho, 200, mesh)
    support_leak = float(np.max(np.abs(bump.value(outside)))) if outside.size else 0.0

    grads = bump.gradient(both)
    gnorm = np.hypot(grads[:, 0], grads[:, 1])
    # second derivatives by differencing the analytic gradient
    h2 = 2.0 * mesh
    d2 = np.zeros(both.shape[0])
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h2
        gp = bump.gradient(both + e)
        gm = bump.gradient(both - e)
        d2 = np.maximum(d2, np.max(np.abs(gp - gm) / (2 * h2), axis=-1))
    dists = 1.0 - np.hypot(both[:, 0], both[:, 1])
    nu = both / np.hypot(both[:, 0], both[:, 1])[:, None]
    nd = np.abs(np.sum(grads * nu, axis=-1))
    cbound = float(np.max(rho * gnorm + rho**2 * d2 + rho**2 * nd / np.maximum(dists, mesh)))

    passed = (
        core_err <= lap_tol
        and ann_min >= -0.12  # 6% of the core Laplacian magnitude
        and neumann <= 1e-6
        and min_core >= 0.5
        and support_leak == 0.0
    )
    return BumpReport(
        rho=rho,
        lambda0=bump.lambda0,
        core_laplacian_rel_err=core_err,
        annulus_min_laplacian=ann_min,
        neumann_residual=neumann,
        min_on_core=min_core,
        sup_value=sup_val,
        support_leak=support_leak,
        grad_bound=cbound,
        matching_mismatch=bump.matching_mismatch,
        passed=bool(passed),
    )


def max_admissible_rho(
    domain: DomainGeometry,
    boundary_angle: float = 0.0,
    depth_factor: float = 1.0,
    lambda0: float = 8.0,
    start: float = 0.08,
    lap_tol: float = 0.05,
) -> float:
    """Largest rho (within a halving search) whose bump passes verify_bump."""
    rho = start
    for _ in range(8):
        x0 = (1.0 - depth_factor * rho) * np.array(
            [np.cos(boundary_angle), np.sin(boundary_angle)]
        )
        bump = BoundaryBump(domain, x0, rho, lambda0)
        if verify_bump(bump, lap_tol=lap_tol, n_samples=500).passed:
            return rho
        rho *= 0.5
    return 0.0
