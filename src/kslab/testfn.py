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

Both bumps, ``InteriorBump`` and ``BoundaryBump``, answer the same three
calls on disk points of shape ``(..., 2)``: ``value(x)``, ``gradient(x)``
and ``laplacian(x)``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, GeometryError, distance_to_boundary, smoothstep5, smoothstep5_d1, smoothstep5_d2

__all__ = [
    "PHI_LOG_KNEE",
    "PHI_SUPPORT",
    "phi",
    "phi_deriv",
    "phi_radial_laplacian",
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


class InteriorBump:
    """The interior bump psi(x) = phi(|x - x0| / rho) as a point function.

    When a domain is supplied the support condition
    d(x0) >= (3 e^{1/4}/2) rho is enforced.
    """

    def __init__(self, x0, rho: float, domain: DomainGeometry | None = None):
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = float(rho)
        if domain is not None and distance_to_boundary(domain, self.x0) < PHI_SUPPORT * rho - 1e-12:
            raise GeometryError("interior bump support leaves the domain")

    def _offset(self, x):
        """x - x0 and the scaled radius |x - x0| / rho."""
        dx = np.asarray(x, dtype=float) - self.x0
        return dx, np.hypot(dx[..., 0], dx[..., 1]) / self.rho

    def value(self, x) -> np.ndarray:
        return np.asarray(phi(self._offset(x)[1]))

    def gradient(self, x) -> np.ndarray:
        dx, r = self._offset(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[..., None] > 0, dx / (r[..., None] * self.rho), 0.0)
        return (np.asarray(phi_deriv(r))[..., None] / self.rho) * unit

    def laplacian(self, x) -> np.ndarray:
        return np.asarray(phi_radial_laplacian(self._offset(x)[1])) / self.rho**2


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
    N_NODES = 192  # Gauss-Legendre nodes in each direction
    BLOCK = 1024  # near-field points summed at a time

    def __init__(self, a: float):
        n = self.N_NODES
        w = np.sqrt(max(1.0 - a * a, 0.0))
        g, gw = np.polynomial.legendre.leggauss(n)
        y1 = w * g
        b = np.sqrt(np.maximum(1.0 - y1**2, 0.0)) - a  # half-height of the lens
        Y1 = np.repeat(y1, n)
        Y2 = (b[:, None] * g[None, :]).ravel()
        self.nodes = np.stack([Y1, Y2], axis=-1)
        self.weights = (w * gw[:, None] * (b[:, None] * gw[None, :])).ravel()
        self.mass = float(self.weights.sum())
        self.I1 = float(np.sum(self.weights * Y1**2))
        self.I2 = float(np.sum(self.weights * Y2**2))
        # Gradient kernels are regularized at the node-spacing scale; the
        # bias is O(spacing^2), far below the uses of the lens gradient.
        self.reg2 = (2.0 * w / n) ** 2

    def _near_far(self, X: np.ndarray, out: np.ndarray, near_sums, far) -> np.ndarray:
        """Fill ``out`` with the node sums ``near_sums`` / 2 pi inside
        R_NEAR, in blocks of points, and with ``far(X, |X|^2)`` outside."""
        R2 = X[:, 0] ** 2 + X[:, 1] ** 2
        near = R2 < self.R_NEAR**2
        out[~near] = far(X[~near], R2[~near])
        idx = np.flatnonzero(near)
        for lo in range(0, idx.size, self.BLOCK):
            blk = idx[lo : lo + self.BLOCK]
            out[blk] = near_sums(X[blk]) / (2.0 * np.pi)
        return out

    def _log_sums(self, blk: np.ndarray) -> np.ndarray:
        d2 = (blk[:, None, 0] - self.nodes[None, :, 0]) ** 2 + (blk[:, None, 1] - self.nodes[None, :, 1]) ** 2
        return -(0.5 * np.log(np.maximum(d2, 1e-300)) * self.weights[None, :]).sum(axis=1)

    def _grad_sums(self, blk: np.ndarray) -> np.ndarray:
        dx = blk[:, None, 0] - self.nodes[None, :, 0]
        dy = blk[:, None, 1] - self.nodes[None, :, 1]
        d2 = dx * dx + dy * dy + self.reg2
        return np.stack(
            [-(dx / d2 * self.weights[None, :]).sum(axis=1), -(dy / d2 * self.weights[None, :]).sum(axis=1)],
            axis=-1,
        )

    def _multipole(self, X: np.ndarray, R2: np.ndarray) -> np.ndarray:
        quad = (X[:, 0] ** 2 - X[:, 1] ** 2) * (self.I1 - self.I2) / R2**2
        return -(0.5 * self.mass * np.log(R2) + 0.5 * quad) / (2.0 * np.pi)

    def _multipole_grad(self, X: np.ndarray, R2: np.ndarray) -> np.ndarray:
        Dm = self.I1 - self.I2
        diff = X[:, 0] ** 2 - X[:, 1] ** 2
        gq = np.stack(
            [Dm * 2.0 * X[:, 0] * (R2 - 2.0 * diff) / R2**3, -Dm * 2.0 * X[:, 1] * (R2 + 2.0 * diff) / R2**3],
            axis=-1,
        )
        return -(self.mass * X / R2[:, None] + 0.5 * gq) / (2.0 * np.pi)

    def potential(self, X: np.ndarray) -> np.ndarray:
        return self._near_far(X, np.empty(X.shape[0]), self._log_sums, self._multipole)

    def potential_grad(self, X: np.ndarray) -> np.ndarray:
        return self._near_far(X, np.empty(X.shape), self._grad_sums, self._multipole_grad)


def _hermite_q(s):
    """Quintic taper: value 0 slope 1 curvature 0 at s=0, all zero at s=1."""
    return s - 6.0 * s**3 + 8.0 * s**4 - 3.0 * s**5


def _hermite_q_d1(s):
    return 1.0 - 18.0 * s**2 + 32.0 * s**3 - 15.0 * s**4


def _hermite_q_d2(s):
    return -36.0 * s + 96.0 * s**2 - 60.0 * s**3


def _by_region(core: np.ndarray, core_vals, ring: np.ndarray, ring_vals: np.ndarray) -> np.ndarray:
    """A half-plane quantity from its core and blend-ring values; zero beyond the ring."""
    out = np.zeros(core.shape + ring_vals.shape[1:])
    out[core] = core_vals
    out[ring] = ring_vals
    return out


def _x1_stencil(X: np.ndarray, shift, h: float):
    """X moved by ``shift`` along X1, and that point's neighbours at +-h."""
    base = X.copy()
    base[:, 0] += shift
    plus = base.copy()
    plus[:, 0] += h
    minus = base.copy()
    minus[:, 0] -= h
    return base, plus, minus


class BoundaryBump:
    """Boundary-adapted bump on the unit disk; see the module docstring.

    Evaluation happens through boundary-fitted coordinates
    ``X = (arc length of the projection, boundary distance) / rho`` rotated
    so the bump center projects to arc 0.  The profile is even in X2, so
    the normal derivative on the disk boundary vanishes identically.
    """

    SCALE = 2.0  # core Laplacian level over the half-plane value of -1
    N_RING = 2048  # angular samples of the blend-ring tables

    def __init__(self, domain: DomainGeometry, x0, rho: float, lambda0: float):
        if not domain.is_disk:
            raise GeometryError("boundary bumps are disk-only")
        self.x0 = np.asarray(x0, dtype=float)
        self.rho = float(rho)
        self.lambda0 = float(lambda0)
        self.Lambda = self.lambda0 + 2.0
        d0 = distance_to_boundary(domain, self.x0)
        if d0 > 2.0 * rho + 1e-12:
            raise GeometryError(f"bump center too deep: d(x0)={d0} > 2*rho={2 * rho}")
        self.a = d0 / rho
        self.theta0 = float(np.arctan2(self.x0[1], self.x0[0])) if np.hypot(*self.x0) > 0 else 0.0
        self.m = 2.0 * np.pi - lens_area(2.0 * self.a)
        self.c1 = np.array([0.0, self.a])
        self.c2 = np.array([0.0, -self.a])
        # Coincident source and mirror balls (center on the wall) make a
        # single ball; apart, they overlap in a lens while a < 1.
        self._centers = (self.c1,) if self.a < 1e-9 else (self.c1, self.c2)
        self.lens = _LensQuadrature(self.a) if len(self._centers) == 2 and self.a < 1.0 else None
        self._phi_coef = self.m / (4.0 * np.pi * self.lambda0)
        self._build_ring()

    # -- half-plane profile ------------------------------------------------

    def _over_balls(self, f, X: np.ndarray) -> np.ndarray:
        """Sum of the closed-form ball term ``f`` over the bump's balls."""
        return functools.reduce(operator.add, (f(X - c) for c in self._centers))

    def _psi_hat(self, X: np.ndarray) -> np.ndarray:
        val = self._over_balls(_ball_potential, X)
        return val if self.lens is None else val - self.lens.potential(X)

    def _psi_hat_grad(self, X: np.ndarray) -> np.ndarray:
        g = self._over_balls(_ball_potential_grad, X)
        return g if self.lens is None else g - self.lens.potential_grad(X)

    def _in_balls(self, X: np.ndarray):
        """Masks of the points in the source ball and in the mirror ball."""
        return tuple(np.sum((X - c) ** 2, axis=-1) <= 1.0 for c in (self.c1, self.c2))

    def _in_lens(self, X: np.ndarray) -> np.ndarray:
        in1, in2 = self._in_balls(X)
        return in1 & in2

    def _psi_hat_d11(self, X: np.ndarray) -> np.ndarray:
        """Second X1-derivative of the union potential (used only in the
        O(rho) chart metric correction, so a wide stencil for the lens
        part is fine).  The second derivative jumps on the lens boundary,
        so each point takes the first shift of 0, +2.5h, -2.5h whose
        stencil stays on its own side of it, else 0."""
        out = self._over_balls(_ball_potential_d11, X)
        if self.lens is None:
            return out
        h = 0.05
        side = self._in_lens(X)
        shift = np.zeros(X.shape[0])
        todo = np.ones(X.shape[0], dtype=bool)
        for s in (0.0, 2.5 * h, -2.5 * h):
            same = np.all([self._in_lens(p) == side for p in _x1_stencil(X, s, h)], axis=0)
            shift[todo & same] = s
            todo &= ~same
        base, plus, minus = _x1_stencil(X, shift, h)
        pot = self.lens.potential
        return out - (pot(plus) - 2.0 * pot(base) + pot(minus)) / h**2

    def _build_ring(self) -> None:
        n = self.N_RING
        th = 2.0 * np.pi * np.arange(n) / n
        ring = self.lambda0 * np.stack([np.cos(th), np.sin(th)], axis=-1)
        raw = self._psi_hat(ring) + (self.m / (2.0 * np.pi)) * np.log(self.lambda0)
        gbar = float(raw.mean())
        # Free constant of the potential; absorbing the angular mean keeps
        # the blend-ring mismatch centered.
        self.A = self.m / (4.0 * np.pi * self.lambda0) + (self.m / (2.0 * np.pi)) * np.log(
            self.lambda0
        ) - gbar
        gval = raw - gbar
        e_r = ring / self.lambda0
        radial = np.sum(self._psi_hat_grad(ring) * e_r, axis=-1)
        gslope = radial + self.m / (2.0 * np.pi * self.lambda0)
        dth = 2.0 * np.pi / n

        def d1(t):
            return (np.roll(t, -1) - np.roll(t, 1)) / (2 * dth)

        def d2(t):
            return (np.roll(t, -1) - 2 * t + np.roll(t, 1)) / dth**2

        # value and slope mismatch on the ring and their angle derivatives
        self._ring_tables = (gval, gslope, d1(gval), d1(gslope), d2(gval), d2(gslope))
        self.matching_mismatch = float(np.max(np.abs(gval)))

    def _ring(self, X: np.ndarray, rr: np.ndarray):
        """Value, X-gradient, X-Laplacian and second X1-derivative of the
        profile at points X of the blend ring, |X| = rr in (lambda0,
        lambda0 + 1): the ring tables and blend factors are looked up once
        per point."""
        th = np.arctan2(X[:, 1], X[:, 0])
        n = self.N_RING
        f = (th % (2.0 * np.pi)) / (2.0 * np.pi) * n
        i0 = f.astype(int) % n
        w = f - np.floor(f)
        i1 = (i0 + 1) % n
        gv, gs, gv1, gs1, gv2, gs2 = ((1.0 - w) * t[i0] + w * t[i1] for t in self._ring_tables)
        s = rr - self.lambda0
        taper = 1.0 - smoothstep5(s)
        q, q1, q2 = _hermite_q(s), _hermite_q_d1(s), _hermite_q_d2(s)
        sd1, sd2 = smoothstep5_d1(s), smoothstep5_d2(s)
        cap_r = -2.0 * self._phi_coef * (self.lambda0 + 1.0 - rr)
        cap_rr = 2.0 * self._phi_coef
        p_r = cap_r - gv * sd1 + gs * q1
        p_t = gv1 * taper + gs1 * q
        p_tt = gv2 * taper + gs2 * q

        value = self.SCALE * (self._phi_coef * (self.lambda0 + 1.0 - rr) ** 2 + (gv * taper + gs * q))
        e_r = X / rr[:, None]
        e_t = np.stack([-e_r[:, 1], e_r[:, 0]], axis=-1)
        grad = self.SCALE * (p_r[:, None] * e_r + (p_t / rr)[:, None] * e_t)
        w_rr = gs * q2 - gv * sd2
        w_r = gs * q1 - gv * sd1
        lap = self.SCALE * (cap_rr + w_rr + (cap_r + w_r) / rr + p_tt / rr**2)
        p_rr = cap_rr - gv * sd2 + gs * q2
        p_rt = gs1 * q1 - gv1 * sd1
        ct = np.cos(th)
        st = np.sin(th)
        p11 = self.SCALE * (
            ct**2 * p_rr
            + st**2 / rr**2 * p_tt
            - 2.0 * st * ct / rr * p_rt
            + st**2 / rr * p_r
            + 2.0 * st * ct / rr**2 * p_t
        )
        return value, grad, lap, p11

    def _regions(self, X: np.ndarray):
        """Core and blend-ring masks of half-plane points, and the ring pass."""
        r = np.hypot(X[:, 0], X[:, 1])
        core = r <= self.lambda0
        ring = (r > self.lambda0) & (r < self.lambda0 + 1.0)
        return core, ring, self._ring(X[ring], r[ring])

    def _grad_X(self, X: np.ndarray, core: np.ndarray, ring: np.ndarray, ring_grad: np.ndarray) -> np.ndarray:
        return _by_region(core, self.SCALE * self._psi_hat_grad(X[core]), ring, ring_grad)

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

    def _chart(self, x):
        """The disk points in the chart's band (and off the center): their
        mask, the points, their radii and their coordinates X."""
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        live = ((1.0 - r) <= (self.lambda0 + 1.0) * self.rho) & (r > 1e-12)
        return live, x[live], r[live], self.x_coords(x[live])

    def value(self, x) -> np.ndarray:
        live, _, _, X = self._chart(x)
        core, ring, (ring_val, _, _, _) = self._regions(X)
        out = np.zeros(live.shape)
        out[live] = _by_region(core, self.SCALE * (self.A + self._psi_hat(X[core])), ring, ring_val)
        return out

    def gradient(self, x) -> np.ndarray:
        live, xl, rl, X = self._chart(x)
        core, ring, (_, ring_grad, _, _) = self._regions(X)
        gX = self._grad_X(X, core, ring, ring_grad)
        e_r = xl / rl[:, None]
        e_t = np.stack([-e_r[:, 1], e_r[:, 0]], axis=-1)
        out = np.zeros(live.shape + (2,))
        # grad X1 = e_t / (r rho); grad X2 = -e_r / rho
        out[live] = gX[:, 0, None] * e_t / (rl * self.rho)[:, None] - gX[:, 1, None] * e_r / self.rho
        return out

    def laplacian(self, x) -> np.ndarray:
        """Physical Laplacian: exact X-space Laplacian plus the metric
        corrections of the boundary-fitted chart (O(rho) relative)."""
        live, _, rl, X = self._chart(x)
        core, ring, (_, ring_grad, ring_lap, ring_p11) = self._regions(X)
        in1, in2 = self._in_balls(X)
        lap_X = _by_region(core & (in1 | in2), -self.SCALE, ring, ring_lap)
        p11 = _by_region(core, self.SCALE * self._psi_hat_d11(X[core]), ring, ring_p11)
        p2 = self._grad_X(X, core, ring, ring_grad)[:, 1]
        # psi(r, th) = P(th/rho, (1-r)/rho):
        # Delta psi = [P_22 + P_11 / r^2] / rho^2 - P_2 / (rho r)
        #          = [Delta_X P + P_11 (1/r^2 - 1)] / rho^2 - P_2 / (rho r)
        out = np.zeros(live.shape)
        out[live] = (lap_X + p11 * (1.0 / rl**2 - 1.0)) / self.rho**2 - p2 / (self.rho * rl)
        return out

    def normal_derivative_residual(self) -> float:
        """max |nu . grad psi| on the boundary arc inside the support.

        The profile is even in X2, so this vanishes up to quadrature
        symmetry error in the lens potential.
        """
        arcs = np.linspace(-(self.lambda0 + 1.0), self.lambda0 + 1.0, 181)
        X = np.stack([arcs, np.zeros_like(arcs)], axis=-1)
        core, ring, (_, ring_grad, _, _) = self._regions(X)
        p2 = self._grad_X(X, core, ring, ring_grad)[:, 1]
        return float(np.max(np.abs(p2)) / self.rho)


RHO_MAX = 0.1  # largest radius build_boundary_bump accepts


def build_boundary_bump(domain: DomainGeometry, x0, rho: float, lambda0: float = 8.0) -> BoundaryBump:
    """Construct the boundary bump; centers must satisfy d(x0) <= 2*rho.

    ``rho`` may not exceed ``RHO_MAX``; the Laplacian tolerance of
    ``verify_bump`` typically restricts usable radii further (metric
    distortion of the boundary chart grows like rho)."""
    if rho > RHO_MAX + 1e-15:
        raise GeometryError(f"rho={rho} exceeds the build maximum {RHO_MAX}")
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


CORE_MARGIN = 0.12  # relative margin around the core ball that verify_bump leaves unchecked
LAP_TOL = 0.05  # verify_bump's gate on the relative core Laplacian error


def verify_bump(bump: BoundaryBump, mesh: float = 1.0 / 512.0, n_samples: int = 1500) -> BumpReport:
    """Measure the defining properties of a built bump.

    The core Laplacian is checked on B_{(1-CORE_MARGIN) rho}(x0) (the
    margin absorbs the O(rho) mismatch between the boundary chart and the
    true metric near the core edge), the sign condition on the annulus out
    to the support, and the Neumann property on the wall.
    """
    rho = bump.rho
    core = _bump_samples(bump, 0.0, (1.0 - CORE_MARGIN) * rho, n_samples, mesh)
    lap_core = bump.laplacian(core) * rho**2
    core_err = float(np.max(np.abs(lap_core / (-2.0) - 1.0)))

    ann = _bump_samples(bump, (1.0 + CORE_MARGIN) * rho, (bump.lambda0 + 1.0) * rho, 2 * n_samples, mesh)
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
        core_err <= LAP_TOL
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
) -> float:
    """Largest rho (within a halving search) whose bump passes verify_bump."""
    rho = start
    for _ in range(8):
        x0 = (1.0 - depth_factor * rho) * np.array(
            [np.cos(boundary_angle), np.sin(boundary_angle)]
        )
        bump = BoundaryBump(domain, x0, rho, lambda0)
        if verify_bump(bump, n_samples=500).passed:
            return rho
        rho *= 0.5
    return 0.0
