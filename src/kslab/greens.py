"""Neumann Green's function of the unit disk and its boundary decomposition.

The disk admits a closed form built from the Kelvin image:

    G(x, y) = -(1/4pi) [ log|x-y|^2 + log(|x|^2 |y|^2 - 2 x.y + 1) ]
              + (|x|^2 + |y|^2)/(4pi) + c0

with ``-Delta_y G = delta_x - 1/pi``, zero normal derivative, zero disk
mean.  The second log argument is ``| |y| x - y/|y| |^2`` written so it is
symmetric in (x, y) and regular at the origin.  The constant making the
disk mean vanish is analytic: integrating at x = 0 gives
``1/4 + 1/8 + pi*c0 = 0``, so ``c0 = -3/(8 pi)``.

Around this oracle the module evaluates the near-boundary splitting

    G(y, x) = -(1/2pi) [ log|y-x| + Z(y) log|tau(y)-x| ] + K(y, x)

(with ``Z`` a C^2 collar cutoff and ``tau`` the boundary reflection) and
the gradient representation whose collar terms are the Coulomb, image and
curvature vectors plus a continuous remainder ``W``.  ``K`` is obtained by
subtraction from the exact ``G`` rather than by a second elliptic solve,
so the PDE characterization of ``K`` becomes a test, not a constructor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, GeometryError, reflect_tau, smoothstep5, unit_disk

__all__ = [
    "C0_DISK",
    "GreensDecomposition",
    "GradGTerms",
    "GreensPair",
    "build_greens_decomposition",
    "greens_disk_exact",
    "grad_x_greens_disk_exact",
    "cutoff_Z",
    "cutoff_z_value",
    "remainder_k_exact",
    "remainder_k_diagonal",
    "grad_x_remainder_k_exact",
    "grad_x_G_terms",
    "g_tangential",
    "g_normal",
    "disk_mean_of_greens",
]

# Mean-zero normalization constant of the disk Green's function.
C0_DISK = -3.0 / (8.0 * np.pi)

_SINGULAR_TOL = 1e-14


class SingularityError(ValueError):
    """Green's function evaluated on the diagonal x = y."""


def _as_points(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError("points must have trailing dimension 2")
    return p


def _components(p) -> tuple[np.ndarray, np.ndarray]:
    """The two coordinate arrays of a point array of shape ``(..., 2)``."""
    p = _as_points(p)
    return p[..., 0], p[..., 1]


def greens_disk_exact(x, y) -> np.ndarray | float:
    """Exact Neumann Green's function of the unit disk, mean zero.

    Symmetric in its arguments; raises on x = y.
    """
    g = np.asarray(GreensPair.of(None, x, y).value)
    return float(g) if g.ndim == 0 else g


def grad_x_greens_disk_exact(x, y) -> np.ndarray:
    """Analytic gradient of ``greens_disk_exact`` in the first argument."""
    return np.stack(GreensPair.of(None, x, y).grad, axis=-1)


def cutoff_z_value(d, sigma0: float):
    """Collar cutoff in the boundary distance: 1 on d<=s0, 0 on d>=2*s0.

    Quintic smoothstep in between, C^2 at both junctions; value 1/2 at the
    midpoint d = 1.5*s0.
    """
    z = 1.0 - smoothstep5((np.asarray(d, dtype=float) - sigma0) / sigma0)
    return float(z) if z.ndim == 0 else z


@dataclass(frozen=True)
class GreensDecomposition:
    """Immutable evaluation bundle: the disk domain (with its collar width);
    shared freely across threads."""

    domain: DomainGeometry

    @property
    def sigma0(self) -> float:
        return self.domain.sigma0


def cutoff_Z(decomp: GreensDecomposition, y) -> np.ndarray | float:
    """Cutoff Z(y) of the decomposition, evaluated through d(y) = 1 - |y|."""
    y = _as_points(y)
    d = 1.0 - np.hypot(y[..., 0], y[..., 1])
    return cutoff_z_value(d, decomp.sigma0)


def remainder_k_diagonal(decomp: GreensDecomposition, y) -> np.ndarray | float:
    """Diagonal limit K(y, y), with the log(1-r^2) cancellation done exactly."""
    y = _as_points(y)
    r = np.hypot(y[..., 0], y[..., 1])
    z = cutoff_z_value(1.0 - r, decomp.sigma0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_one_minus_r2 = np.log1p(-r * r)
        term = np.where(z == 1.0, 0.0, (z - 1.0) * log_one_minus_r2)
        logr = np.where(r > 0.0, np.log(np.maximum(r, 1e-300)), 0.0)
        term = term - np.where(z > 0.0, z * logr, 0.0)
    k = term / (2.0 * np.pi) + r * r / (2.0 * np.pi) + C0_DISK
    return float(k) if k.ndim == 0 else k


def remainder_k_exact(decomp: GreensDecomposition, y, x) -> np.ndarray | float:
    """K(y, x) by subtraction of both logs from the exact Green's function."""
    k = np.asarray(GreensPair.of(decomp, x, y).k)
    return float(k) if k.ndim == 0 else k


def grad_x_remainder_k_exact(decomp: GreensDecomposition, y, x) -> np.ndarray:
    """grad_x K(y, x): the analytic gradient plus both log gradients."""
    return np.stack(GreensPair.of(decomp, x, y).grad_k, axis=-1)


def build_greens_decomposition(domain: DomainGeometry | None = None) -> GreensDecomposition:
    """The decomposition record of the unit disk (or of ``domain``, which
    must be a disk).  K is evaluated in closed form by ``remainder_k_exact``
    and ``remainder_k_diagonal``."""
    domain = unit_disk() if domain is None else domain
    if not domain.is_disk:
        raise GeometryError("Green's decomposition is disk-only")
    return GreensDecomposition(domain=domain)


def g_tangential(Y: np.ndarray, lam1, lam2) -> np.ndarray:
    """Tangential curvature kernel: -2(l1+l2) l2^2 Y + (l1-l2)|Y|^2 Y.

    Degree-zero homogeneous in the underlying point pair: it sees only the
    normalized similarity variables.
    """
    Y = np.asarray(Y, dtype=float)
    coef = _g_tangential_coef(np.sum(Y * Y, axis=-1), np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float))
    return coef[..., None] * Y


def g_normal(Y: np.ndarray, lam1, lam2) -> np.ndarray | float:
    """Normal curvature kernel: -l2^2 + 2 l2^2 (l1+l2)^2 + (l2^2-l1^2)|Y|^2."""
    Y = np.asarray(Y, dtype=float)
    out = _g_normal(np.sum(Y * Y, axis=-1), np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float))
    return float(out) if out.ndim == 0 else out


def _g_tangential_coef(y2, lam1, lam2):
    """The factor of Y in ``g_tangential``, at ``|Y|^2 = y2``."""
    return -2.0 * (lam1 + lam2) * lam2**2 + (lam1 - lam2) * y2


def _g_normal(y2, lam1, lam2):
    """``g_normal`` at ``|Y|^2 = y2``."""
    return -(lam2**2) + 2.0 * lam2**2 * (lam1 + lam2) ** 2 + (lam2**2 - lam1**2) * y2


@dataclass(frozen=True)
class GradGTerms:
    """Split of grad_x G into Coulomb, image, curvature and remainder parts.

    ``coulomb + image + curvature + w_remainder`` reproduces the analytic
    gradient to rounding (``w_remainder`` is defined by subtraction); the
    similarity variables satisfy ``|Y|^2 + (lambda1+lambda2)^2 = 1``
    whenever both points carry a frame (NaN where a point sits at the disk
    center).  ``image_conditioning`` is ``|x - tau(y)|^2 / D``; values near
    zero signal the near-image regime.  Where ``Z(y) = 0`` or a point sits
    at the center, image and curvature are exactly zero and
    ``image_conditioning`` is NaN.
    """

    coulomb: np.ndarray
    image: np.ndarray
    curvature: np.ndarray
    w_remainder: np.ndarray
    d_denominator: np.ndarray
    y_sim: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    image_conditioning: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.coulomb + self.image + self.curvature + self.w_remainder


class _Selection:
    """The pairs of a given shape on which ``selected`` (which broadcasts to
    it) holds; whether it holds on every pair, or on any, is read once."""

    def __init__(self, selected, shape):
        self.shape = shape
        self.all = bool(np.all(selected))
        self.any = math.prod(shape) > 0 and bool(np.any(selected))
        self.mask = None if self.all else np.broadcast_to(selected, shape)

    def on(self, a):
        """``a`` (broadcast to the shape) on the selected pairs; ``a``
        itself when every pair is selected, so that arguments smaller than
        the shape stay small."""
        return a if self.all else np.broadcast_to(a, self.shape)[self.mask]

    def scatter(self, vals, fill: float):
        """Inverse of ``on``: ``vals`` on the selected pairs, ``fill``
        elsewhere."""
        if self.all:
            return vals
        out = np.full(self.shape, fill)
        out[self.mask] = vals
        return out

    def tau(self, decomp: GreensDecomposition, y0, y1):
        """Components of the reflected point ``tau(y)`` on the selected pairs."""
        tau = reflect_tau(decomp.domain, np.stack([self.on(y0), self.on(y1)], axis=-1))
        return tau[..., 0], tau[..., 1]


def _unit(c0, c1, r):
    """Unit vector along a point, NaN for a point at the disk center, and
    the mask of points off the center."""
    ok = r > 1e-14
    if np.all(ok):
        return c0 / r, c1 / r, ok
    r = np.maximum(r, 1e-300)
    return np.where(ok, c0 / r, np.nan), np.where(ok, c1 / r, np.nan), ok


class GreensPair:
    """Green's-function quantities of points x against a point or points y,
    each computed once, on first read.

    Built from coordinate arrays that broadcast together; vector quantities
    are pairs of component arrays.
    ``value`` and ``grad`` are the exact Green's function and its gradient
    in x and need no decomposition (``decomp`` may be None); the remainders
    ``k``, ``grad_k`` and ``w`` and the collar terms read its cutoff.
    ``sep2`` raises ``SingularityError`` on a coincident pair, and ``value``,
    ``grad`` and the three remainders read it before anything else.
    """

    def __init__(self, decomp: GreensDecomposition | None, x0, x1, y0, y1):
        self.decomp = decomp
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1

    @classmethod
    def of(cls, decomp: GreensDecomposition | None, x, y) -> "GreensPair":
        """The evaluator of point arrays of shape ``(..., 2)``."""
        return cls(decomp, *_components(x), *_components(y))

    # -- the exact Green's function --------------------------------------

    @functools.cached_property
    def _dx(self):
        return self.x0 - self.y0, self.x1 - self.y1

    @functools.cached_property
    def sep2(self):
        """Squared separation; raises on a coincident pair."""
        dx0, dx1 = self._dx
        sep2 = dx0**2 + dx1**2
        if np.any(sep2 < _SINGULAR_TOL**2):
            raise SingularityError("Green's function is singular at x = y")
        return sep2

    @functools.cached_property
    def _r2(self):
        return self.x0**2 + self.x1**2, self.y0**2 + self.y1**2

    @functools.cached_property
    def image2(self):
        """Image distance ``|x|^2 |y|^2 - 2 x.y + 1``, written as
        ``|x - y|^2 + (1 - |x|^2)(1 - |y|^2)`` so that it does not cancel for
        close pairs at the boundary (on the circle it equals ``sep2``)."""
        rx2, ry2 = self._r2
        return self.sep2 + (1.0 - rx2) * (1.0 - ry2)

    @functools.cached_property
    def value(self):
        """G(x, y)."""
        sep2, image2 = self.sep2, self.image2
        rx2, ry2 = self._r2
        return -(np.log(sep2) + np.log(image2)) / (4.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + C0_DISK

    @functools.cached_property
    def _quotient(self):
        """``(x - y) / |x - y|^2``."""
        sep2 = self.sep2
        dx0, dx1 = self._dx
        return dx0 / sep2, dx1 / sep2

    @functools.cached_property
    def grad(self):
        """grad_x G(x, y)."""
        q0, q1 = self._quotient
        image2, ry2 = self.image2, self._r2[1]
        x0, x1, y0, y1 = self.x0, self.x1, self.y0, self.y1
        # grad_x log||y|x - y/|y|| = (|y|^2 x - y) / image2
        return (
            -(q0 + (ry2 * x0 - y0) / image2) / (2.0 * np.pi) + x0 / (2.0 * np.pi),
            -(q1 + (ry2 * x1 - y1) / image2) / (2.0 * np.pi) + x1 / (2.0 * np.pi),
        )

    @functools.cached_property
    def coulomb(self):
        """Coulomb piece ``-(x - y) / (2 pi |x - y|^2)`` of the gradient."""
        q0, q1 = self._quotient
        return -q0 / (2.0 * np.pi), -q1 / (2.0 * np.pi)

    # -- the collar cutoff and the remainder K ---------------------------

    @functools.cached_property
    def _rx(self):
        return np.hypot(self.x0, self.x1)

    @functools.cached_property
    def _ry(self):
        return np.hypot(self.y0, self.y1)

    @functools.cached_property
    def _dist_y(self):
        """Boundary distance ``d(y) = 1 - |y|``."""
        return 1.0 - self._ry

    @functools.cached_property
    def z(self):
        """Cutoff Z(y)."""
        return cutoff_z_value(self._dist_y, self.decomp.sigma0)

    @functools.cached_property
    def _collar(self) -> _Selection:
        """The pairs with Z(y) > 0."""
        return _Selection(np.asarray(self.z) > 0.0, np.shape(self.sep2))

    @functools.cached_property
    def _x_minus_tau(self):
        """``x - tau(y)`` on the collar pairs."""
        collar = self._collar
        t0, t1 = collar.tau(self.decomp, self.y0, self.y1)
        return collar.on(self.x0) - t0, collar.on(self.x1) - t1

    @functools.cached_property
    def k(self):
        """K(y, x) by subtraction of both logs from G."""
        value = self.value
        logs = np.log(np.hypot(*self._dx))
        collar = self._collar
        if collar.any:
            d0, d1 = self._x_minus_tau
            logs = logs + collar.scatter(collar.on(self.z) * np.log(np.hypot(d0, d1)), 0.0)
        return value + logs / (2.0 * np.pi)

    @functools.cached_property
    def grad_k(self):
        """grad_x K(y, x): grad_x G plus both log gradients."""
        (e0, e1), (c0, c1) = self.grad, self.coulomb
        g0, g1 = e0 - c0, e1 - c1
        collar = self._collar
        if collar.any:
            d0, d1 = self._x_minus_tau
            zm = collar.on(self.z)
            sept2 = d0**2 + d1**2
            g0 = g0 + collar.scatter(zm * d0 / sept2 / (2.0 * np.pi), 0.0)
            g1 = g1 + collar.scatter(zm * d1 / sept2 / (2.0 * np.pi), 0.0)
        return g0, g1

    # -- the boundary frame and the gradient representation --------------

    @functools.cached_property
    def _normals(self):
        """Unit vectors along x and y (NaN at the center) and the masks of
        the points off the center."""
        nux0, nux1, okx = _unit(self.x0, self.x1, self._rx)
        nuy0, nuy1, oky = _unit(self.y0, self.y1, self._ry)
        return nux0, nux1, nuy0, nuy1, okx, oky

    @functools.cached_property
    def _dist_x(self):
        """Boundary distance ``d(x) = 1 - |x|``."""
        return 1.0 - self._rx

    @functools.cached_property
    def _gap(self):
        """Difference of the closest boundary points x + d(x) nu(x) and
        y + d(y) nu(y), and ``D = |difference|^2 + (d(x) + d(y))^2``."""
        nux0, nux1, nuy0, nuy1, _, _ = self._normals
        dxv, dyv = self._dist_x, self._dist_y
        dp0 = (self.x0 + dxv * nux0) - (self.y0 + dyv * nuy0)
        dp1 = (self.x1 + dxv * nux1) - (self.y1 + dyv * nuy1)
        return dp0, dp1, dp0**2 + dp1**2 + (dxv + dyv) ** 2

    @functools.cached_property
    def similarity(self):
        """Similarity variables ``(Y0, Y1, lambda1, lambda2)``: the gap and
        the two boundary distances over ``sqrt(D)``."""
        dp0, dp1, D = self._gap
        sqrtD = np.sqrt(D)
        return dp0 / sqrtD, dp1 / sqrtD, self._dist_x / sqrtD, self._dist_y / sqrtD

    @functools.cached_property
    def _framed(self) -> _Selection:
        """The pairs with Z(y) > 0 and both points off the center, on which
        the image and curvature terms are evaluated; the frame is not read
        when Z(y) vanishes on every pair."""
        in_collar = np.asarray(self.z) > 0.0
        if np.any(in_collar):
            *_, okx, oky = self._normals
            in_collar = in_collar & oky & okx
        return _Selection(in_collar, np.shape(self.sep2))

    @functools.cached_property
    def image(self):
        """Image term of the gradient representation (zero off ``_framed``)."""
        sel = self._framed
        if not sel.any:
            return np.zeros(sel.shape), np.zeros(sel.shape)
        dp0, dp1, D = self._gap
        nux0, nux1, nuy0, nuy1, _, _ = self._normals
        zm, Dm, dxm, dym = (sel.on(a) for a in (self.z, D, self._dist_x, self._dist_y))
        return tuple(
            sel.scatter(-zm * (sel.on(dp) - (dxm * sel.on(nx) + dym * sel.on(ny))) / Dm / (2.0 * np.pi), 0.0)
            for dp, nx, ny in ((dp0, nux0, nuy0), (dp1, nux1, nuy1))
        )

    @functools.cached_property
    def curvature(self):
        """Curvature term: the kernels ``g_tangential`` and ``g_normal``
        scaled by ``-Z(y) / (2 pi |y|)`` (zero off ``_framed``)."""
        sel = self._framed
        if not sel.any:
            return np.zeros(sel.shape), np.zeros(sel.shape)
        _, _, nuy0, nuy1, _, _ = self._normals
        Y0, Y1, l1, l2 = (sel.on(a) for a in self.similarity)
        y2 = Y0 * Y0 + Y1 * Y1
        tangential, normal = _g_tangential_coef(y2, l1, l2), _g_normal(y2, l1, l2)
        scale = -(sel.on(self.z) * (1.0 / sel.on(self._ry)) / (2.0 * np.pi))
        return tuple(
            sel.scatter(scale * (tangential * Yk + normal * sel.on(nuy)), 0.0)
            for Yk, nuy in ((Y0, nuy0), (Y1, nuy1))
        )

    @functools.cached_property
    def w(self):
        """Remainder W: grad_x G minus the Coulomb, image and curvature terms."""
        (e0, e1), (c0, c1) = self.grad, self.coulomb
        (i0, i1), (k0, k1) = self.image, self.curvature
        return e0 - c0 - i0 - k0, e1 - c1 - i1 - k1

    @functools.cached_property
    def image_conditioning(self):
        """``|x - tau(y)|^2 / D`` on ``_framed``, NaN off it."""
        sel = self._framed
        if not sel.any:
            return np.full(sel.shape, np.nan)
        t0, t1 = sel.tau(self.decomp, self.y0, self.y1)
        sep_tau2 = (sel.on(self.x0) - t0) ** 2 + (sel.on(self.x1) - t1) ** 2
        return sel.scatter(sep_tau2 / sel.on(self._gap[2]), np.nan)


def grad_x_G_terms(decomp: GreensDecomposition, x, y) -> GradGTerms:
    """Evaluate the gradient representation term by term at (x, y), x != y.

    The remainder is defined by subtraction from the analytic gradient, so
    the term sum reproduces it to rounding and the interesting checks are
    the magnitude and continuity of ``w_remainder``.  The image and
    curvature terms and ``image_conditioning`` are computed only on the
    pairs with ``Z(y) > 0`` and both points off the center.
    """
    pair = GreensPair.of(decomp, x, y)
    w_remainder = np.stack(pair.w, axis=-1)
    Y0, Y1, lam1, lam2 = pair.similarity
    return GradGTerms(
        coulomb=np.stack(pair.coulomb, axis=-1),
        image=np.stack(pair.image, axis=-1),
        curvature=np.stack(pair.curvature, axis=-1),
        w_remainder=w_remainder,
        d_denominator=pair._gap[2],
        y_sim=np.stack([Y0, Y1], axis=-1),
        lambda1=lam1,
        lambda2=lam2,
        image_conditioning=pair.image_conditioning,
    )


@functools.lru_cache(maxsize=8)
def _disk_nodes(n_r: int, n_theta: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre radii and weights on [0, 1] and the cosines and sines
    of the trapezoid angles; read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    out = (0.5 * (nodes + 1.0), 0.5 * weights, np.cos(th), np.sin(th))
    for a in out:
        a.flags.writeable = False
    return out


def disk_mean_of_greens(x, n_r: int = 96, n_theta: int = 256) -> float:
    """Quadrature of int_disk G(y, x) dy with the log singularity removed.

    The singular Coulomb log integrates in closed form over the disk
    (``(1-|x|^2)/4``); the rest is analytic and handled by Gauss-Legendre
    in radius times a periodic trapezoid in angle (nodes cached per
    ``(n_r, n_theta)``).
    """
    x = np.asarray(x, dtype=float)
    r, wr, cos_t, sin_t = _disk_nodes(n_r, n_theta)
    rr = r[:, None]
    rx2 = x[0] ** 2 + x[1] ** 2
    ry2 = rr**2
    dot = x[0] * (rr * cos_t) + x[1] * (rr * sin_t)
    image2 = rx2 * ry2 - 2.0 * dot + 1.0
    smooth = -np.log(image2) / (4.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + C0_DISK
    integral = np.sum(smooth * rr * wr[:, None]) * (2.0 * np.pi / n_theta)
    return float(integral + (1.0 - rx2) / 4.0)
