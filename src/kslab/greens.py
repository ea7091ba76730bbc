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

from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, GeometryError, reflect_tau, unit_disk

__all__ = [
    "C0_DISK",
    "GreensDecomposition",
    "GradGTerms",
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


def greens_disk_exact(x, y) -> np.ndarray | float:
    """Exact Neumann Green's function of the unit disk, mean zero.

    Symmetric in its arguments; raises on x = y.
    """
    x, y = np.broadcast_arrays(_as_points(x), _as_points(y))
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    if np.any(sep2 < _SINGULAR_TOL**2):
        raise SingularityError("greens_disk_exact is singular at x = y")
    rx2 = x[..., 0] ** 2 + x[..., 1] ** 2
    ry2 = y[..., 0] ** 2 + y[..., 1] ** 2
    dot = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]
    image2 = rx2 * ry2 - 2.0 * dot + 1.0
    g = (
        -(np.log(sep2) + np.log(image2)) / (4.0 * np.pi)
        + (rx2 + ry2) / (4.0 * np.pi)
        + C0_DISK
    )
    return float(g) if g.ndim == 0 else g


def grad_x_greens_disk_exact(x, y) -> np.ndarray:
    """Analytic gradient of ``greens_disk_exact`` in the first argument."""
    x, y = np.broadcast_arrays(_as_points(x), _as_points(y))
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    if np.any(sep2 < _SINGULAR_TOL**2):
        raise SingularityError("gradient singular at x = y")
    rx2 = x[..., 0] ** 2 + x[..., 1] ** 2
    ry2 = y[..., 0] ** 2 + y[..., 1] ** 2
    dot = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]
    image2 = (rx2 * ry2 - 2.0 * dot + 1.0)[..., None]
    # grad_x log||y|x - y/|y|| = (|y|^2 x - y) / image2
    return (
        -(dx / sep2[..., None] + (ry2[..., None] * x - y) / image2) / (2.0 * np.pi)
        + x / (2.0 * np.pi)
    )


def cutoff_z_value(d, sigma0: float):
    """Collar cutoff in the boundary distance: 1 on d<=s0, 0 on d>=2*s0.

    Quintic smoothstep in between, C^2 at both junctions; value 1/2 at the
    midpoint d = 1.5*s0.
    """
    s = np.clip((np.asarray(d, dtype=float) - sigma0) / sigma0, 0.0, 1.0)
    z = 1.0 - s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)
    return float(z) if z.ndim == 0 else z


@dataclass(frozen=True)
class GreensDecomposition:
    """Immutable evaluation bundle: the disk domain (with its collar width)
    and the mean-zero constant c0; shared freely across threads."""

    domain: DomainGeometry
    normalization_c0: float = C0_DISK

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
    k = term / (2.0 * np.pi) + r * r / (2.0 * np.pi) + decomp.normalization_c0
    return float(k) if k.ndim == 0 else k


def remainder_k_exact(
    decomp: GreensDecomposition,
    y,
    x,
    greens_fn=None,
    force_z: float | None = None,
) -> np.ndarray | float:
    """K(y, x) by subtraction of both logs from the exact Green's function.

    ``greens_fn`` and ``force_z`` exist for consistency checks (e.g. the
    free-space reduction, where K collapses to the polynomial part).
    """
    g = greens_fn if greens_fn is not None else greens_disk_exact
    y = _as_points(y)
    x = _as_points(x)
    yb, xb = np.broadcast_arrays(y, x)
    gv = np.asarray(g(xb, yb))
    sep = np.hypot(xb[..., 0] - yb[..., 0], xb[..., 1] - yb[..., 1])
    if force_z is None:
        z = np.asarray(cutoff_Z(decomp, yb))
    else:
        z = np.full(sep.shape, float(force_z))
    image_log = np.zeros(sep.shape)
    mask = z > 0.0
    if np.any(mask):
        tau = reflect_tau(decomp.domain, yb[mask])
        image_log[mask] = z[mask] * np.log(
            np.hypot(xb[mask][..., 0] - tau[..., 0], xb[mask][..., 1] - tau[..., 1])
        )
    k = gv + (np.log(sep) + image_log) / (2.0 * np.pi)
    return float(k) if k.ndim == 0 else k


def grad_x_remainder_k_exact(decomp: GreensDecomposition, y, x) -> np.ndarray:
    """grad_x K(y, x): the analytic gradient minus both log gradients."""
    y = _as_points(y)
    x = _as_points(x)
    yb, xb = np.broadcast_arrays(y, x)
    grad = grad_x_greens_disk_exact(xb, yb)
    dx = xb - yb
    sep2 = (dx[..., 0] ** 2 + dx[..., 1] ** 2)[..., None]
    grad = grad + dx / sep2 / (2.0 * np.pi)
    z = np.asarray(cutoff_Z(decomp, yb))
    mask = z > 0.0
    if np.any(mask):
        tau = reflect_tau(decomp.domain, yb[mask])
        dxt = xb[mask] - tau
        sept2 = (dxt[..., 0] ** 2 + dxt[..., 1] ** 2)[..., None]
        grad[mask] += z[mask][..., None] * dxt / sept2 / (2.0 * np.pi)
    return grad


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
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    y2 = np.sum(Y * Y, axis=-1)
    coef = -2.0 * (lam1 + lam2) * lam2**2 + (lam1 - lam2) * y2
    return coef[..., None] * Y


def g_normal(Y: np.ndarray, lam1, lam2) -> np.ndarray | float:
    """Normal curvature kernel: -l2^2 + 2 l2^2 (l1+l2)^2 + (l2^2-l1^2)|Y|^2."""
    Y = np.asarray(Y, dtype=float)
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    y2 = np.sum(Y * Y, axis=-1)
    out = -(lam2**2) + 2.0 * lam2**2 * (lam1 + lam2) ** 2 + (lam2**2 - lam1**2) * y2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GradGTerms:
    """Split of grad_x G into Coulomb, image, curvature and remainder parts.

    ``coulomb + image + curvature + w_remainder`` reproduces the analytic
    gradient exactly; the similarity variables satisfy
    ``|Y|^2 + (lambda1+lambda2)^2 = 1`` whenever both points carry a frame
    (NaN where a point sits at the disk center).  ``image_conditioning`` is
    ``|x - tau(y)|^2 / D``; values near zero signal the near-image regime.
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


def grad_x_G_terms(decomp: GreensDecomposition, x, y) -> GradGTerms:
    """Evaluate the gradient representation term by term at (x, y), x != y.

    The remainder is defined by subtraction from the analytic gradient, so
    the term sum is exact by construction and the interesting checks are
    the magnitude and continuity of ``w_remainder``.
    """
    x = _as_points(x)
    y = _as_points(y)
    xb, yb = np.broadcast_arrays(x, y)
    exact = grad_x_greens_disk_exact(xb, yb)
    dx = xb - yb
    sep2 = (dx[..., 0] ** 2 + dx[..., 1] ** 2)[..., None]
    coulomb = -dx / sep2 / (2.0 * np.pi)

    rx = np.hypot(xb[..., 0], xb[..., 1])
    ry = np.hypot(yb[..., 0], yb[..., 1])
    dxv = 1.0 - rx
    dyv = 1.0 - ry
    z = np.asarray(cutoff_z_value(dyv, decomp.sigma0))

    ok = (rx > 1e-14) & (ry > 1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):
        nux = np.where(ok[..., None], xb / np.maximum(rx, 1e-300)[..., None], np.nan)
        nuy = np.where(ok[..., None], yb / np.maximum(ry, 1e-300)[..., None], np.nan)
    pbx = xb + dxv[..., None] * nux
    pby = yb + dyv[..., None] * nuy
    dp = pbx - pby
    D = dp[..., 0] ** 2 + dp[..., 1] ** 2 + (dxv + dyv) ** 2
    sqrtD = np.sqrt(D)
    Y = dp / sqrtD[..., None]
    lam1 = dxv / sqrtD
    lam2 = dyv / sqrtD

    zmask = (z > 0.0) & ok
    zcol = np.where(zmask, z, 0.0)[..., None]
    image_num = dp - (dxv[..., None] * nux + dyv[..., None] * nuy)
    image = np.where(
        zmask[..., None], -zcol * image_num / np.where(D > 0, D, 1.0)[..., None] / (2.0 * np.pi), 0.0
    )
    h_y = np.where(ok, 1.0 / np.maximum(ry, 1e-300), np.nan)
    gt = g_tangential(np.where(np.isfinite(Y), Y, 0.0), np.where(ok, lam1, 0.0), np.where(ok, lam2, 0.0))
    gn = np.asarray(g_normal(np.where(np.isfinite(Y), Y, 0.0), np.where(ok, lam1, 0.0), np.where(ok, lam2, 0.0)))
    curvature = np.where(
        zmask[..., None],
        -(zcol * np.where(ok, h_y, 0.0)[..., None] / (2.0 * np.pi)) * (gt + gn[..., None] * nuy),
        0.0,
    )
    w = exact - coulomb - image - curvature

    conditioning = np.full(D.shape, np.nan)
    if np.any(zmask):
        tau = reflect_tau(decomp.domain, yb[zmask])
        sep_tau2 = np.sum((xb[zmask] - tau) ** 2, axis=-1)
        conditioning[zmask] = sep_tau2 / D[zmask]
    return GradGTerms(
        coulomb=coulomb,
        image=image,
        curvature=curvature,
        w_remainder=w,
        d_denominator=D,
        y_sim=Y,
        lambda1=lam1,
        lambda2=lam2,
        image_conditioning=conditioning,
    )


def disk_mean_of_greens(x, n_r: int = 96, n_theta: int = 256) -> float:
    """Quadrature of int_disk G(y, x) dy with the log singularity removed.

    The singular Coulomb log integrates in closed form over the disk
    (``(1-|x|^2)/4``); the rest is analytic and handled by Gauss-Legendre
    in radius times a periodic trapezoid in angle.
    """
    x = np.asarray(x, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wth = 2.0 * np.pi / n_theta
    rr, tt = np.meshgrid(r, th, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    rx2 = x[0] ** 2 + x[1] ** 2
    ry2 = rr**2
    dot = x[0] * pts[..., 0] + x[1] * pts[..., 1]
    image2 = rx2 * ry2 - 2.0 * dot + 1.0
    smooth = -np.log(image2) / (4.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + C0_DISK
    integral = np.sum(smooth * rr * wr[:, None]) * wth
    return float(integral + (1.0 - rx2) / 4.0)
