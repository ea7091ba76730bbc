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
from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, GeometryError, reflect_tau, smoothstep5, unit_disk

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


def _components(p) -> tuple[np.ndarray, np.ndarray]:
    """The two coordinate arrays of a point array of shape ``(..., 2)``."""
    p = _as_points(p)
    return p[..., 0], p[..., 1]


def _sep2(x0, x1, y0, y1) -> np.ndarray:
    """Squared separation; raises on a coincident pair."""
    sep2 = (x0 - y0) ** 2 + (x1 - y1) ** 2
    if np.any(sep2 < _SINGULAR_TOL**2):
        raise SingularityError("Green's function is singular at x = y")
    return sep2


def _greens(x0, x1, y0, y1) -> np.ndarray:
    """``greens_disk_exact`` on coordinate arrays (broadcasting)."""
    sep2 = _sep2(x0, x1, y0, y1)
    rx2 = x0**2 + x1**2
    ry2 = y0**2 + y1**2
    image2 = rx2 * ry2 - 2.0 * (x0 * y0 + x1 * y1) + 1.0
    return -(np.log(sep2) + np.log(image2)) / (4.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + C0_DISK


def _grad_x_greens(x0, x1, y0, y1):
    """``grad_x_greens_disk_exact`` on coordinate arrays: the two gradient
    components and the squared separation."""
    sep2 = _sep2(x0, x1, y0, y1)
    ry2 = y0**2 + y1**2
    image2 = (x0**2 + x1**2) * ry2 - 2.0 * (x0 * y0 + x1 * y1) + 1.0
    # grad_x log||y|x - y/|y|| = (|y|^2 x - y) / image2
    g0 = -((x0 - y0) / sep2 + (ry2 * x0 - y0) / image2) / (2.0 * np.pi) + x0 / (2.0 * np.pi)
    g1 = -((x1 - y1) / sep2 + (ry2 * x1 - y1) / image2) / (2.0 * np.pi) + x1 / (2.0 * np.pi)
    return g0, g1, sep2


def greens_disk_exact(x, y) -> np.ndarray | float:
    """Exact Neumann Green's function of the unit disk, mean zero.

    Symmetric in its arguments; raises on x = y.
    """
    g = np.asarray(_greens(*_components(x), *_components(y)))
    return float(g) if g.ndim == 0 else g


def grad_x_greens_disk_exact(x, y) -> np.ndarray:
    """Analytic gradient of ``greens_disk_exact`` in the first argument."""
    g0, g1, _ = _grad_x_greens(*_components(x), *_components(y))
    return np.stack([g0, g1], axis=-1)


def cutoff_z_value(d, sigma0: float):
    """Collar cutoff in the boundary distance: 1 on d<=s0, 0 on d>=2*s0.

    Quintic smoothstep in between, C^2 at both junctions; value 1/2 at the
    midpoint d = 1.5*s0.
    """
    z = 1.0 - smoothstep5((np.asarray(d, dtype=float) - sigma0) / sigma0)
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


def _on(mask: np.ndarray, a):
    """``a`` (broadcast to the mask's shape) restricted to the mask; ``a``
    itself when the mask selects every pair, so that arguments smaller than
    the mask stay small."""
    return a if mask.all() else np.broadcast_to(a, mask.shape)[mask]


def _scatter(mask: np.ndarray, vals, fill: float):
    """Inverse of ``_on``: ``vals`` on the mask, ``fill`` elsewhere."""
    if mask.all():
        return vals
    out = np.full(mask.shape + np.shape(vals)[1:], fill)
    out[mask] = vals
    return out


def _tau_on(decomp: GreensDecomposition, mask: np.ndarray, y0, y1):
    """Components of the reflected point ``tau(y)`` on the masked pairs."""
    tau = reflect_tau(decomp.domain, np.stack([_on(mask, y0), _on(mask, y1)], axis=-1))
    return tau[..., 0], tau[..., 1]


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
    y0, y1 = _components(y)
    x0, x1 = _components(x)
    if greens_fn is None:
        gv = _greens(x0, x1, y0, y1)
    else:
        gv = np.asarray(greens_fn(*np.broadcast_arrays(_as_points(x), _as_points(y))))
    logs = np.log(np.hypot(x0 - y0, x1 - y1))
    z = cutoff_Z(decomp, y) if force_z is None else force_z
    mask = np.broadcast_to(np.asarray(z) > 0.0, np.shape(logs))
    if mask.any():
        t0, t1 = _tau_on(decomp, mask, y0, y1)
        image_log = _on(mask, z) * np.log(np.hypot(_on(mask, x0) - t0, _on(mask, x1) - t1))
        logs = logs + _scatter(mask, image_log, 0.0)
    k = np.asarray(gv + logs / (2.0 * np.pi))
    return float(k) if k.ndim == 0 else k


def grad_x_remainder_k_exact(decomp: GreensDecomposition, y, x) -> np.ndarray:
    """grad_x K(y, x): the analytic gradient minus both log gradients."""
    y0, y1 = _components(y)
    x0, x1 = _components(x)
    g0, g1, sep2 = _grad_x_greens(x0, x1, y0, y1)
    g0 = g0 + (x0 - y0) / sep2 / (2.0 * np.pi)
    g1 = g1 + (x1 - y1) / sep2 / (2.0 * np.pi)
    z = cutoff_Z(decomp, y)
    mask = np.broadcast_to(np.asarray(z) > 0.0, np.shape(sep2))
    if mask.any():
        t0, t1 = _tau_on(decomp, mask, y0, y1)
        zm = _on(mask, z)
        dxt0 = _on(mask, x0) - t0
        dxt1 = _on(mask, x1) - t1
        sept2 = dxt0**2 + dxt1**2
        g0 = g0 + _scatter(mask, zm * dxt0 / sept2 / (2.0 * np.pi), 0.0)
        g1 = g1 + _scatter(mask, zm * dxt1 / sept2 / (2.0 * np.pi), 0.0)
    return np.stack([g0, g1], axis=-1)


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


def _unit(c0, c1, r):
    """Unit vector along a point, NaN for a point at the disk center, and
    the mask of points off the center."""
    ok = r > 1e-14
    if np.all(ok):
        return c0 / r, c1 / r, ok
    r = np.maximum(r, 1e-300)
    return np.where(ok, c0 / r, np.nan), np.where(ok, c1 / r, np.nan), ok


def grad_x_G_terms(decomp: GreensDecomposition, x, y) -> GradGTerms:
    """Evaluate the gradient representation term by term at (x, y), x != y.

    The remainder is defined by subtraction from the analytic gradient, so
    the term sum reproduces it to rounding and the interesting checks are
    the magnitude and continuity of ``w_remainder``.  The image and
    curvature terms and ``image_conditioning`` are computed only on the
    pairs with ``Z(y) > 0`` and both points off the center.
    """
    x0, x1 = _components(x)
    y0, y1 = _components(y)
    e0, e1, sep2 = _grad_x_greens(x0, x1, y0, y1)
    c0 = -(x0 - y0) / sep2 / (2.0 * np.pi)
    c1 = -(x1 - y1) / sep2 / (2.0 * np.pi)

    rx = np.hypot(x0, x1)
    ry = np.hypot(y0, y1)
    dxv = 1.0 - rx
    dyv = 1.0 - ry
    nux0, nux1, okx = _unit(x0, x1, rx)
    nuy0, nuy1, oky = _unit(y0, y1, ry)
    # difference of the closest boundary points x + d(x) nu(x), y + d(y) nu(y)
    dp0 = (x0 + dxv * nux0) - (y0 + dyv * nuy0)
    dp1 = (x1 + dxv * nux1) - (y1 + dyv * nuy1)
    D = dp0**2 + dp1**2 + (dxv + dyv) ** 2
    sqrtD = np.sqrt(D)
    Y0 = dp0 / sqrtD
    Y1 = dp1 / sqrtD
    lam1 = dxv / sqrtD
    lam2 = dyv / sqrtD

    z = cutoff_z_value(dyv, decomp.sigma0)
    mask = np.broadcast_to((np.asarray(z) > 0.0) & oky & okx, np.shape(D))
    image = np.zeros(mask.shape + (2,))
    curvature = np.zeros(mask.shape + (2,))
    conditioning = np.full(mask.shape, np.nan)
    if mask.any():
        zm, Dm, l1, l2, dxm, dym = (_on(mask, a) for a in (z, D, lam1, lam2, dxv, dyv))
        image = np.stack(
            [
                -zm * (_on(mask, dp) - (dxm * _on(mask, nx) + dym * _on(mask, ny))) / Dm / (2.0 * np.pi)
                for dp, nx, ny in ((dp0, nux0, nuy0), (dp1, nux1, nuy1))
            ],
            axis=-1,
        )
        image = _scatter(mask, image, 0.0)
        Ym = np.stack([_on(mask, Y0), _on(mask, Y1)], axis=-1)
        nuy = np.stack([_on(mask, nuy0), _on(mask, nuy1)], axis=-1)
        scale = -(zm * (1.0 / _on(mask, ry)) / (2.0 * np.pi))
        kernels = g_tangential(Ym, l1, l2) + np.expand_dims(g_normal(Ym, l1, l2), -1) * nuy
        curvature = _scatter(mask, np.expand_dims(scale, -1) * kernels, 0.0)
        t0, t1 = _tau_on(decomp, mask, y0, y1)
        sep_tau2 = (_on(mask, x0) - t0) ** 2 + (_on(mask, x1) - t1) ** 2
        conditioning = _scatter(mask, sep_tau2 / Dm, np.nan)
    exact = np.stack([e0, e1], axis=-1)
    coulomb = np.stack([c0, c1], axis=-1)
    return GradGTerms(
        coulomb=coulomb,
        image=image,
        curvature=curvature,
        w_remainder=exact - coulomb - image - curvature,
        d_denominator=D,
        y_sim=np.stack([Y0, Y1], axis=-1),
        lambda1=lam1,
        lambda2=lam2,
        image_conditioning=conditioning,
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
