"""Domain geometry: distance, boundary frames, and the boundary reflection.

The unit disk is the reference smooth domain.  Every boundary quantity
(distance ``d``, outward normal ``nu``, tangent, curvature ``h``, closest
boundary point, reflected image point ``tau``) has a closed form there,
which downstream modules use as an analytic oracle.  A rectangle backend
exists solely to feed the fast 2D solver; its corners rule out every
smooth-boundary operation, so those raise ``GeometryError`` instead of
approximating.

Points are numpy arrays of shape ``(2,)`` or ``(..., 2)``; all operations
broadcast over leading axes and are pure functions (thread-safe).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "DomainGeometry",
    "BoundaryFrame",
    "unit_disk",
    "rectangle",
    "distance_to_boundary",
    "boundary_frame",
    "reflect_tau",
    "smoothstep5",
    "smoothstep5_d1",
    "smoothstep5_d2",
]

# Interior tolerance: points may sit this far outside the closure before the
# domain check rejects them (grid round-off slack).
_BOUNDARY_SLACK = 1e-12


class GeometryError(ValueError):
    """Operation invalid for the given domain or point."""


@dataclass(frozen=True)
class DomainGeometry:
    """A computational domain plus its boundary-collar width.

    ``sigma0`` is the collar half-width: the cutoff used by the Green's
    function decomposition equals 1 on ``{d <= sigma0}`` and 0 on
    ``{d >= 2*sigma0}``, so ``2*sigma0`` must stay below the inradius.
    """

    kind: str  # "unit_disk" | "rectangle"
    width: float = 0.0  # rectangle only
    height: float = 0.0  # rectangle only
    sigma0: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in ("unit_disk", "rectangle"):
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if self.sigma0 <= 0.0:
            raise GeometryError("sigma0 must be positive")
        if self.kind == "rectangle":
            if self.width <= 0.0 or self.height <= 0.0:
                raise GeometryError("rectangle needs positive width and height")
        elif 2.0 * self.sigma0 >= self.inradius:
            # the collar only exists for the smooth domain
            raise GeometryError(
                f"collar 2*sigma0={2 * self.sigma0} exceeds inradius {self.inradius}"
            )

    @property
    def is_disk(self) -> bool:
        return self.kind == "unit_disk"

    @property
    def area(self) -> float:
        if self.is_disk:
            return float(np.pi)
        return self.width * self.height

    @property
    def inradius(self) -> float:
        if self.is_disk:
            return 1.0
        return 0.5 * min(self.width, self.height)


def unit_disk(sigma0: float = 0.25) -> DomainGeometry:
    return DomainGeometry(kind="unit_disk", sigma0=sigma0)


def rectangle(width: float, height: float, sigma0: float | None = None) -> DomainGeometry:
    # sigma0 is irrelevant for the rectangle (no smooth collar); keep it legal.
    s0 = 0.25 * min(width, height) if sigma0 is None else sigma0
    return DomainGeometry(kind="rectangle", width=width, height=height, sigma0=s0)


@dataclass(frozen=True)
class BoundaryFrame:
    """Boundary-fitted frame at a point: distance, normal, tangent, curvature.

    ``nu`` is the outward unit normal (``nu = -grad d``), ``tau_vec`` the
    counterclockwise tangent ``rot90(nu)``, ``h`` the curvature of the level
    set of ``d`` through the point, and ``p_boundary`` the closest boundary
    point ``x + d*nu``.  Fields broadcast with the query points.
    """

    d: np.ndarray
    nu: np.ndarray
    tau_vec: np.ndarray
    h: np.ndarray
    p_boundary: np.ndarray


def _check_inside(domain: DomainGeometry, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise GeometryError("points must have trailing dimension 2")
    if domain.is_disk:
        outside = np.hypot(x[..., 0], x[..., 1]) > 1.0 + _BOUNDARY_SLACK
    else:
        outside = (
            (x[..., 0] < -_BOUNDARY_SLACK)
            | (x[..., 0] > domain.width + _BOUNDARY_SLACK)
            | (x[..., 1] < -_BOUNDARY_SLACK)
            | (x[..., 1] > domain.height + _BOUNDARY_SLACK)
        )
    if np.any(outside):
        raise GeometryError("point lies outside the closed domain")
    return x


def distance_to_boundary(domain: DomainGeometry, x: np.ndarray) -> np.ndarray | float:
    """Distance from ``x`` to the domain boundary (``1 - |x|`` on the disk)."""
    x = _check_inside(domain, x)
    if domain.is_disk:
        d = 1.0 - np.hypot(x[..., 0], x[..., 1])
    else:
        d = np.minimum(
            np.minimum(x[..., 0], domain.width - x[..., 0]),
            np.minimum(x[..., 1], domain.height - x[..., 1]),
        )
    d = np.maximum(d, 0.0)
    return float(d) if d.ndim == 0 else d


def boundary_frame(domain: DomainGeometry, x: np.ndarray) -> BoundaryFrame:
    """Boundary frame at ``x``; disk only, undefined at the center.

    On the disk the frame is global away from the origin: ``nu = x/|x|``
    and the level-set curvature is ``1/|x|``.
    """
    if not domain.is_disk:
        raise GeometryError("boundary frames require a smooth boundary (unit disk)")
    x = _check_inside(domain, x)
    r = np.hypot(x[..., 0], x[..., 1])
    if np.any(r < 1e-14):
        raise GeometryError("boundary frame undefined at the disk center")
    nu = x / r[..., None]
    tau_vec = np.stack([-nu[..., 1], nu[..., 0]], axis=-1)
    d = 1.0 - r
    h = 1.0 / r
    p_boundary = x + d[..., None] * nu
    return BoundaryFrame(d=d, nu=nu, tau_vec=tau_vec, h=h, p_boundary=p_boundary)


def reflect_tau(domain: DomainGeometry, y: np.ndarray) -> np.ndarray:
    """Reflected image point ``tau(y) = y + (2d + h d^2) nu``.

    On the unit disk this is exactly the Kelvin image ``y/|y|^2``: with
    ``r = |y|``, ``r + 2(1-r) + (1-r)^2/r = 1/r``.  Points on the boundary
    are fixed; the center has no image direction and raises.
    """
    if not domain.is_disk:
        raise GeometryError("reflection requires a smooth boundary (unit disk)")
    y = _check_inside(domain, y)
    r2 = y[..., 0] ** 2 + y[..., 1] ** 2
    if np.any(r2 < 1e-28):
        raise GeometryError("reflection undefined at the disk center")
    return y / r2[..., None]


def smoothstep5(s):
    """Quintic smoothstep s^3 (10 - 15 s + 6 s^2) of s clipped to [0, 1]:
    0 for s <= 0, 1 for s >= 1, C^2 at both junctions.  The collar cutoff
    ``Z`` and the radial tapers of the test functions are 1 minus it."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def smoothstep5_d1(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4, 0.0)


def smoothstep5_d2(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 60.0 * s - 180.0 * s**2 + 120.0 * s**3, 0.0)
