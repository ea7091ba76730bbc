"""Conservative explicit solvers for the two regularized aggregation models.

Model A ("cutoff_flux") caps the advective density:

    u_t - Lap u + div(f_eps(u) grad v) = 0,   -Lap v = f_eps(u) - mean

with f_eps(u) = int_0^u min(1, (1/eps - s)_+) ds.  Model B
("nonlinear_diffusion") strengthens diffusion degenerately:

    u_t - Lap(u + eps u^{7/6}) + div(u grad v) = 0,   -Lap v = u - mean.

Both keep homogeneous Neumann walls, so the total mass is a telescoping
invariant of the finite-volume update (exact to rounding).  Two backends:

* rectangle, cell-centered 2D grid; the Poisson solve diagonalizes the
  discrete Neumann Laplacian in a cosine basis (exact for the stencil);
* unit disk under radial symmetry, non-uniform 1D grid in r with fluxes
  in (1/r)(r q)_r form; the Poisson solve is the cumulative quadrature
  r v'(r) = -int_0^r rhs s ds, and the step works with r v' itself.

Diffusive fluxes are central; advective fluxes first-order upwind on the
face velocities grad v, which with the CFL bound keeps u nonnegative.
``run`` and ``radial_run`` advance a state, both through one driver.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .geometry import DomainGeometry, rectangle, unit_disk

__all__ = [
    "Field",
    "RadialGrid",
    "RadialField",
    "RegKind",
    "SolverConfig",
    "Trajectory",
    "REPEATED_TIME",
    "SolverError",
    "CFLError",
    "f_eps",
    "solve_poisson_neumann",
    "radial_poisson_face_gradient",
    "diffusive_dt_limit",
    "run",
    "radial_run",
    "make_radial_grid",
    "initial_condition_rect",
    "initial_condition_radial",
    "initial_condition",
]


class SolverError(RuntimeError):
    pass


class CFLError(SolverError):
    def __init__(self, dt: float, dt_max: float):
        super().__init__(f"dt={dt} violates CFL; largest stable dt ~ {dt_max}")
        self.suggested_dt = dt_max


# ---------------------------------------------------------------------------
# fields and grids
# ---------------------------------------------------------------------------


@dataclass
class Field:
    """Cell-centered scalar on a rectangle; values[i, j] at ((i+.5)hx, (j+.5)hy)."""

    hx: float
    hy: float
    values: np.ndarray

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def domain(self) -> DomainGeometry:
        return rectangle(self.nx * self.hx, self.ny * self.hy)

    def like(self, values: np.ndarray) -> "Field":
        """A field on the same grid."""
        return Field(self.hx, self.hy, values)

    def integral(self, values: np.ndarray) -> float:
        """Domain integral of per-cell ``values`` (midpoint rule)."""
        return float(np.sum(values) * self.cell_area)

    def row_integrals(self, rows: np.ndarray) -> np.ndarray:
        """``integral`` of each row of a stack of per-cell values; each row is
        summed over its flattened cells, so row k equals
        ``integral(rows[k])`` bit for bit."""
        return rows.reshape(len(rows), -1).sum(axis=1) * self.cell_area

    def mass(self) -> float:
        return self.integral(self.values)

    def copy(self) -> "Field":
        return self.like(self.values.copy())

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates X, Y, each of the grid's shape."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Central differences d/dx, d/dy; zero on the first and last row
        (d/dx) and column (d/dy).  ``values`` may carry a leading stack axis."""
        vals = self.values
        gx = np.zeros_like(vals)
        gy = np.zeros_like(vals)
        gx[..., 1:-1, :] = (vals[..., 2:, :] - vals[..., :-2, :]) / (2 * self.hx)
        gy[..., 1:-1] = (vals[..., 2:] - vals[..., :-2]) / (2 * self.hy)
        return gx, gy


@dataclass(frozen=True)
class RadialGrid:
    """Non-uniform radial grid on [0, 1]; faces[0] = 0, faces[-1] = 1.

    The faces are copied and made read-only, so the metrics derived from
    them are computed once per grid and cannot go stale.
    """

    faces: np.ndarray

    def __post_init__(self) -> None:
        faces = np.array(self.faces, dtype=float)
        faces.setflags(write=False)
        object.__setattr__(self, "faces", faces)

    @property
    def n(self) -> int:
        return self.faces.size - 1

    @cached_property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.faces[1:] + self.faces[:-1])

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.faces)

    @cached_property
    def vol(self) -> np.ndarray:
        """Per-cell integral of r dr (multiply by 2*pi for area measure)."""
        return 0.5 * np.diff(self.faces**2)

    @cached_property
    def dcen(self) -> np.ndarray:
        """Center-to-center spacing across the interior faces."""
        return np.diff(self.centers)

    @cached_property
    def inv_vol(self) -> np.ndarray:
        """1 / vol (read-only)."""
        return _read_only(1.0 / self.vol)

    @cached_property
    def inner_vol(self) -> np.ndarray:
        """r^2 / 2 at the interior faces: the integral of r dr inside each
        (read-only)."""
        return _read_only(0.5 * self.faces[1:-1] ** 2)

    @cached_property
    def conductance(self) -> np.ndarray:
        """r / dcen at the interior faces: the diffusive face flux of unit
        coefficient per unit jump (read-only)."""
        return _read_only(self.faces[1:-1] / self.dcen)

    @cached_property
    def cell_areas(self) -> np.ndarray:
        """Disk area of each cell, 2 pi vol (read-only)."""
        return _read_only(2.0 * np.pi * self.vol)

    @cached_property
    def dual_areas(self) -> np.ndarray:
        """Disk area 2 pi r dcen of the dual cell around each interior face
        (read-only)."""
        return _read_only(2.0 * np.pi * self.faces[1:-1] * self.dcen)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_radial_grid(n: int = 4096, ratio: float = 1.0005) -> RadialGrid:
    """Geometric grid, finest at r = 0 (``ratio`` is the outward growth)."""
    if ratio == 1.0:
        faces = np.linspace(0.0, 1.0, n + 1)
    else:
        w0 = (ratio - 1.0) / (ratio**n - 1.0)
        widths = w0 * ratio ** np.arange(n)
        faces = np.concatenate([[0.0], np.cumsum(widths)])
        faces[-1] = 1.0
    return RadialGrid(faces=faces)


@dataclass
class RadialField:
    grid: RadialGrid
    values: np.ndarray

    @property
    def domain(self) -> DomainGeometry:
        return unit_disk()

    def like(self, values: np.ndarray) -> "RadialField":
        """A field on the same grid."""
        return RadialField(self.grid, values)

    def integral(self, values: np.ndarray) -> float:
        """Disk integral of per-cell ``values`` (exact r dr cell measures)."""
        return float(2.0 * np.pi * np.sum(values * self.grid.vol))

    def row_integrals(self, rows: np.ndarray) -> np.ndarray:
        """``integral`` of each row of a stack of per-cell values, bit for bit."""
        return 2.0 * np.pi * np.sum(rows * self.grid.vol, axis=1)

    @property
    def cell_area(self) -> np.ndarray:
        """Disk area of each cell (on the rectangle, ``cell_area`` is one float)."""
        return self.grid.cell_areas

    def mass(self) -> float:
        return self.integral(self.values)

    def copy(self) -> "RadialField":
        return self.like(self.values.copy())


# ---------------------------------------------------------------------------
# regularizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegKind:
    """Which regularization and its strength.

    ``epsilon == 0`` is admitted only for nonlinear_diffusion, where it
    degenerates to the unregularized scheme (used by the reduction test
    against a never-saturating cutoff run).
    """

    variant: str  # "cutoff_flux" | "nonlinear_diffusion"
    epsilon: float

    def __post_init__(self) -> None:
        if self.variant not in ("cutoff_flux", "nonlinear_diffusion"):
            raise ValueError(f"unknown regularization {self.variant!r}")
        if self.epsilon < 0.0 or (self.epsilon == 0.0 and self.variant == "cutoff_flux"):
            raise ValueError("epsilon must be positive (>= 0 only for nonlinear_diffusion)")

    @property
    def is_cutoff(self) -> bool:
        return self.variant == "cutoff_flux"

    @staticmethod
    def vacuum(u: np.ndarray, umin: float | None = None) -> np.ndarray:
        """``u`` with cells below zero (a step leaves them down to -positivity_tol)
        read as vacuum, 0; a state whose minimum, ``umin`` if known, is not
        negative comes back as itself."""
        return u if (u.min() if umin is None else umin) >= 0.0 else np.maximum(u, 0.0)

    def mobility(self, u: np.ndarray, bounds: tuple | None = None) -> np.ndarray:
        """The advected density and chemoattractant source of vacuum-read u:
        f_eps(u) under cutoff flux, else u.  ``bounds``, (min u, max u) if
        known, spares their passes; f_eps(u) == u exactly on [0, 1/eps - 1]."""
        umin, umax = bounds or (None, np.inf)
        u = self.vacuum(u, umin)
        return f_eps(u, self.epsilon) if self.is_cutoff and not umax <= 1.0 / self.epsilon - 1.0 else u

    def diffusion(self, u: np.ndarray) -> np.ndarray:
        """The density under the Laplacian of vacuum-read u: u under cutoff
        flux, u + eps u^{7/6} under nonlinear diffusion."""
        u = self.vacuum(u)
        return u if self.is_cutoff else u + self.epsilon * u ** (7.0 / 6.0)

    def companion(self, u: np.ndarray) -> np.ndarray:
        """The density whose ball mass is an atom's beta: f_eps(u) under
        cutoff flux, u + eps u^{7/6} under nonlinear diffusion."""
        return self.mobility(u) if self.is_cutoff else self.diffusion(u)


def f_eps(u, epsilon: float):
    """Saturating flux density: u below 1/eps - 1, then a parabolic bridge
    to the cap 1/eps - 1/2.  Monotone, f_eps(u) <= min(u, 1/eps)."""
    out = np.array(u, dtype=float, order="C")  # flat below is a view
    flat = out.reshape(-1)
    # a minimum >= 0 rules out negative cells and NaN in one pass
    if flat.size and not flat.min() >= 0.0 and np.any(flat < 0.0):
        raise ValueError("f_eps needs nonnegative input")
    # the bridge only past the knee 1/eps - 1 (NaN included), where a
    # collapsing run holds a few cells; elsewhere f_eps(u) = u.  The bridge
    # at min(u, 1/eps) is exactly the cap for u >= 1/eps.
    knee = (~(flat <= 1.0 / epsilon - 1.0)).nonzero()[0]
    if knee.size:
        top = np.minimum(flat[knee], 1.0 / epsilon)
        flat[knee] = (1.0 / epsilon - 0.5) - 0.5 * (1.0 / epsilon - top) ** 2
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Poisson solves
# ---------------------------------------------------------------------------


def solve_poisson_neumann(rhs: Field, scale: float | None = None) -> Field:
    """-Lap v = rhs with zero-flux walls, mean(v) = 0; cosine-basis exact solve.

    The caller must hand in a (numerically) mean-zero right side: its mean
    may not exceed ``1e-10 * scale``.  ``scale`` defaults to max|rhs|; a
    caller that has just subtracted the mean passes the magnitude before the
    subtraction, which bounds the rounding left in the mean (for a constant
    source the right side is nothing but that rounding).  ``rhs.values``
    may carry a leading stack axis: each row is solved, against one scale.
    """
    vals = rhs.values
    mean = np.max(np.abs(vals.mean(axis=(-2, -1))))
    if scale is None:
        scale = float(np.max(np.abs(vals))) or 1.0
    if mean > 1e-10 * scale + 1e-300:
        raise SolverError(f"rhs mean {mean} exceeds tolerance; subtract it first")
    import scipy.fft  # deferred: it pulls in scipy.special, and only rectangle runs need it

    # the forward transform reads the caller's rhs and returns a fresh
    # array, which the division and the inverse transform then reuse
    vhat = scipy.fft.dctn(vals, type=2, norm="ortho", axes=(-2, -1))
    vhat /= _poisson_eigenvalues(*vals.shape[-2:], rhs.hx, rhs.hy)
    vhat[..., 0, 0] = 0.0
    v = scipy.fft.idctn(vhat, type=2, norm="ortho", axes=(-2, -1), overwrite_x=True)
    return Field(rhs.hx, rhs.hy, v)


@lru_cache(maxsize=8)
def _poisson_eigenvalues(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of the discrete Neumann Laplacian in the cosine basis,
    with the constant mode's 0 replaced by 1; built once per grid, read-only."""
    kx = (2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)) / hx**2
    ky = (2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)) / hy**2
    lam = kx[:, None] + ky[None, :]
    lam[0, 0] = 1.0
    return _read_only(lam)


def radial_poisson_face_gradient(grid: RadialGrid, source: np.ndarray) -> tuple[float, np.ndarray]:
    """The disk mean h_t of ``source`` and G = r v' at the interior faces
    for -((r v')' / r) = source - h_t, v'(0) = 0.

    G(r_j) = h_t r_j^2 / 2 - (sum of source * vol over the cells inside
    r_j): one cumulative sum, no division.  At the wall G vanishes up to the
    rounding of h_t, and the step takes it as 0.
    """
    src = source * grid.vol
    h_t = float(2.0 * src.sum())  # disk mean (|disk| = pi)
    g = np.multiply(grid.inner_vol, h_t)
    g -= np.add.accumulate(src[:-1])  # np.cumsum's sums, with less call overhead
    return h_t, g


def radial_potential(grid: RadialGrid, g: np.ndarray) -> np.ndarray:
    """Cell values of v from G = r v' at the interior faces, disk mean
    removed.  ``g`` may carry a leading stack axis; each row of the result
    has the bits of the one-row call."""
    v = np.zeros((*g.shape[:-1], grid.n))
    # integrate center to center: v' dcen = G / (r / dcen)
    np.add.accumulate(g / grid.conductance, axis=-1, out=v[..., 1:])
    v -= 2.0 * np.sum(v * grid.vol, axis=-1, keepdims=True)  # subtract disk mean (|disk| = pi)
    return v


# ---------------------------------------------------------------------------
# configuration and trajectory
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _underflows(n: int, ratio: float) -> bool:
    """Whether ``make_radial_grid(n, ratio)`` underflows a cell's volume or spacing to 0
    (faces[1]^2 for ratio > 1, the outer widths for ratio < 1); built once per grid."""
    grid = make_radial_grid(n, ratio)
    return not (grid.vol.min() > 0.0 and grid.dcen.min() > 0.0)


@dataclass
class SolverConfig:
    # rectangle
    nx: int = 256
    ny: int = 256
    lx: float = 1.0
    ly: float = 1.0
    # radial disk
    radial_n: int = 4096
    radial_ratio: float = 1.0005
    # time stepping
    dt_policy: str = "cfl"  # "cfl" | "fixed"
    dt_fixed: float = 1e-6
    cfl_safety: float = 0.9
    t_end: float = 0.1
    dt_min: float = 1e-12
    max_steps: int = 50_000_000
    snapshot_dt: float | None = None
    # tolerances and stopping
    positivity_tol: ClassVar[float] = 1e-13  # a step may leave cells down to -positivity_tol
    flag_umax_factor: float = 0.8  # "concentrated" flag at max u > factor/eps
    stop_umax_factor: float = 16.0  # hard stop well past flux saturation
    advection: bool = True

    def __post_init__(self) -> None:
        for name in ("lx", "ly", "radial_n", "radial_ratio", "dt_fixed", "t_end", "snapshot_dt",
                     "flag_umax_factor", "stop_umax_factor"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # snapshot_dt may be None
                raise ValueError(f"{name} must be positive, got {value}")
        if not min(self.nx, self.ny) >= 2:  # the rectangle stencil needs an interior face each way
            raise ValueError(f"nx and ny must be at least 2, got {self.nx} x {self.ny}")
        if not self.radial_n >= 2:  # and so does the disk's
            raise ValueError(f"radial_n must be at least 2, got {self.radial_n}")
        try:
            underflows = _underflows(self.radial_n, self.radial_ratio)
        except OverflowError:
            raise ValueError(f"radial_ratio ** radial_n overflows: {self.radial_ratio} ** {self.radial_n}") from None
        if underflows:
            raise ValueError(f"radial_ratio ** radial_n underflows a cell to 0: {self.radial_ratio} ** {self.radial_n}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.dt_policy not in ("cfl", "fixed"):
            raise ValueError(f"dt_policy must be cfl or fixed, got {self.dt_policy!r}")


# A snapshot interval no longer than this is a repeated time (the flag and the
# snapshot clock fire on one step): a rate is 0 there, a time integral skips it.
REPEATED_TIME = 1e-14


@dataclass
class Trajectory:
    """Snapshots plus per-step diagnostics for one (regularization, eps) run;
    the analyses read the snapshots as one ``stack`` under one time rule."""

    backend: str
    reg: RegKind
    config: SolverConfig
    times: list
    snapshots: list  # value arrays at `times`
    diag: list  # per-step dict rows, row n the state before step n
    grid: RadialGrid | None = None
    hx: float | None = None
    hy: float | None = None
    concentrated: bool = False
    concentrated_time: float | None = None
    stop_reason: str = "t_end"
    failed: bool = False
    failure_message: str = ""

    def field_at(self, k: int):
        if self.backend == "radial":
            return RadialField(self.grid, self.snapshots[k])
        return Field(self.hx, self.hy, self.snapshots[k])

    def mass_series(self) -> np.ndarray:
        return np.asarray([row["mass"] for row in self.diag])

    def stack(self) -> np.ndarray:
        """The snapshots as one (T, cells) array, row k snapshot k flattened."""
        return np.stack(self.snapshots).reshape(len(self.snapshots), -1)

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint time and length of each interval between consecutive
        snapshots; a repeated time (``REPEATED_TIME``) has length 0."""
        t = np.asarray(self.times, dtype=float)
        return self.midpoints(t), np.where(np.diff(t) > REPEATED_TIME, np.diff(t), 0.0)

    def rate(self, series: np.ndarray) -> np.ndarray:
        """Difference quotients over the intervals of a series whose first
        axis runs over the snapshots; 0 on a repeated time."""
        dt = self.intervals()[1].reshape(-1, *(1,) * (np.ndim(series) - 1))
        return np.where(dt > 0.0, np.diff(series, axis=0) / np.where(dt > 0.0, dt, 1.0), 0.0)

    @staticmethod
    def midpoints(series: np.ndarray) -> np.ndarray:
        """Midpoint-rule values of a per-snapshot series on each interval."""
        return 0.5 * (series[1:] + series[:-1])


# ---------------------------------------------------------------------------
# stepping: one flux update over per-backend stencils
# ---------------------------------------------------------------------------


@dataclass
class _Faces:
    """Face data of one step, taken from the state before the update.  A
    stencil fills its one instance anew on every step, and the arrays it
    holds are the stencil's own: they are valid until its next step."""

    h_t: float  # mean of the chemoattractant source
    m: np.ndarray  # per-cell mobility; the values themselves wherever it equals them
    # per axis, the diffusive face data: on the rectangle the coefficient (the
    # scalar 1.0 for cutoff flux), on the disk the coefficient times r / dcen
    dc: tuple
    w: tuple  # per axis: grad v at the faces on the rectangle, r v' on the disk (zero without advection)
    # the potential as the diagnostics row keeps it (``cell_potential`` makes
    # v of it): v per cell on the rectangle, r v' at the interior faces on the
    # disk; None without advection
    v: np.ndarray | None = None


def _sides(axis: int, ndim: int) -> tuple:
    lo, hi = [slice(None)] * ndim, [slice(None)] * ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


class _Stencil:
    """Grid metrics of one backend and the explicit step built on them.

    ``axes`` lists, per direction, the (lower, upper) cell slices of its
    faces.  A subclass supplies the potential solve (``_solve``: the source
    mean, the face gradient and the potential as the diagnostics row keeps
    it), v per cell of a stack of kept potentials (``cell_potential``), the
    CFL rate and the conservative update ``apply``.  They, and the
    nonlinear face diffusion, work in arrays that the stencil keeps from
    step to step.
    """

    backend: str
    geometry: dict  # Trajectory fields that describe the grid
    axes: tuple

    def __init__(self, shape: tuple, unit_dc: tuple):
        # ``unit_dc``: per axis, the face diffusion data of coefficient 1
        self._div = np.empty(shape)  # the update's divergence
        self._unit_dc = unit_dc
        self._faces = _Faces(0.0, None, unit_dc, ())

    @cached_property
    def _dc(self) -> tuple:
        """Per axis, the face diffusion of nonlinear diffusion (made at its
        first step)."""
        return tuple(np.empty(self._div[lo].shape) for lo, *_ in self.axes)

    @cached_property
    def _still(self) -> tuple:
        """Per axis, the zero face gradient of a step without advection
        (made at its first step)."""
        return tuple(np.zeros(self._div[lo].shape) for lo, *_ in self.axes)

    def faces(self, vals: np.ndarray, reg: RegKind, advection: bool, bounds: tuple) -> _Faces:
        """Face data of the state ``vals`` whose (min, max) is ``bounds``;
        cells below zero are vacuum (``RegKind.vacuum``)."""
        f = self._faces
        f.m = f.v = None  # the last step's mobility and potential go before this step makes its own
        f.m = reg.mobility(vals, bounds)
        f.h_t, w, v = self._solve(f.m)
        f.w, f.v = (w, v) if advection else (self._still, None)
        # under nonlinear diffusion the mobility is u itself, vacuum read as 0
        f.dc = self._unit_dc if reg.is_cutoff else self._face_diffusion(f.m, reg.epsilon)
        return f

    def _face_diffusion(self, vals: np.ndarray, epsilon: float) -> tuple:
        """Per axis, 1 + eps (7/6) u^{1/6} at the face-mean u."""
        for (lo, hi, *_), dc in zip(self.axes, self._dc):
            np.add(vals[hi], vals[lo], out=dc)
            dc *= 0.5
            dc **= 1.0 / 6.0
            dc *= epsilon * (7.0 / 6.0)
            dc += 1.0
        return self._dc


def _abs_max(a: np.ndarray) -> float:
    """max|a| from the extremes, without an |a| array (NaN if a holds one)."""
    return max(float(a.max()), -float(a.min()))


class _RectStencil(_Stencil):
    backend = "rect"

    def __init__(self, u: Field):
        super().__init__(u.values.shape, (1.0, 1.0))
        self.hx, self.hy = u.hx, u.hy
        self.geometry = {"hx": u.hx, "hy": u.hy}
        self.axes = tuple((*_sides(a, 2), h) for a, h in enumerate((u.hx, u.hy)))
        # per axis the flux, the upwinded mobility and its mask (views of
        # three cell-sized buffers), and the lower and upper sides of the
        # divergence
        div = self._div
        buffers = (np.empty(div.size), np.empty(div.size), np.empty(div.size, dtype=bool))
        self._work = [
            (*(b[: div[lo].size].reshape(div[lo].shape) for b in buffers), div[lo], div[hi])
            for lo, hi, _ in self.axes
        ]
        self._w = tuple(np.empty(u.values[lo].shape) for lo, *_ in self.axes)
        self._rhs = np.empty(u.values.shape)  # the Poisson right side m - h_t

    def _solve(self, m):
        h_t = float(m.mean())
        rhs = Field(self.hx, self.hy, np.subtract(m, h_t, out=self._rhs))
        v = solve_poisson_neumann(rhs, scale=_abs_max(m)).values
        for (lo, hi, dist), wa in zip(self.axes, self._w):
            np.subtract(v[hi], v[lo], out=wa)
            wa /= dist
        return h_t, self._w, v

    @staticmethod
    def cell_potential(rows: np.ndarray) -> np.ndarray:
        """v per cell of a stack of kept potentials (``_Faces.v``)."""
        return rows

    def rate(self, f: _Faces) -> float:
        (dcx, dcy), (wx, wy) = f.dc, f.w
        dmax = max(float(np.max(dcx)), float(np.max(dcy)))
        rate = 2.0 * dmax / self.hx**2 + 2.0 * dmax / self.hy**2
        rate += 2.0 * _abs_max(wx) / self.hx
        rate += 2.0 * _abs_max(wy) / self.hy
        return rate

    def apply(self, vals: np.ndarray, f: _Faces, dt: float) -> None:
        """Conservative update: central diffusion, first-order upwind advection.

        The face flux is m_up w - dc (u_hi - u_lo) / h, with the mobility
        upwinded by the sign of w; negation and the order of the two terms
        are exact, so it has the bits of -dc (u_hi - u_lo) / h + m_up w.
        Both cells of a face measure h, so one quotient serves both sides.
        The first axis writes the divergence and the others add to it; as
        0 + x and 0 - x are exact, that has the bits of adding onto zeros.
        """
        div = self._div
        for k, ((lo, hi, h), (q, m_up, up, div_lo, div_hi), dc, w) in enumerate(
            zip(self.axes, self._work, f.dc, f.w)
        ):
            np.subtract(vals[hi], vals[lo], out=q)
            if not isinstance(dc, float):  # cutoff flux: the scalar 1.0
                q *= dc
            q /= h
            np.greater(w, 0.0, out=up)
            np.copyto(m_up, f.m[hi])
            np.copyto(m_up, f.m[lo], where=up)
            m_up *= w
            np.subtract(m_up, q, out=q)
            d = np.divide(q, h, out=m_up)
            if k == 0:
                div[0] = d[0]
                np.subtract(d[1:], d[:-1], out=div[1:-1])
                div[-1] = -d[-1]
            else:
                div_lo += d
                div_hi -= d
        div *= dt
        vals -= div


class _RadialStencil(_Stencil):
    """The disk step on quantities the grid fixes: the solve gives G = r v'
    at the interior faces, the face flux is F = m_up G - dc (r / dcen)
    (u_hi - u_lo), upwinded by the sign of G, and the face arrays hold 0 at
    both walls, so a cell's two faces are one difference of neighbours."""

    backend = "radial"

    def __init__(self, u: RadialField):
        grid = self.grid = u.grid
        # the diffusive face data of coefficient 1 is the conductance r / dcen
        super().__init__(u.values.shape, (grid.conductance,))
        self.geometry = {"grid": grid}
        self.axes = (_sides(0, 1),)
        self._flux = np.zeros(grid.n + 1)
        self._face_rate = np.zeros(grid.n + 1)
        self._m_up = np.empty(grid.n - 1)
        self._up = np.empty(grid.n - 1, dtype=bool)

    def _solve(self, m):
        # looked up on the module, so the benchmark's span sees the step's solve
        h_t, g = radial_poisson_face_gradient(self.grid, m)
        return h_t, (g,), g

    def cell_potential(self, rows: np.ndarray) -> np.ndarray:
        """v per cell of a stack of kept potentials (``_Faces.v``)."""
        return radial_potential(self.grid, rows)

    def _face_diffusion(self, vals: np.ndarray, epsilon: float) -> tuple:
        """The face coefficient 1 + eps (7/6) u^{1/6} times r / dcen."""
        (dc,) = super()._face_diffusion(vals, epsilon)
        dc *= self.grid.conductance
        return self._dc

    def rate(self, f: _Faces) -> float:
        """max over cells of (1 / vol) sum over the cell's faces of
        |G| + dc r / dcen (0 at the walls)."""
        fr, cell = self._face_rate, self._div  # the divergence is free until ``apply``
        np.abs(f.w[0], out=fr[1:-1])
        fr[1:-1] += f.dc[0]
        np.add(fr[1:], fr[:-1], out=cell)
        cell *= self.grid.inv_vol
        return float(cell.max())

    def apply(self, vals: np.ndarray, f: _Faces, dt: float) -> None:
        """Conservative update u -= dt (1 / vol) (F_hi - F_lo), no division."""
        flux, div, m_up, up = self._flux, self._div, self._m_up, self._up
        (g,), (k,) = f.w, f.dc
        q = flux[1:-1]
        np.subtract(vals[1:], vals[:-1], out=q)
        q *= k
        np.greater(g, 0.0, out=up)
        np.copyto(m_up, f.m[1:])
        np.copyto(m_up, f.m[:-1], where=up)
        m_up *= g
        np.subtract(m_up, q, out=q)
        np.subtract(flux[1:], flux[:-1], out=div)
        div *= self.grid.inv_vol
        div *= dt
        vals -= div


def _stencil(u: Field | RadialField) -> _Stencil:
    return _RectStencil(u) if isinstance(u, Field) else _RadialStencil(u)


def _dt_limit(safety: float, rate: float) -> float:
    return safety / rate if rate > 0 else np.inf


def _advance(vals: np.ndarray, t: float, reg: RegKind, stencil: _Stencil, config: SolverConfig, bounds: tuple,
             rows: "_DiagRows"):
    """Advance the state ``vals`` at time ``t`` in place by one explicit
    step; return the smallest cell value after the update and the step's dt.

    ``bounds`` is (min u, max u) of the state.  The step follows
    ``config.dt_policy``; None is returned, and nothing changes, when that
    step is shorter than ``dt_min``.  It is then clipped to ``t_end``, which
    the driver calls only while at least ``dt_min`` remains.  A dt above
    the stable limit raises ``CFLError``; a cell below ``-positivity_tol``
    after the update raises ``SolverError``.  ``rows`` takes the state
    before the update and, once the step has been taken, its dt.
    """
    f = stencil.faces(vals, reg, config.advection, bounds)
    rate = stencil.rate(f)
    dt_stable = _dt_limit(1.0, rate)
    dt = config.dt_fixed if config.dt_policy == "fixed" else _dt_limit(config.cfl_safety, rate)
    if dt > dt_stable:
        raise CFLError(dt, dt_stable)
    if dt < config.dt_min:
        return None
    dt = min(dt, config.t_end - t)
    rows.add(t, f, bounds)
    stencil.apply(vals, f, dt)
    umin = float(vals.min())
    if umin < -config.positivity_tol:
        raise SolverError(f"positivity lost: min u = {umin}")
    rows.commit(dt)
    return umin, dt


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------


def diffusive_dt_limit(domain: str, config: SolverConfig) -> float:
    """Largest stable explicit dt of pure diffusion (coefficient 1, no
    advection) on the grid that ``config`` sets for ``domain`` ("disk" or
    "rectangle"): a run's dt over it shows whether diffusion sets the step."""
    if domain == "disk":
        u = RadialField(make_radial_grid(config.radial_n, config.radial_ratio), np.zeros(config.radial_n))
    else:
        u = Field(config.lx / config.nx, config.ly / config.ny, np.zeros((config.nx, config.ny)))
    stencil = _stencil(u)
    f = _Faces(0.0, u.values, stencil._unit_dc, stencil._still)
    return _dt_limit(1.0, stencil.rate(f))


# Cells in one block of diagnostics rows: 8,192 float64 cells are 64 KiB,
# so each block array stays under glibc's 128 KiB mmap threshold.
_DIAG_BLOCK_CELLS = 8192
# Grids of at least this many cells compute their (one-row) blocks on a
# worker thread while the driver takes the next step.  On smaller grids the
# two threads pass the interpreter lock back and forth between array calls
# too short to hide the handoffs, and the run gets slower (on 2 vCPUs: rect
# 96^2 0.7 -> 0.8 ms/step, disk 16,384 cells 0.62 -> 0.74 ms/step; neutral
# at 32,768 cells; rect 256^2 4.4 -> 3.8 ms/step).
_DIAG_WORKER_CELLS = 32768


class _DiagRows:
    """The per-step diagnostics rows of one run, computed a block at a time.

    Row n is the state u_n at t_n, before step n updates it: ``add`` keeps
    the row's scalars and its potential (``_Faces.v``), and ``commit``,
    once the step is taken, its dt and the new state u_{n+1}.  A block of
    ``size`` rows keeps ``size + 1`` states, so each row's update
    u_{n+1} - u_n is the next state less its own, one subtraction for the
    block.  The run's first state is copied by the first ``add``; a full
    block's last state is the next block's first, and reversing the row
    order of the buffer puts it there without a copy.  A full block, and
    ``flush``, which computes the run's last rows, compute E
    (with u_n's own potential), D (the step's own energy rate), mass and
    int_u76 of the committed rows with one stacked ``diagnostics.entropy``
    call and append them to ``out``; a row begun by ``add`` but not
    committed is dropped.  A block holds max(1, _DIAG_BLOCK_CELLS // cells)
    rows, and each value has the bits of the one-state computation.

    On a grid of at least _DIAG_WORKER_CELLS cells the one-row block is
    computed on one worker thread, under the run's numpy error state, while
    the driver takes the next step.  The next ``add`` or ``flush`` waits for
    it before the block is overwritten and raises the row's error, if any.
    One block suffices, as a step on such a grid outlasts its row.
    ``close`` stops the worker.
    """

    def __init__(self, u: Field | RadialField, stencil: _Stencil, epsilon: float, out: list, diagnostics):
        self.u, self.stencil, self.epsilon, self.out = u, stencil, epsilon, out
        self.diagnostics = diagnostics  # ``entropy`` is looked up per call, so patches apply
        self.size = max(1, _DIAG_BLOCK_CELLS // u.values.size)
        self.pending = []  # (t, min_u, max_u, h_t, dt) of the committed rows not yet computed
        self.staged = None  # (t, min_u, max_u, h_t) of the row that ``add`` began
        self.ublock = self.vblock = self.dblock = None  # made on the first add
        self.overlap = u.values.size >= _DIAG_WORKER_CELLS
        self.worker = self.busy = None  # made on the first overlapped row; the row in flight

    def add(self, t: float, f: _Faces, bounds: tuple) -> None:
        self._wait()
        k = len(self.pending)
        if self.ublock is None:  # later rows' states are their previous rows' new states
            self.ublock = np.empty((self.size + 1, *self.u.values.shape))
            self.dblock = np.empty((self.size, *self.u.values.shape))
            if f.v is not None:
                self.vblock = np.empty((self.size, *f.v.shape))
            np.copyto(self.ublock[0], self.u.values)
        self.staged = (t, *bounds, f.h_t)
        if f.v is not None:
            np.copyto(self.vblock[k], f.v)

    def commit(self, dt: float) -> None:
        self.pending.append((*self.staged, dt))
        np.copyto(self.ublock[len(self.pending)], self.u.values)
        if len(self.pending) < self.size:
            return
        # the block's last state, u_{n+1}, is the next block's first
        states, self.ublock = self.ublock, self.ublock[::-1]
        if not self.overlap:
            self._compute(states)
            return
        if self.worker is None:
            from concurrent.futures import ThreadPoolExecutor  # deferred: only large grids need it

            self.worker = ThreadPoolExecutor(max_workers=1)
        # numpy's error state is per thread, so the row takes the run's along
        self.busy = self.worker.submit(self._compute_under, states, np.geterr())

    def flush(self) -> None:
        self._wait()
        if self.pending:
            self._compute(self.ublock)

    def close(self) -> None:
        """Stop the worker, after the row in flight, if any."""
        if self.worker is not None:
            self.worker.shutdown()
            self.worker = self.busy = None

    def _wait(self) -> None:
        busy, self.busy = self.busy, None
        if busy is not None:
            busy.result()

    def _compute_under(self, states: np.ndarray, errstate: dict) -> None:
        with np.errstate(**errstate):
            self._compute(states)

    def _compute(self, states: np.ndarray) -> None:
        k = len(self.pending)
        rows = states[:k]
        # each row's update over its own dt: the rate u_t of the step
        u_t = np.subtract(states[1 : k + 1], rows, out=self.dblock[:k])
        u_t /= np.array([row[-1] for row in self.pending]).reshape(-1, *(1,) * (u_t.ndim - 1))
        # without advection the free energy of the dynamics carries no potential term
        v = None if self.vblock is None else self.u.like(self.stencil.cell_potential(self.vblock[:k]))
        E, D, int_u76 = self.diagnostics.entropy(self.u.like(rows), v, self.epsilon, u_t)
        mass = self.u.row_integrals(rows)
        for (t, umin, umax, h_t, _), e, d, m, i76 in zip(
            self.pending, E.tolist(), D.tolist(), mass.tolist(), int_u76.tolist()
        ):
            self.out.append(
                {
                    "t": t,
                    "mass": m,
                    "min_u": umin,
                    "max_u": umax,
                    "entropy": e,
                    "dissipation": d,
                    "h_t": h_t,
                    "int_u76": i76,
                }
            )
        self.pending.clear()


def _run_driver(u0: Field | RadialField, reg: RegKind, config: SolverConfig) -> Trajectory:
    """Advance a copy of ``u0`` from t = 0 under ``config``: the one way a
    state is advanced."""
    from . import diagnostics as diag_mod

    u = u0.copy()
    vals, t = u.values, 0.0
    stencil = _stencil(u)
    traj = Trajectory(
        backend=stencil.backend, reg=reg, config=config, times=[], snapshots=[], diag=[], **stencil.geometry
    )
    rows = _DiagRows(u, stencil, reg.epsilon, traj.diag, diag_mod)

    def record_snapshot():
        traj.times.append(t)
        traj.snapshots.append(vals.copy())

    record_snapshot()
    eps = reg.epsilon
    flag_level = config.flag_umax_factor / eps if eps > 0 else np.inf
    stop_level = config.stop_umax_factor / eps if eps > 0 else np.inf
    next_snap = config.snapshot_dt or np.inf
    steps = 0
    bounds = (float(vals.min()), float(vals.max()))
    failure = None
    # one numeric policy for library and command-line runs: an overflow or
    # an invalid operation in a step, or in a diagnostics row (raised when
    # the row's block is computed; a row on the worker raises at the next
    # add or flush), is an error.  Closing the rows stops their worker on
    # every way out of the loop.
    with np.errstate(over="raise", invalid="raise"), closing(rows):
        try:
            # less than dt_min before t_end (fixed steps leave rounding
            # there) is the end of the run, not a dt_min stop
            while config.t_end - t >= max(config.dt_min, 1e-15) and steps < config.max_steps:
                advanced = _advance(vals, t, reg, stencil, config, bounds, rows)
                if advanced is None:
                    traj.stop_reason = "dt_min"
                    break
                umin, dt = advanced
                t += dt
                umax = float(vals.max())
                bounds = (umin, umax)
                steps += 1
                if not traj.concentrated and umax > flag_level:
                    traj.concentrated = True
                    traj.concentrated_time = t
                    record_snapshot()
                if t >= next_snap - 1e-15:
                    record_snapshot()
                    next_snap += config.snapshot_dt
                if umax > stop_level:
                    traj.stop_reason = "umax_stop"
                    break
            else:
                if steps >= config.max_steps:
                    traj.stop_reason = "max_steps"
        except SolverError as exc:
            failure = exc
        rows.flush()  # a failed run keeps every row before the failure
    if failure is not None:
        traj.failed = True
        traj.failure_message = str(failure)
        traj.stop_reason = "error"
    if traj.times[-1] != t:
        record_snapshot()
    return traj


def run(config: SolverConfig, reg: RegKind, u0: Field) -> Trajectory:
    """Rectangle run from the given initial field."""
    return _run_driver(u0, reg, config)


def radial_run(config: SolverConfig, reg: RegKind, u0: RadialField) -> Trajectory:
    """Radially symmetric disk run (1D reduction of the same flux form)."""
    return _run_driver(u0, reg, config)


# ---------------------------------------------------------------------------
# initial data catalog
# ---------------------------------------------------------------------------


def initial_condition_radial(grid: RadialGrid, kind: str, **params) -> RadialField:
    """Catalog entries: gaussian(mass, width), annulus(mass, r0, width),
    constant(value).  Profiles are normalized to the requested disk mass."""
    c = grid.centers
    if kind == "gaussian":
        width = params["width"]
        prof = np.exp(-(c**2) / (2.0 * width**2))
    elif kind == "annulus":
        r0, width = params["r0"], params["width"]
        prof = np.exp(-((c - r0) ** 2) / (2.0 * width**2))
    elif kind == "constant":
        f = RadialField(grid, np.full(grid.n, float(params["value"])))
        return f
    else:
        raise ValueError(f"unknown radial initial kind {kind!r}")
    f = RadialField(grid, prof)
    f.values *= params["mass"] / f.mass()
    return f


def initial_condition_rect(
    nx: int, ny: int, lx: float, ly: float, kind: str, **params
) -> Field:
    blank = Field(lx / nx, ly / ny, np.empty((nx, ny)))
    if kind == "constant":
        return blank.like(np.full((nx, ny), float(params["value"])))
    X, Y = blank.cell_centers()
    if kind == "gaussian":
        cx, cy = params.get("center", (lx / 2, ly / 2))
        w = params["width"]
        vals = np.exp(-(((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * w**2)))
    elif kind == "two_bump":
        (c1x, c1y), w1 = params["center1"], params["width1"]
        (c2x, c2y), w2 = params["center2"], params["width2"]
        vals = params.get("ratio", 1.0) * np.exp(
            -(((X - c1x) ** 2 + (Y - c1y) ** 2) / (2.0 * w1**2))
        ) + np.exp(-(((X - c2x) ** 2 + (Y - c2y) ** 2) / (2.0 * w2**2)))
    else:
        raise ValueError(f"unknown rectangle initial kind {kind!r}")
    f = blank.like(vals)
    f.values *= params["mass"] / f.mass()
    return f


def initial_condition(domain: str, config: SolverConfig, kind: str, params: dict) -> Field | RadialField:
    """Catalog state ``kind`` on the grid that ``config`` sets for ``domain``
    ("disk" or "rectangle"); rectangle centers come as ``<name>_x``, ``<name>_y``."""
    if domain == "disk":
        return initial_condition_radial(make_radial_grid(config.radial_n, config.radial_ratio), kind, **params)
    params = dict(params)
    for name in ("center", "center1", "center2"):
        cx = params.pop(f"{name}_x", None)
        cy = params.pop(f"{name}_y", None)
        if cx is not None:
            params[name] = (cx, cy if cy is not None else cx)
    return initial_condition_rect(config.nx, config.ny, config.lx, config.ly, kind, **params)
