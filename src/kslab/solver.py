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
  v'(r) = -(1/r) int_0^r rhs s ds.

Diffusive fluxes are central; advective fluxes first-order upwind on the
face velocities grad v, which with the CFL bound keeps u nonnegative.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import DomainGeometry, rectangle, unit_disk

__all__ = [
    "Field",
    "RadialGrid",
    "RadialField",
    "RegKind",
    "SolverConfig",
    "RunState",
    "Trajectory",
    "REPEATED_TIME",
    "SolverError",
    "CFLError",
    "f_eps",
    "solve_poisson_neumann",
    "radial_poisson_face_gradient",
    "step",
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
    def inv_dcen(self) -> np.ndarray:
        """1 / dcen: the diffusive face rate at unit coefficient (read-only)."""
        return _read_only(1.0 / self.dcen)

    @cached_property
    def neg_faces(self) -> np.ndarray:
        """-faces[1:]: the cumulative quadrature divides by it, as a / (-r)
        has the bits of -(a / r) (read-only)."""
        return _read_only(-self.faces[1:])

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


def radial_poisson_face_gradient(grid: RadialGrid, rhs: np.ndarray) -> np.ndarray:
    """v'(r) at the faces for -((r v')' / r) = rhs, v'(0) = 0.

    v'(r_j) = -(1/r_j) * sum of rhs * vol over cells inside r_j; the outer
    value vanishes exactly when the discrete disk mean of rhs is zero.
    """
    vr = np.empty(grid.faces.size)
    vr[0] = 0.0
    inner = vr[1:]  # faces[0] = 0 is the only face at the center
    np.multiply(rhs, grid.vol, out=inner)
    np.cumsum(inner, out=inner)
    np.divide(inner, grid.neg_faces, out=inner)
    return vr


def radial_potential(grid: RadialGrid, vr_faces: np.ndarray) -> np.ndarray:
    """Cell values of v from its face gradient, disk mean removed."""
    v = np.zeros(grid.n)
    # integrate center-to-center using interior-face slopes
    dv = vr_faces[1:-1] * grid.dcen
    v[1:] = np.cumsum(dv)
    v -= 2.0 * np.sum(v * grid.vol)  # subtract disk mean (|disk| = pi)
    return v


# ---------------------------------------------------------------------------
# configuration, state, trajectory
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
    positivity_tol: float = 1e-13
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


@dataclass
class RunState:
    u: Field | RadialField
    v: Field | RadialField | None
    t: float
    reg: RegKind


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
    diag: list  # per-step dict rows
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
    dc: tuple  # per axis: diffusion coefficient at the faces (the scalar 1.0 for cutoff flux)
    w: tuple  # per axis: face velocity grad v (zero without advection)
    v: object  # what the potential is built from (rect: v; radial: v' at all faces)


def _sides(axis: int, ndim: int) -> tuple:
    lo, hi = [slice(None)] * ndim, [slice(None)] * ndim
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


class _Stencil:
    """Grid metrics of one backend and the explicit step built on them.

    ``axes`` lists, per direction, the (lower, upper) cell slices of its
    faces, the center spacing across them, the face measure and the
    measures of the lower and upper cells; on the rectangle the face
    measure is the scalar 1.0 and both cells measure the one float h.  A
    subclass supplies the potential solve (``_solve``), the CFL rate and
    the potential field.  ``apply``, the nonlinear face diffusion, the
    rectangle's face gradient and the disk's CFL rate and source work in
    arrays that the stencil keeps from step to step.
    """

    backend: str
    geometry: dict  # Trajectory fields that describe the grid
    axes: tuple

    def _workspace(self, shape: tuple) -> None:
        """The arrays ``apply`` reuses: per axis the flux, the upwinded
        mobility and its mask (views of three cell-sized buffers), and the
        lower and upper sides of the divergence; and the one ``_Faces``."""
        div = self._div = np.empty(shape)
        buffers = (np.empty(div.size), np.empty(div.size), np.empty(div.size, dtype=bool))
        self._work = [
            (*(b[: div[lo].size].reshape(div[lo].shape) for b in buffers), div[lo], div[hi])
            for lo, hi, *_ in self.axes
        ]
        self._unit_dc = (1.0,) * len(self.axes)
        self._faces = _Faces(0.0, None, self._unit_dc, (), None)

    @cached_property
    def _dc(self) -> tuple:
        """Per axis, the face diffusion coefficient of nonlinear diffusion
        (made at its first step)."""
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
        f.h_t, f.v, w = self._solve(f.m)
        f.w = w if advection else self._still
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

    def apply(self, vals: np.ndarray, f: _Faces, dt: float) -> None:
        """Conservative update: central diffusion, first-order upwind advection.

        The face flux is face * (m_up w - dc (u_hi - u_lo) / dist), with the
        mobility upwinded by the sign of w; negation and the order of the two
        terms are exact, so it has the bits of -dc (u_hi - u_lo) / dist + m_up w.
        The first axis writes the divergence and the others add to it; as
        0 + x and 0 - x are exact, that has the bits of adding onto zeros.
        """
        div = self._div
        for k, ((lo, hi, dist, face, cell_lo, cell_hi), (q, m_up, up, div_lo, div_hi), dc, w) in enumerate(
            zip(self.axes, self._work, f.dc, f.w)
        ):
            np.subtract(vals[hi], vals[lo], out=q)
            if not isinstance(dc, float):  # cutoff flux: the scalar 1.0
                q *= dc
            q /= dist
            np.greater(w, 0.0, out=up)
            np.copyto(m_up, f.m[hi])
            np.copyto(m_up, f.m[lo], where=up)
            m_up *= w
            np.subtract(m_up, q, out=q)
            if not isinstance(face, float):  # rectangle: the scalar 1.0
                q *= face
            d = np.divide(q, cell_lo, out=m_up)
            # rectangle: both cells are the one h, so the quotient serves both sides
            e = d if cell_hi is cell_lo else np.divide(q, cell_hi, out=q)
            if k == 0:
                div[0] = d[0]
                np.subtract(d[1:], e[:-1], out=div[1:-1])
                div[-1] = -e[-1]
            else:
                div_lo += d
                div_hi -= e
        div *= dt
        vals -= div


def _abs_max(a: np.ndarray) -> float:
    """max|a| from the extremes, without an |a| array (NaN if a holds one)."""
    return max(float(a.max()), -float(a.min()))


class _RectStencil(_Stencil):
    backend = "rect"

    def __init__(self, u: Field):
        self.hx, self.hy = u.hx, u.hy
        self.geometry = {"hx": u.hx, "hy": u.hy}
        self.axes = tuple((*_sides(a, 2), h, 1.0, h, h) for a, h in enumerate((u.hx, u.hy)))
        self._workspace(u.values.shape)
        self._w = tuple(np.empty(u.values[lo].shape) for lo, *_ in self.axes)
        self._rhs = np.empty(u.values.shape)  # the Poisson right side m - h_t

    def _solve(self, m):
        h_t = float(m.mean())
        rhs = Field(self.hx, self.hy, np.subtract(m, h_t, out=self._rhs))
        v = solve_poisson_neumann(rhs, scale=_abs_max(m))
        for (lo, hi, dist, *_), wa in zip(self.axes, self._w):
            np.subtract(v.values[hi], v.values[lo], out=wa)
            wa /= dist
        return h_t, v, self._w

    def rate(self, f: _Faces) -> float:
        (dcx, dcy), (wx, wy) = f.dc, f.w
        dmax = max(float(np.max(dcx)), float(np.max(dcy)))
        rate = 2.0 * dmax / self.hx**2 + 2.0 * dmax / self.hy**2
        rate += 2.0 * _abs_max(wx) / self.hx
        rate += 2.0 * _abs_max(wy) / self.hy
        return rate

    def potential(self, f: _Faces) -> Field:
        return f.v


class _RadialStencil(_Stencil):
    backend = "radial"

    def __init__(self, u: RadialField):
        grid = self.grid = u.grid
        self.geometry = {"grid": grid}
        self.rf = grid.faces[1:-1]  # interior faces; the wall faces carry no flux
        self.axes = ((*_sides(0, 1), grid.dcen, self.rf, grid.vol[:-1], grid.vol[1:]),)
        self._workspace(u.values.shape)
        # the source of the Poisson solve, and the CFL rate per face and cell
        self._src = np.empty(grid.n)
        self._face_rate = np.empty(grid.n - 1)
        self._cell_rate = np.empty(grid.n)

    def _solve(self, m):
        src = self._src
        np.multiply(m, self.grid.vol, out=src)
        h_t = float(2.0 * src.sum())  # disk mean (|disk| = pi)
        vr = radial_poisson_face_gradient(self.grid, np.subtract(m, h_t, out=src))
        return h_t, vr, (vr[1:-1],)

    def rate(self, f: _Faces) -> float:
        grid, fr, cell = self.grid, self._face_rate, self._cell_rate
        dc = f.dc[0]
        np.abs(f.w[0], out=fr)
        # cutoff flux: dc is the scalar 1.0, and 1.0 / dcen is cached;
        # dc / dcen goes through the cell array, which is free until below
        fr += grid.inv_dcen if isinstance(dc, float) else np.divide(dc, grid.dcen, out=cell[:-1])
        fr *= self.rf
        # a wall cell has one face, an interior cell two
        cell[0], cell[-1] = fr[0], fr[-1]
        np.add(fr[1:], fr[:-1], out=cell[1:-1])
        cell /= grid.vol
        return float(cell.max())

    def potential(self, f: _Faces) -> RadialField:
        return RadialField(self.grid, radial_potential(self.grid, f.v))


def _stencil(u: Field | RadialField) -> _Stencil:
    return _RectStencil(u) if isinstance(u, Field) else _RadialStencil(u)


def _dt_limit(safety: float, rate: float) -> float:
    return safety / rate if rate > 0 else np.inf


def _advance(state: RunState, stencil: _Stencil, config: SolverConfig, bounds: tuple, dt: float | None = None):
    """Advance ``state`` by one explicit step; return its face data and the
    smallest cell value after the update.

    ``bounds`` is (min u, max u) of the state.  With ``dt=None`` the step
    follows ``config.dt_policy`` clipped to ``t_end``; then None is
    returned, and nothing changes, when that step is shorter than
    ``dt_min``.  A dt above the stable limit raises
    ``CFLError``; a cell below ``-positivity_tol`` after the update raises
    ``SolverError``.
    """
    vals = state.u.values
    f = stencil.faces(vals, state.reg, config.advection, bounds)
    rate = stencil.rate(f)
    dt_stable = _dt_limit(1.0, rate)
    policy = dt is None
    if policy:
        dt = config.dt_fixed if config.dt_policy == "fixed" else _dt_limit(config.cfl_safety, rate)
    if dt > dt_stable:
        raise CFLError(dt, dt_stable)
    if policy:
        dt = min(dt, config.t_end - state.t)
        if dt < config.dt_min:
            return None
    stencil.apply(vals, f, dt)
    umin = float(vals.min())
    if umin < -config.positivity_tol:
        raise SolverError(f"positivity lost: min u = {umin}")
    state.t += dt
    return f, umin


# ---------------------------------------------------------------------------
# public stepping and run drivers
# ---------------------------------------------------------------------------


def step(state: RunState, dt: float, config: SolverConfig | None = None) -> RunState:
    """Advance one explicit step of ``dt``; checks CFL and positivity.

    ``state.v`` becomes the potential of the state before the update, the
    one that drove the step.
    """
    stencil = _stencil(state.u)
    vals = state.u.values
    f, _ = _advance(state, stencil, config or SolverConfig(), (float(vals.min()), float(vals.max())), dt)
    state.v = stencil.potential(f)
    return state


def diffusive_dt_limit(domain: str, config: SolverConfig) -> float:
    """Largest stable explicit dt of pure diffusion (coefficient 1, no
    advection) on the grid that ``config`` sets for ``domain`` ("disk" or
    "rectangle"): a run's dt over it shows whether diffusion sets the step."""
    if domain == "disk":
        u = RadialField(make_radial_grid(config.radial_n, config.radial_ratio), np.zeros(config.radial_n))
    else:
        u = Field(config.lx / config.nx, config.ly / config.ny, np.zeros((config.nx, config.ny)))
    stencil = _stencil(u)
    f = _Faces(0.0, u.values, stencil._unit_dc, stencil._still, None)
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

    ``add`` keeps a step's scalars and copies u_{n+1} and the step's face
    gradient w_n into the block; a full block, and ``flush``, compute E, D,
    mass and int_u76 of the pending rows with one stacked
    ``diagnostics.entropy`` call and append the rows to ``out``.  A block
    holds max(1, _DIAG_BLOCK_CELLS // cells) rows, and each value has the
    bits of the one-state computation.

    On a grid of at least _DIAG_WORKER_CELLS cells the one-row block is
    computed on one worker thread, under the run's numpy error state, while
    the driver takes the next step.  The next ``add`` or ``flush`` waits for
    it before the block is overwritten and raises the row's error, if any.
    One block suffices, as a step on such a grid outlasts its row.
    ``close`` stops the worker.
    """

    def __init__(self, u: Field | RadialField, epsilon: float, out: list, diagnostics):
        self.u, self.epsilon, self.out = u, epsilon, out
        self.diagnostics = diagnostics  # ``entropy`` is looked up per call, so patches apply
        self.size = max(1, _DIAG_BLOCK_CELLS // u.values.size)
        self.pending = []  # (t, min_u, max_u, h_t) of the rows not yet computed
        self.ublock = self.wblock = None  # made on the first add
        self.overlap = u.values.size >= _DIAG_WORKER_CELLS
        self.worker = self.busy = None  # made on the first overlapped row; the row in flight

    def add(self, t: float, f: _Faces, umin: float, umax: float) -> None:
        self._wait()
        k = len(self.pending)
        self.pending.append((t, umin, umax, f.h_t))
        if self.ublock is None:
            self.ublock = np.empty((self.size, *self.u.values.shape))
            self.wblock = tuple(np.empty((self.size, *wa.shape)) for wa in f.w)
        np.copyto(self.ublock[k], self.u.values)
        for block, wa in zip(self.wblock, f.w):
            np.copyto(block[k], wa)
        if k + 1 < self.size:
            return
        if not self.overlap:
            self.flush()
            return
        if self.worker is None:
            from concurrent.futures import ThreadPoolExecutor  # deferred: only large grids need it

            self.worker = ThreadPoolExecutor(max_workers=1)
        # numpy's error state is per thread, so the row takes the run's along
        self.busy = self.worker.submit(self._compute_under, np.geterr())

    def flush(self) -> None:
        self._wait()
        if self.pending:
            self._compute()

    def close(self) -> None:
        """Stop the worker, after the row in flight, if any."""
        if self.worker is not None:
            self.worker.shutdown()
            self.worker = self.busy = None

    def _wait(self) -> None:
        busy, self.busy = self.busy, None
        if busy is not None:
            busy.result()

    def _compute_under(self, errstate: dict) -> None:
        with np.errstate(**errstate):
            self._compute()

    def _compute(self) -> None:
        k = len(self.pending)
        rows, w = self.ublock[:k], tuple(block[:k] for block in self.wblock)
        # the step's face gradient, zero with advection disabled: then the
        # free energy of the dynamics carries no potential term
        pair = self.diagnostics.entropy(self.u.like(rows), None, self.epsilon, w=w)
        E, D = pair
        int_u76 = pair.int_u76
        mass = self.u.row_integrals(rows)
        for (t, umin, umax, h_t), e, d, m, i76 in zip(
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


def _run_driver(state: RunState, config: SolverConfig) -> Trajectory:
    from . import diagnostics as diag_mod

    stencil = _stencil(state.u)
    traj = Trajectory(
        backend=stencil.backend, reg=state.reg, config=config, times=[], snapshots=[], diag=[], **stencil.geometry
    )
    rows = _DiagRows(state.u, state.reg.epsilon, traj.diag, diag_mod)

    def record_snapshot():
        traj.times.append(state.t)
        traj.snapshots.append(state.u.values.copy())

    record_snapshot()
    eps = state.reg.epsilon
    flag_level = config.flag_umax_factor / eps if eps > 0 else np.inf
    stop_level = config.stop_umax_factor / eps if eps > 0 else np.inf
    next_snap = state.t + (config.snapshot_dt or np.inf)
    steps = 0
    bounds = (float(state.u.values.min()), float(state.u.values.max()))
    failure = None
    # one numeric policy for library and command-line runs: an overflow or
    # an invalid operation in a step, or in a diagnostics row (raised when
    # the row's block is computed; a row on the worker raises at the next
    # add or flush), is an error.  Closing the rows stops their worker on
    # every way out of the loop.
    with np.errstate(over="raise", invalid="raise"), closing(rows):
        try:
            while state.t < config.t_end - 1e-15 and steps < config.max_steps:
                # ``faces`` holds the step's face arrays until the next step
                # replaces it; freeing them before the diagnostics lets the
                # allocator hand the pages back, and on 256^2 grids the page
                # faults that follow cost more than the memory.
                advanced = _advance(state, stencil, config, bounds)
                if advanced is None:
                    traj.stop_reason = "dt_min"
                    break
                faces, umin = advanced
                umax = float(state.u.values.max())
                bounds = (umin, umax)
                rows.add(state.t, faces, umin, umax)
                steps += 1
                if not traj.concentrated and umax > flag_level:
                    traj.concentrated = True
                    traj.concentrated_time = state.t
                    record_snapshot()
                if state.t >= next_snap - 1e-15:
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
    if not traj.times or traj.times[-1] != state.t:
        record_snapshot()
    return traj


def run(config: SolverConfig, reg: RegKind, u0: Field) -> Trajectory:
    """Rectangle run from the given initial field."""
    state = RunState(u=u0.copy(), v=None, t=0.0, reg=reg)
    return _run_driver(state, config)


def radial_run(config: SolverConfig, reg: RegKind, u0: RadialField) -> Trajectory:
    """Radially symmetric disk run (1D reduction of the same flux form)."""
    state = RunState(u=u0.copy(), v=None, t=0.0, reg=reg)
    return _run_driver(state, config)


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
