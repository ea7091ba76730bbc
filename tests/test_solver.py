import dataclasses
import threading

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from kslab import solver as S


# --------------------------------------------------------------------------
# regularization primitives, with quadrature oracles
# --------------------------------------------------------------------------


def f_eps_quadrature(u, eps):
    val, _ = scipy.integrate.quad(lambda s: min(1.0, max(1.0 / eps - s, 0.0)), 0.0, u)
    return val


def test_f_eps_examples():
    assert S.f_eps(5.0, 0.1) == 5.0
    assert S.f_eps(100.0, 0.1) == pytest.approx(f_eps_quadrature(100.0, 0.1))
    assert S.f_eps(100.0, 0.1) == pytest.approx(9.5)
    assert S.f_eps(9.5, 0.1) == pytest.approx(f_eps_quadrature(9.5, 0.1))
    assert S.f_eps(9.5, 0.1) == pytest.approx(9.375)


def test_f_eps_rejects_negative():
    with pytest.raises(ValueError):
        S.f_eps(-1.0, 0.1)


@given(st.floats(0, 200), st.floats(0.01, 0.5))
@settings(max_examples=150, deadline=None)
def test_f_eps_bounds(u, eps):
    v = S.f_eps(u, eps)
    assert v <= u + 1e-12
    assert v <= 1.0 / eps
    assert S.f_eps(u + 1.0, eps) >= v - 1e-12  # monotone


def _f_eps_three_branch(u, eps):
    """f_eps as one formula over every cell: u below the knee, the cap from
    1/eps on, the parabolic bridge between (and at NaN)."""
    u = np.asarray(u, dtype=float)
    cap = 1.0 / eps - 0.5
    bridge = cap - 0.5 * (1.0 / eps - u) ** 2
    return np.where(u <= 1.0 / eps - 1.0, u, np.where(u >= 1.0 / eps, cap, bridge))


@st.composite
def f_eps_inputs(draw):
    eps = draw(st.sampled_from([1e-4, 3e-3, 1e-2, 0.1, 0.3, 0.5, 1.0]))
    knee, top = 1.0 / eps - 1.0, 1.0 / eps
    marks = [0.0, knee, top, 1.0 / eps - 0.5, np.nan, np.inf]
    marks += [np.nextafter(x, d) for x in (knee, top) for d in (0.0, np.inf)]
    cell = st.one_of(st.sampled_from(marks), st.floats(0.0, 3.0 / eps), st.floats(0.0, 2.0 * knee + 1.0))
    shape = draw(st.sampled_from([(), (1,), (17,), (5, 7), (3, 0)]))
    u = np.array(draw(st.lists(cell, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))), dtype=float)
    u = u.reshape(shape)
    if u.ndim == 2 and draw(st.booleans()):
        u = u.T  # not C-contiguous
    return u, eps


@given(f_eps_inputs())
@settings(max_examples=300, deadline=None)
def test_f_eps_past_the_knee_only_matches_three_branch_formula(case):
    u, eps = case
    got = S.f_eps(u, eps)
    want = _f_eps_three_branch(u, eps)
    assert np.asarray(got).shape == want.shape
    assert np.asarray(got, dtype=float).tobytes() == want.tobytes()
    assert type(got) is (float if u.ndim == 0 else np.ndarray)


def test_reg_kind_validation():
    with pytest.raises(ValueError):
        S.RegKind("cutoff_flux", 0.0)
    with pytest.raises(ValueError):
        S.RegKind("bogus", 0.1)
    S.RegKind("nonlinear_diffusion", 0.0)  # degenerate case admitted


# --------------------------------------------------------------------------
# Poisson solves
# --------------------------------------------------------------------------


def test_poisson_zero_rhs():
    f = S.Field(0.1, 0.1, np.zeros((16, 16)))
    v = S.solve_poisson_neumann(f)
    assert np.allclose(v.values, 0.0)


def test_poisson_eigenfunction():
    n = 128
    h = np.pi / n
    x = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    rhs = S.Field(h, h, np.cos(X) * np.cos(Y))
    v = S.solve_poisson_neumann(rhs)
    assert np.max(np.abs(v.values - rhs.values / 2.0)) < 5e-5  # O(h^2)


def test_poisson_discrete_residual_and_mean():
    rng = np.random.default_rng(5)
    n = 32
    h = 1.0 / n
    vals = rng.normal(size=(n, n))
    vals -= vals.mean()
    v = S.solve_poisson_neumann(S.Field(h, h, vals))
    assert abs(v.values.mean()) < 1e-13
    # discrete Neumann Laplacian applied back
    p = np.pad(v.values, 1, mode="edge")
    lap = (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4 * p[1:-1, 1:-1]) / h**2
    assert np.max(np.abs(-lap - vals)) < 1e-10


def _reference_poisson(rhs, hx, hy):
    """The cosine-basis Neumann solve, written out: divide the DCT by the
    eigenvalues of the discrete Laplacian, drop the constant mode."""
    nx, ny = rhs.shape
    kx = (2.0 - 2.0 * np.cos(np.pi * np.arange(nx) / nx)) / hx**2
    ky = (2.0 - 2.0 * np.cos(np.pi * np.arange(ny) / ny)) / hy**2
    lam = kx[:, None] + ky[None, :]
    lam[0, 0] = 1.0
    vhat = scipy.fft.dctn(rhs, type=2, norm="ortho") / lam
    vhat[0, 0] = 0.0
    return scipy.fft.idctn(vhat, type=2, norm="ortho")


@pytest.mark.parametrize("nx,ny", [(256, 256), (37, 64), (2, 3)])
def test_poisson_leaves_rhs_unchanged(nx, ny):
    vals = np.random.default_rng(nx * ny).normal(size=(nx, ny))
    vals -= vals.mean()
    rhs = S.Field(1.0 / nx, 2.0 / ny, vals)
    before = vals.copy()
    v = S.solve_poisson_neumann(rhs)
    assert rhs.values.tobytes() == before.tobytes()
    assert v.values.tobytes() == _reference_poisson(before, rhs.hx, rhs.hy).tobytes()


def test_poisson_rejects_nonzero_mean():
    with pytest.raises(S.SolverError):
        S.solve_poisson_neumann(S.Field(0.1, 0.1, np.ones((8, 8))))


def test_radial_poisson_piecewise_oracle():
    # source indicator(r < rho): v'(r) of it less its disk mean integrates by hand
    grid = S.make_radial_grid(1024, 1.0)
    rho = 0.4
    ind = np.where(grid.centers < rho, 1.0, 0.0)
    mean, g = S.radial_poisson_face_gradient(grid, ind)
    assert mean == float(2.0 * np.sum(ind * grid.vol))  # discrete disk mean
    r = grid.faces[1:-1]
    exact = np.where(r < rho, -(1 - mean) * r / 2, -(rho**2 / r - mean * r) / 2)
    assert np.max(np.abs(g / r - exact)) < 2e-3  # cell rasterization of the jump
    # G at the wall (r = 1, r^2/2 = 1/2): the returned G carried on through
    # the last cell, as the solve's running sum would; the step takes it as 0
    g_wall = g[-1] + mean * (0.5 - grid.inner_vol[-1]) - ind[-1] * grid.vol[-1]
    assert abs(g_wall) < 1e-14
    assert abs(0.5 * mean - np.cumsum(ind * grid.vol)[-1]) < 1e-14


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------


def test_constant_state_is_steady():
    u0 = S.initial_condition_rect(32, 32, 1.0, 1.0, "constant", value=2.0)
    traj = S.run(S.SolverConfig(t_end=1e-3), S.RegKind("cutoff_flux", 0.1), u0)
    assert not traj.failed
    assert np.max(np.abs(traj.snapshots[-1] - 2.0)) == 0.0


@pytest.mark.parametrize("variant,eps", [("cutoff_flux", 1e-2), ("nonlinear_diffusion", 1e-2)])
def test_mass_conservation_rect(variant, eps):
    u0 = S.initial_condition_rect(64, 64, 1.0, 1.0, "gaussian", mass=4.0, width=0.1)
    traj = S.run(S.SolverConfig(t_end=2e-3), S.RegKind(variant, eps), u0)
    assert not traj.failed
    m = traj.mass_series()
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-12
    assert min(r["min_u"] for r in traj.diag) >= -1e-13


def test_mass_conservation_radial():
    grid = S.make_radial_grid(512, 1.0005)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=4 * np.pi, width=0.2)
    traj = S.radial_run(
        S.SolverConfig(t_end=2e-3), S.RegKind("nonlinear_diffusion", 1e-3), u0
    )
    m = traj.mass_series()
    assert np.max(np.abs(m - m[0])) / m[0] <= 1e-12
    assert min(r["min_u"] for r in traj.diag) >= -1e-13


def _drive(u0):
    return S.radial_run if isinstance(u0, S.RadialField) else S.run


def test_cfl_error_reports_suggestion():
    # a fixed dt above the stable limit ends the run before its first step;
    # the stable dt that CFLError names is, bit for bit, the dt of a
    # cfl_safety = 1 step
    for u0 in (
        S.initial_condition_radial(S.make_radial_grid(128, 1.005), "gaussian", mass=30.0, width=0.1),
        S.initial_condition_rect(24, 20, 1.0, 1.0, "gaussian", mass=30.0, width=0.1),
    ):
        for reg in (S.RegKind("cutoff_flux", 1e-2), S.RegKind("nonlinear_diffusion", 1e-2)):
            one = _drive(u0)(S.SolverConfig(t_end=1.0, cfl_safety=1.0, max_steps=1), reg, u0)
            assert not one.failed and len(one.diag) == 1 and one.diag[0]["t"] == 0.0
            dt = one.times[-1]
            assert dt < 1.0 and dt == _stable_dt(u0, reg)
            traj = _drive(u0)(S.SolverConfig(t_end=1.0, dt_policy="fixed", dt_fixed=1.0), reg, u0)
            assert traj.failed and traj.stop_reason == "error" and traj.diag == []
            message = str(S.CFLError(1.0, dt))
            assert traj.failure_message == message == f"dt=1.0 violates CFL; largest stable dt ~ {dt!r}"
            assert traj.snapshots[-1].tobytes() == u0.values.tobytes()


def test_cfl_step_below_dt_min_stops_the_run():
    # the stable dt of this collapse falls from 1.9e-5 to 1.5e-5: with
    # dt_min between the two, the run stops on dt_min before t_end (a fixed
    # dt that reaches t_end to rounding ends t_end: test_cli.py)
    u0 = S.initial_condition_radial(S.make_radial_grid(128, 1.0), "gaussian", mass=12 * np.pi, width=0.05)
    reg = S.RegKind("cutoff_flux", 1e-4)
    cfg = S.SolverConfig(t_end=1e-2, stop_umax_factor=1e30)
    free = S.radial_run(cfg, reg, u0)
    stopped = S.radial_run(dataclasses.replace(cfg, dt_min=1.7e-5), reg, u0)
    assert free.stop_reason == "t_end" and stopped.stop_reason == "dt_min"
    assert 0 < len(stopped.diag) < len(free.diag) and stopped.times[-1] < 1e-2
    assert stopped.diag == free.diag[: len(stopped.diag)]


def test_zero_time_run_returns_initial():
    u0 = S.initial_condition_rect(16, 16, 1.0, 1.0, "gaussian", mass=1.0, width=0.2)
    cfg = S.SolverConfig(t_end=1e-12, dt_min=1e-15)
    traj = S.run(cfg, S.RegKind("cutoff_flux", 0.1), u0)
    assert np.allclose(traj.snapshots[0], u0.values)


def test_second_moment_rate_pure_diffusion():
    # heat flow: d/dt int |x-c|^2 u = 4 mass, exactly for the 5-point stencil
    u0 = S.initial_condition_rect(96, 96, 2.0, 2.0, "gaussian", mass=3.0, width=0.1, center=(1, 1))
    cfg = S.SolverConfig(t_end=1e-3, advection=False, snapshot_dt=2.5e-4)
    traj = S.run(cfg, S.RegKind("cutoff_flux", 1e-3), u0)
    h = traj.hx
    x = (np.arange(96) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    m2 = [float(np.sum(((X - 1) ** 2 + (Y - 1) ** 2) * s) * h * h) for s in traj.snapshots]
    rates = np.diff(m2) / np.diff(traj.times)
    assert np.allclose(rates, 4.0 * 3.0, rtol=1e-10)


def test_regularizations_reduce_to_common_scheme():
    # never-saturating cutoff vs diffusion correction disabled: bit-comparable
    u0 = S.initial_condition_rect(48, 48, 1.0, 1.0, "gaussian", mass=2.0, width=0.12)
    cfg = S.SolverConfig(t_end=1e-3)
    t1 = S.run(cfg, S.RegKind("cutoff_flux", 1e-4), u0)
    t2 = S.run(cfg, S.RegKind("nonlinear_diffusion", 0.0), u0)
    assert np.max(np.abs(t1.snapshots[-1] - t2.snapshots[-1])) <= 1e-10


def test_epsilon_consistency_subcritical():
    # identical smooth subcritical data: solutions agree to O(eps) in L1
    grid = S.make_radial_grid(384, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.2)
    cfg = S.SolverConfig(t_end=5e-3)
    fields = {}
    for eps in (2e-2, 1e-2, 5e-3):
        traj = S.radial_run(cfg, S.RegKind("nonlinear_diffusion", eps), u0)
        fields[eps] = traj.snapshots[-1]
    vol = 2 * np.pi * grid.vol
    d21 = float(np.sum(np.abs(fields[2e-2] - fields[5e-3]) * vol))
    d11 = float(np.sum(np.abs(fields[1e-2] - fields[5e-3]) * vol))
    C2 = d21 / 2e-2
    C1 = d11 / 1e-2
    assert 0.2 < C1 / C2 < 5.0  # O(eps) consistency with a stable constant


def test_elliptic_solve_invariants_along_run():
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.25)
    traj = S.radial_run(
        S.SolverConfig(t_end=1e-3), S.RegKind("cutoff_flux", 1e-2), u0
    )
    # recompute the last potential: disk mean of v vanishes
    state_u = traj.field_at(len(traj.times) - 1)
    src = S.f_eps(state_u.values, 1e-2)
    h_t, g = S.radial_poisson_face_gradient(grid, src)
    v = S.radial_potential(grid, g)
    assert abs(2.0 * np.sum(v * grid.vol)) <= 1e-13
    # G at the wall, the returned G carried on through the last cell as the
    # solve's running sum would, is rounding: the step's zero wall flux drops
    # nothing
    g_wall = g[-1] + h_t * (0.5 - grid.inner_vol[-1]) - src[-1] * grid.vol[-1]
    assert abs(g_wall) <= 1e-12
    assert abs(0.5 * h_t - np.cumsum(src * grid.vol)[-1]) <= 1e-12


def test_snapshot_cadence_and_flag():
    grid = S.make_radial_grid(384, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=12 * np.pi, width=0.05)
    cfg = S.SolverConfig(t_end=5e-3, snapshot_dt=5e-4, stop_umax_factor=16.0)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 3e-4), u0)
    assert traj.concentrated
    assert traj.concentrated_time is not None
    assert traj.stop_reason in ("umax_stop", "t_end")
    assert len(traj.times) >= 3


def test_run_applies_numeric_error_policy(monkeypatch):
    # inside the step loop an overflow or invalid operation raises, for
    # library and command-line runs alike; the caller's numpy state is
    # left as it was.  The rows are computed in blocks, so one ``entropy``
    # call may cover several rows (its states carry a leading row axis);
    # on a 256^2 rectangle each row is computed on a worker thread, whose
    # numpy state is its own.
    from kslab import diagnostics

    seen = []
    entropy = diagnostics.entropy

    def spy(u, *args, **kwargs):
        seen.append((np.geterr(), len(u.values), threading.get_ident()))
        return entropy(u, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "entropy", spy)
    before, threads = np.geterr(), threading.active_count()
    cfg, reg = S.SolverConfig(t_end=1.0, max_steps=3), S.RegKind("cutoff_flux", 1e-2)
    disk = S.initial_condition_radial(S.make_radial_grid(32, 1.0), "gaussian", mass=4.0, width=0.2)
    rect = S.initial_condition_rect(256, 256, 1.0, 1.0, "gaussian", mass=4.0, width=0.2)
    for drive, u0, on_worker in ((S.radial_run, disk, False), (S.run, rect, True)):
        seen.clear()
        traj = drive(cfg, reg, u0)
        assert sum(rows for _, rows, _ in seen) == len(traj.diag) == 3
        assert all(e["over"] == "raise" and e["invalid"] == "raise" for e, _, _ in seen)
        assert all((ident != threading.get_ident()) == on_worker for _, _, ident in seen)
        assert np.geterr() == before and threading.active_count() == threads


# --------------------------------------------------------------------------
# invariants over random grids, initial data and regularizations
# --------------------------------------------------------------------------

regs = st.builds(S.RegKind, st.sampled_from(["cutoff_flux", "nonlinear_diffusion"]), st.sampled_from([1e-2, 1e-3]))
masses = st.floats(1.0, 40.0)
widths = st.floats(0.05, 0.3)


@st.composite
def radial_initial(draw):
    grid = S.make_radial_grid(draw(st.integers(16, 256)), draw(st.floats(1.0, 1.01)))
    kind = draw(st.sampled_from(["gaussian", "annulus", "constant"]))
    if kind == "gaussian":
        return S.initial_condition_radial(grid, kind, mass=draw(masses), width=draw(widths))
    if kind == "annulus":
        return S.initial_condition_radial(grid, kind, mass=draw(masses), r0=draw(st.floats(0.2, 0.8)), width=draw(widths))
    return S.initial_condition_radial(grid, kind, value=draw(st.floats(0.1, 10.0)))


@st.composite
def rect_initial(draw):
    nx, ny = draw(st.integers(8, 48)), draw(st.integers(8, 48))
    kind = draw(st.sampled_from(["gaussian", "two_bump", "constant"]))
    centers = st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8))
    if kind == "gaussian":
        params = dict(mass=draw(masses), width=draw(widths), center=draw(centers))
    elif kind == "two_bump":
        params = dict(
            mass=draw(masses), center1=draw(centers), width1=draw(widths), center2=draw(centers), width2=draw(widths)
        )
    else:
        params = dict(value=draw(st.floats(0.1, 10.0)))
    return S.initial_condition_rect(nx, ny, 1.0, 1.0, kind, **params)


def _check_invariants_and_replay(u0, reg):
    # cfl_safety = 1 makes the driver's dt the stable dt that CFLError
    # reports; a snapshot after every step, and the flag, which would record
    # a step twice, out of reach
    cfg = S.SolverConfig(t_end=1.0, cfl_safety=1.0, max_steps=20, snapshot_dt=1e-300, flag_umax_factor=1e30)
    drive = _drive(u0)
    traj = drive(cfg, reg, u0)
    assert not traj.failed, traj.failure_message
    m0 = u0.mass()
    assert np.max(np.abs(traj.mass_series() - m0)) / m0 <= 1e-12
    assert min(row["min_u"] for row in traj.diag) >= -cfg.positivity_tol

    # a one-step run from snapshot k takes step k: the same dt, the same
    # bits; row k is snapshot k, its entropy that of the state with its own
    # potential, its dissipation the step's own energy rate
    assert len(traj.snapshots) == len(traj.diag) + 1
    one = dataclasses.replace(cfg, max_steps=1)
    for k, row in enumerate(traj.diag):
        step = drive(one, reg, u0.like(traj.snapshots[k]))
        dt = step.times[-1]
        assert row["t"] == traj.times[k] and traj.times[k] + dt == traj.times[k + 1]
        assert step.snapshots[-1].tobytes() == traj.snapshots[k + 1].tobytes()
        assert step.diag == [dict(row, t=0.0)]
        _assert_row_is_its_state(row, u0.like(traj.snapshots[k]), u0.like(traj.snapshots[k + 1]), dt, reg)


def _own_potential(u, reg):
    """v of the state u, solved as the step solves it."""
    m = reg.mobility(u.values)
    if isinstance(u, S.RadialField):
        return u.like(S.radial_potential(u.grid, S.radial_poisson_face_gradient(u.grid, m)[1]))
    return u.like(S.solve_poisson_neumann(u.like(m - float(m.mean())), scale=float(np.max(np.abs(m)))).values)


def _assert_row_is_its_state(row, u, u_next, dt, reg):
    """The row's entropy, dissipation and int_u76 have the bits of the
    one-state ``entropy`` of ``u`` with its own potential, along the step's
    rate (u_next - u) / dt."""
    from kslab import diagnostics as D

    want = D.entropy(u, _own_potential(u, reg), reg.epsilon, (u_next.values - u.values) / dt)
    assert (row["entropy"], row["dissipation"], row["int_u76"]) == want


# the row/state pairing that rows computed after the update got wrong: the
# row's entropy differed by 5.2e-5 from its state's on the 64^2 case
@given(radial_initial(), regs)
@example(
    S.initial_condition_radial(S.make_radial_grid(128, 1.0), "gaussian", mass=30.0, width=0.08),
    S.RegKind("cutoff_flux", 1e-3),
)
@settings(max_examples=100, deadline=None)
def test_radial_invariants_and_step_replay(u0, reg):
    _check_invariants_and_replay(u0, reg)


@given(rect_initial(), regs)
@example(S.initial_condition_rect(64, 64, 1.0, 1.0, "gaussian", mass=30.0, width=0.08), S.RegKind("cutoff_flux", 1e-3))
@settings(max_examples=100, deadline=None)
def test_rect_invariants_and_step_replay(u0, reg):
    _check_invariants_and_replay(u0, reg)


@given(st.integers(2, 24), st.integers(2, 24), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_field_gradient_matches_inline_central_differences(nx, ny, hx, hy, seed):
    vals = np.random.default_rng(seed).normal(size=(nx, ny))
    gx, gy = S.Field(hx, hy, vals).gradient()
    ref_x, ref_y = np.zeros_like(vals), np.zeros_like(vals)
    ref_x[1:-1, :] = (vals[2:, :] - vals[:-2, :]) / (2 * hx)
    ref_y[:, 1:-1] = (vals[:, 2:] - vals[:, :-2]) / (2 * hy)
    assert gx.tobytes() == ref_x.tobytes() and gy.tobytes() == ref_y.tobytes()


def _rect_faces(vals, reg, advection, hx, hy):
    """The mobility, source mean and potential of a rectangle state and, per
    axis, the lower and upper cell slices, the face gradient w, the
    diffusion coefficient dc at the faces and the spacing h."""
    m = S.f_eps(vals, reg.epsilon) if reg.is_cutoff else vals
    h_t = float(m.mean())
    v = _reference_poisson(m - h_t, hx, hy)
    axes = []
    for lo, hi, h in (
        ((slice(None, -1), slice(None)), (slice(1, None), slice(None)), hx),
        ((slice(None), slice(None, -1)), (slice(None), slice(1, None)), hy),
    ):
        w = (v[hi] - v[lo]) / h if advection else np.zeros_like(v[lo])
        dc = 1.0 if reg.is_cutoff else 1.0 + reg.epsilon * (7.0 / 6.0) * (0.5 * (vals[hi] + vals[lo])) ** (1.0 / 6.0)
        axes.append((lo, hi, w, dc, h))
    return m, h_t, v, axes


def _reference_rect_step(vals, reg, dt, advection, hx, hy):
    """One explicit rectangle step by the scheme's formula: per axis the face
    flux F = m_up w - k (u_hi - u_lo), with the face conductance k = dc (1 / h),
    0 at both walls, and u - dt sum over axes of (F_hi - F_lo) (1 / h).
    Returns the new values, the source mean h_t and the potential v that
    drove the step (None without advection)."""
    m, h_t, v, axes = _rect_faces(vals, reg, advection, hx, hy)
    div = 0.0
    for a, (lo, hi, w, dc, h) in enumerate(axes):
        flux = np.zeros(tuple(n + (b == a) for b, n in enumerate(vals.shape)))
        inner = (slice(1, -1), slice(None)) if a == 0 else (slice(None), slice(1, -1))
        flux[inner] = np.where(w > 0.0, m[lo], m[hi]) * w - dc * (1.0 / h) * (vals[hi] - vals[lo])
        div = div + np.diff(flux, axis=a) * (1.0 / h)
    return vals - div * dt, h_t, v if advection else None


def _divide_based_rect_step(vals, reg, dt, advection, hx, hy):
    """The rectangle step as computed before the padded face arrays: the
    face flux m_up w - dc (u_hi - u_lo) / h, its divergence over cells of
    measure h, each side divided on its own."""
    m, _, _, axes = _rect_faces(vals, reg, advection, hx, hy)
    div = np.zeros_like(vals)
    for lo, hi, w, dc, h in axes:
        q = np.where(w > 0.0, m[lo], m[hi]) * w - (vals[hi] - vals[lo]) * dc / h
        div[lo] += q / h
        div[hi] -= q / h
    return vals - div * dt


def _reference_disk_step(vals, reg, dt, advection, faces):
    """One explicit disk step by the scheme's formula on the grid ``faces``:
    G = r v' = h_t r^2 / 2 - cumsum(m vol) at the interior faces, the face
    flux F = m_up G - dc (r / dcen) (u_hi - u_lo), 0 at both walls, and
    u - dt (1 / vol) (F_hi - F_lo).  Returns the new values, the source
    mean h_t and the potential v that drove the step (None without
    advection)."""
    centers = 0.5 * (faces[1:] + faces[:-1])
    vol = 0.5 * np.diff(faces**2)
    r = faces[1:-1]
    m = S.f_eps(vals, reg.epsilon) if reg.is_cutoff else vals
    src = m * vol
    h_t = float(2.0 * src.sum())
    g = h_t * (0.5 * r**2) - np.cumsum(src)[:-1]
    w = g if advection else np.zeros_like(g)
    k = r / np.diff(centers)
    if not reg.is_cutoff:
        k = (1.0 + reg.epsilon * (7.0 / 6.0) * (0.5 * (vals[1:] + vals[:-1])) ** (1.0 / 6.0)) * k
    m_up = np.where(w > 0.0, m[:-1], m[1:])
    flux = np.zeros(vals.size + 1)
    flux[1:-1] = m_up * w - k * (vals[1:] - vals[:-1])
    new = vals - (flux[1:] - flux[:-1]) * (1.0 / vol) * dt
    return new, h_t, S.radial_potential(S.RadialGrid(faces), g) if advection else None


def _divide_based_disk_step(vals, reg, dt, advection, faces):
    """The disk step as computed before the face conductances:
    v' = -(1/r) cumsum((m - h_t) vol), the flux r (m_up v' - dc (u_hi -
    u_lo) / dcen), divided by each side's cell measure."""
    dcen = np.diff(0.5 * (faces[1:] + faces[:-1]))
    vol = 0.5 * np.diff(faces**2)
    r = faces[1:-1]
    m = S.f_eps(vals, reg.epsilon) if reg.is_cutoff else vals
    h_t = float(2.0 * np.sum(m * vol))
    w = np.cumsum((m - h_t) * vol)[:-1] / -r if advection else np.zeros_like(r)
    dc = 1.0 if reg.is_cutoff else 1.0 + reg.epsilon * (7.0 / 6.0) * (0.5 * (vals[1:] + vals[:-1])) ** (1.0 / 6.0)
    q = (np.where(w > 0.0, m[:-1], m[1:]) * w - (vals[1:] - vals[:-1]) * dc / dcen) * r
    div = np.zeros_like(vals)
    div[:-1] += q / vol[:-1]
    div[1:] -= q / vol[1:]
    return vals - div * dt


def _replay_run(traj, u0, reg, dt, advection):
    """Replay a fixed-dt run with a snapshot after every step by the
    scheme's formula: each snapshot, time and diagnostics row has the bits
    of ``_reference_rect_step`` or ``_reference_disk_step`` and the
    one-state ``entropy``, row n those of the state before step n.
    Returns the last state."""
    from kslab import diagnostics as D

    if isinstance(u0, S.RadialField):
        step = lambda vals: _reference_disk_step(vals, reg, dt, advection, u0.grid.faces)
    else:
        step = lambda vals: _reference_rect_step(vals, reg, dt, advection, u0.hx, u0.hy)
    assert len(traj.snapshots) == len(traj.times) == len(traj.diag) + 1
    ref, t = u0.values, 0.0
    for snap, time, row in zip(traj.snapshots[1:], traj.times[1:], traj.diag):
        new, h_t, v = step(ref)
        E, Dv, int_u76 = D.entropy(u0.like(ref), None if v is None else u0.like(v), reg.epsilon, (new - ref) / dt)
        want = {
            "t": t, "mass": u0.like(ref).mass(), "min_u": float(ref.min()), "max_u": float(ref.max()),
            "entropy": E, "dissipation": Dv, "h_t": h_t, "int_u76": int_u76,
        }
        _assert_same_rows([row], [want])
        ref, t = new, t + dt
        assert snap.tobytes() == ref.tobytes() and time == t
    return ref


def _fixed_dt_run(u0, reg, dt, advection, max_steps):
    cfg = S.SolverConfig(
        t_end=1.0, dt_policy="fixed", dt_fixed=dt, snapshot_dt=dt, max_steps=max_steps,
        flag_umax_factor=1e30, stop_umax_factor=1e30, advection=advection,
    )
    return _drive(u0)(cfg, reg, u0)


@given(
    st.integers(2, 64), st.integers(2, 64), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
    regs, st.booleans(), st.floats(0.1, 300.0), st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rect_steps_match_reference_formula(nx, ny, lx, ly, reg, advection, level, seed):
    # a fixed-dt run, a snapshot after every step: each step, and the
    # potential its diagnostics row saw, has the bits of the formula; each
    # step is within 1e-13 of the divide-based formula it replaced, relative
    # to the largest cell
    vals = level * np.exp(np.random.default_rng(seed).normal(size=(nx, ny)))
    u0 = S.Field(lx / nx, ly / ny, vals)
    dt = 0.5 * _stable_dt(u0, reg)
    traj = _fixed_dt_run(u0, reg, dt, advection, 6)
    assert len(traj.diag) >= 1
    _replay_run(traj, u0, reg, dt, advection)
    for before, after in zip(traj.snapshots, traj.snapshots[1:]):
        old = _divide_based_rect_step(before, reg, dt, advection, u0.hx, u0.hy)
        assert np.max(np.abs(after - old)) <= 1e-13 * np.max(np.abs(old))


@given(
    st.integers(2, 160), st.floats(0.95, 1.05).filter(lambda ratio: ratio != 1.0),
    regs, st.booleans(), st.floats(0.1, 300.0), st.integers(0, 2**32 - 1),
)
@example(64, 1.02, S.RegKind("cutoff_flux", 1e-2), True, 200.0, 1)  # most cells past the knee 99
@example(64, 0.98, S.RegKind("nonlinear_diffusion", 1e-3), False, 300.0, 2)
@settings(max_examples=60, deadline=None)
def test_disk_steps_match_reference_formula(n, ratio, reg, advection, level, seed):
    # a fixed-dt run on a geometric grid, a snapshot after every step: each
    # step, and the potential its diagnostics row saw, has the bits of the
    # formula; each step is within 1e-13 of the divide-based formula it
    # replaced, relative to the largest cell
    grid = S.make_radial_grid(n, ratio)
    u0 = S.RadialField(grid, level * np.exp(np.random.default_rng(seed).normal(size=n)))
    dt = 0.5 * _stable_dt(u0, reg)
    traj = _fixed_dt_run(u0, reg, dt, advection, 6)
    assert len(traj.diag) >= 1  # a collapse may outgrow dt: CFLError ends the run
    _replay_run(traj, u0, reg, dt, advection)
    for before, after in zip(traj.snapshots, traj.snapshots[1:]):
        old = _divide_based_disk_step(before, reg, dt, advection, grid.faces)
        assert np.max(np.abs(after - old)) <= 1e-13 * np.max(np.abs(old))


def _written_cfl_rate(u0, reg, advection):
    """The CFL rate of a step from ``u0`` by its written formula.  On the
    disk: the max over cells of (1 / vol) sum over the cell's faces of
    |G| + k (0 at the walls), k = dc r / dcen.  On the rectangle:
    2 sum over axes of (max k + max|w|) / h, k = dc / h."""
    vals = u0.values
    if isinstance(u0, S.Field):
        _, _, _, axes = _rect_faces(vals, reg, advection, u0.hx, u0.hy)
        return 2.0 * sum((np.max(dc * (1.0 / h)) + np.max(np.abs(w))) * (1.0 / h) for _, _, w, dc, h in axes)
    faces = u0.grid.faces
    vol = 0.5 * np.diff(faces**2)
    r = faces[1:-1]
    m = S.f_eps(vals, reg.epsilon) if reg.is_cutoff else vals
    src = m * vol
    g = float(2.0 * src.sum()) * (0.5 * r**2) - np.cumsum(src)[:-1]
    k = r / np.diff(0.5 * (faces[1:] + faces[:-1]))
    if not reg.is_cutoff:
        k = (1.0 + reg.epsilon * (7.0 / 6.0) * (0.5 * (vals[1:] + vals[:-1])) ** (1.0 / 6.0)) * k
    face = np.zeros(vals.size + 1)
    face[1:-1] = (np.abs(g) if advection else 0.0) + k
    return np.max((face[1:] + face[:-1]) * (1.0 / vol))


@st.composite
def cfl_states(draw):
    """A state on a grid of non-square cells, or a geometric disk grid, at
    a level whose largest cells pass the cutoff knee 1/eps - 1."""
    level = draw(st.floats(0.1, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        nx, ny = draw(st.integers(2, 48)), draw(st.integers(2, 48))
        lx, ly = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        return S.Field(lx / nx, ly / ny, level * np.exp(rng.normal(size=(nx, ny))))
    grid = S.make_radial_grid(draw(st.integers(2, 160)), draw(st.floats(0.95, 1.05)))
    return S.RadialField(grid, level * np.exp(rng.normal(size=grid.n)))


@given(cfl_states(), regs, st.booleans())
# peaks near 480, past the knee 99
@example(S.initial_condition_rect(24, 20, 1.0, 0.5, "gaussian", mass=30.0, width=0.1), S.RegKind("cutoff_flux", 1e-2), True)
@example(
    S.initial_condition_radial(S.make_radial_grid(64, 1.02), "gaussian", mass=30.0, width=0.1),
    S.RegKind("nonlinear_diffusion", 1e-2), False,
)
@settings(max_examples=100, deadline=None)
def test_first_step_dt_is_the_written_cfl_rate(u0, reg, advection):
    # the stable dt that CFLError reports is 1 / rate, the rate by its
    # written formula on each grid, bit for bit
    assert _stable_dt(u0, reg, advection) == 1.0 / _written_cfl_rate(u0, reg, advection)


@pytest.mark.parametrize("advection", [True, False])
@pytest.mark.parametrize("reg", [S.RegKind("cutoff_flux", 1e-2), S.RegKind("nonlinear_diffusion", 1e-2)])
# one-row blocks: computed inline below _DIAG_WORKER_CELLS cells, on the worker from there
@pytest.mark.parametrize("nx,ny", [(72, 64), (96, 96), (200, 180), (256, 256)])
def test_one_row_blocks_match_reference_formula(nx, ny, reg, advection):
    vals = 200.0 * np.exp(np.random.default_rng(nx).normal(size=(nx, ny)))  # f_eps saturates
    u0 = S.Field(1.0 / nx, 1.0 / ny, vals)
    dt = 0.5 * _stable_dt(u0, reg)
    threads = threading.active_count()
    traj = _fixed_dt_run(u0, reg, dt, advection, 6)
    assert threading.active_count() == threads
    assert not traj.failed and len(traj.diag) == 6
    _replay_run(traj, u0, reg, dt, advection)


@pytest.mark.parametrize(
    "reg,mass,dt_factor",
    [(S.RegKind("nonlinear_diffusion", 1e-3), 60.0, 0.99), (S.RegKind("cutoff_flux", 1e-2), 200.0, 0.999)],
)
def test_worker_run_keeps_every_row_before_a_cfl_failure(reg, mass, dt_factor):
    # a 256^2 collapse outgrows a fixed dt set just under the first step's
    # limit: the row in flight when CFLError ends the run is kept too
    u0 = S.initial_condition_rect(256, 256, 1.0, 1.0, "gaussian", mass=mass, width=0.05)
    dt = dt_factor * _stable_dt(u0, reg)
    threads = threading.active_count()
    traj = _fixed_dt_run(u0, reg, dt, True, 200)
    assert threading.active_count() == threads
    assert traj.failed and traj.stop_reason == "error" and "violates CFL" in traj.failure_message
    assert len(traj.diag) >= 2
    last = _replay_run(traj, u0, reg, dt, True)
    again = S.run(dataclasses.replace(traj.config, max_steps=1), reg, u0.like(last))
    assert again.failed and again.failure_message.startswith(f"dt={dt!r} violates CFL")


@pytest.mark.parametrize("nx", [96, 256])  # the row inline, and on the worker
def test_row_error_propagates_out_of_run(monkeypatch, nx):
    # an overflow in the third row is a FloatingPointError under the run's
    # numpy state, wherever the row is computed, and it ends the run
    from kslab import diagnostics

    calls = []
    entropy = diagnostics.entropy

    def spy(u, *args, **kwargs):
        calls.append(len(u.values))
        if len(calls) == 3:
            np.array([1e308]) * 10.0
        return entropy(u, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "entropy", spy)
    u0 = S.initial_condition_rect(nx, nx, 1.0, 1.0, "gaussian", mass=4.0, width=0.2)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError):
        S.run(S.SolverConfig(t_end=1.0, max_steps=6), S.RegKind("cutoff_flux", 1e-2), u0)
    assert threading.active_count() == threads
    assert len(calls) == 3


# --------------------------------------------------------------------------
# diagnostics rows computed in blocks
# --------------------------------------------------------------------------


def _reference_rows(u0, reg, cfg):
    """The per-step rows of a fixed-dt disk run, each computed on its own:
    one-step runs advance the state, and row n is the state u_n before step
    n, with its own potential and the step's rate (u_{n+1} - u_n) / dt.
    Returns the rows and whether a step failed."""
    from kslab import diagnostics as D

    grid = u0.grid
    u, t = u0, 0.0
    rows = []
    while cfg.t_end - t >= cfg.dt_min and len(rows) < cfg.max_steps:
        vals = u.values
        m = S.f_eps(vals, reg.epsilon) if reg.is_cutoff else vals
        h_t = float(2.0 * np.sum(m * grid.vol))
        v = _own_potential(u, reg) if cfg.advection else None
        dt = min(cfg.dt_fixed, cfg.t_end - t)
        step = S.radial_run(dataclasses.replace(cfg, dt_fixed=dt, max_steps=1), reg, u)
        if step.failed:
            return rows, True
        u_next = step.snapshots[-1]
        E, Dv, int_u76 = D.entropy(u, v, reg.epsilon, (u_next - vals) / dt)
        rows.append(
            {
                "t": t,
                "mass": u.mass(),
                "min_u": float(vals.min()),
                "max_u": float(vals.max()),
                "entropy": E,
                "dissipation": Dv,
                "h_t": h_t,
                "int_u76": int_u76,
            }
        )
        u, t = u.like(u_next), t + dt
    return rows, False


def _stable_dt(u0, reg, advection=True):
    """The largest stable dt of the first step from ``u0``, as the CFLError
    of an infinite fixed dt reports it; the run takes no step."""
    traj = _drive(u0)(S.SolverConfig(dt_policy="fixed", dt_fixed=np.inf, advection=advection), reg, u0)
    assert traj.diag == [] and traj.failure_message.startswith("dt=inf violates CFL")
    return float(traj.failure_message.rsplit("~ ", 1)[1])


def _assert_same_rows(rows, ref):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert list(row) == list(want)
        assert all(type(row[key]) is float and repr(row[key]) == repr(want[key]) for key in want)


@pytest.mark.parametrize(
    "n,ratio,variant,eps,advection",
    [
        (256, 1.0, "cutoff_flux", 1e-2, True),  # 32 rows per block; f_eps saturates
        (256, 1.0, "nonlinear_diffusion", 1e-3, False),
        (768, 1.0, "cutoff_flux", 1e-4, True),  # 10 rows per block
        (1000, 1.001, "nonlinear_diffusion", 1e-2, True),  # 8 rows per block
    ],
)
def test_block_rows_match_per_row_reference(n, ratio, variant, eps, advection):
    grid = S.make_radial_grid(n, ratio)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=12 * np.pi, width=0.05)
    reg = S.RegKind(variant, eps)
    cfg = S.SolverConfig(
        t_end=1.0, dt_policy="fixed", dt_fixed=0.5 * _stable_dt(u0, reg), max_steps=75,
        stop_umax_factor=1e30, advection=advection,
    )
    traj = S.radial_run(cfg, reg, u0)
    ref, failed = _reference_rows(u0, reg, cfg)
    assert not traj.failed and not failed
    assert len(traj.diag) == 75  # several blocks and a partial one
    _assert_same_rows(traj.diag, ref)


def test_failed_run_keeps_every_row_before_the_failure():
    # a fixed dt that the collapse outgrows: CFLError part way into a block
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=12 * np.pi, width=0.05)
    reg = S.RegKind("nonlinear_diffusion", 1e-3)
    cfg = S.SolverConfig(
        t_end=1.0, dt_policy="fixed", dt_fixed=0.95 * _stable_dt(u0, reg), max_steps=400, stop_umax_factor=1e30
    )
    traj = S.radial_run(cfg, reg, u0)
    ref, failed = _reference_rows(u0, reg, cfg)
    assert traj.failed and failed and traj.stop_reason == "error"
    assert len(traj.diag) > 32 and len(traj.diag) % 32 != 0
    _assert_same_rows(traj.diag, ref)


def test_positivity_failure_keeps_every_row_before_it(monkeypatch):
    # step 37 (part way into the second block) updates the state and then
    # fails the positivity check: its row is dropped, and row 36 keeps the
    # update to the state that step began from, as a 37-step run records it
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=12 * np.pi, width=0.05)
    reg = S.RegKind("cutoff_flux", 1e-2)
    cfg = S.SolverConfig(
        t_end=1.0, dt_policy="fixed", dt_fixed=0.5 * _stable_dt(u0, reg), max_steps=60, stop_umax_factor=1e30
    )
    ref = S.radial_run(dataclasses.replace(cfg, max_steps=37), reg, u0)
    apply, steps = S._RadialStencil.apply, []

    def apply_then_fail(self, vals, f, dt):
        apply(self, vals, f, dt)
        steps.append(dt)
        if len(steps) == 38:
            vals[0] = -1.0

    monkeypatch.setattr(S._RadialStencil, "apply", apply_then_fail)
    traj = S.radial_run(cfg, reg, u0)
    assert traj.failed and traj.failure_message.startswith("positivity lost")
    assert not ref.failed and len(ref.diag) == 37
    _assert_same_rows(traj.diag, ref.diag)


@pytest.mark.parametrize("variant", ["cutoff_flux", "nonlinear_diffusion"])
@pytest.mark.parametrize("backend", ["radial", "rect"])
def test_cells_below_zero_are_vacuum(backend, variant):
    # a step may leave cells down to -positivity_tol; the next step's
    # mobility and face diffusion and the diagnostics rows take them as vacuum
    if backend == "radial":
        u0 = S.RadialField(S.make_radial_grid(8, 1.0), np.array([3.0, 2.0, 1.0, 0.5] + [-1e-14] * 4))
    else:
        u0 = S.initial_condition_rect(8, 8, 1.0, 1.0, "constant", value=-1e-14)
        u0.values[:3, :3] = 2.0
    reg = S.RegKind(variant, 1e-2)
    # the first step takes its bounds from the state
    traj = _drive(u0)(S.SolverConfig(t_end=3e-4, dt_policy="fixed", dt_fixed=1e-4), reg, u0)
    assert not traj.failed and len(traj.diag) == 3
    assert all(row["min_u"] < 0.0 for row in traj.diag)
    assert all(np.isfinite(value) for row in traj.diag for value in row.values())
    m = traj.mass_series()
    assert np.max(np.abs(m - u0.mass())) <= 1e-13 * u0.mass()
    # and so does every trajectory analysis: on the snapshots, which keep
    # their cells below zero, each runs and matches the snapshots clipped at 0
    assert all(snap.min() < 0.0 for snap in traj.snapshots)
    clipped = dataclasses.replace(traj, snapshots=[np.maximum(snap, 0.0) for snap in traj.snapshots])
    with np.errstate(invalid="raise"):
        got, want = _analyses(traj), _analyses(clipped)
    # powers and model densities read max(u, 0), so they are bit-equal;
    # linear masses keep u, and cells at -1e-14 move them by at most 1e-14
    # times the domain area, a rate over dt = 1e-4 by 1e-10 times it
    for key, value in got.items():
        if key in ("beta", "lp", "ball_u76", "Q1", "Q5"):
            assert np.asarray(value).tobytes() == np.asarray(want[key]).tobytes(), key
        else:
            np.testing.assert_allclose(value, want[key], rtol=0.0, atol=1e-9, err_msg=key)


def _analyses(traj) -> dict:
    """Each trajectory analysis on ``traj`` (the atom ladder on its first snapshot)."""
    from kslab import diagnostics as D, sweep as SW, weakform as W

    u0 = traj.field_at(0)
    x0 = np.zeros(2) if traj.backend == "radial" else np.full(2, 0.5)
    if traj.backend == "radial":
        cover = SW.build_radial_partition(traj.grid, 3)
    else:
        X, _ = u0.cell_centers()
        cover = [X, 1.0 - X]
    est = D.atom_estimate(u0, x0, traj.reg)
    probe = D.local_mass_rate(traj, (x0, 0.1))
    lp = D.local_lp(traj, (x0, 0.1), 1.5)
    qb = W.weak_residual(traj, W.interior_bump_test(0.3, 1e-4, 2.5e-4), n_theta=32)
    out = {
        "alpha": est.alpha,
        "beta": est.beta,
        "weighted_mass": probe.weighted_mass,
        "rate": probe.rate,
        "lp": lp["lp"],
        "mass4": lp["mass4"],
        "quadratic": D.quadratic_weak_limit_probe(traj, [(("ball", x0, 0.2), lambda pts: 1.0 + pts[..., 0] ** 2)]),
        "moduli": SW.mass_change_modulus(traj, cover)["moduli"],
        "L1": qb.L1,
        "Q1": qb.Q1,
        "Q5": qb.Q5,
    }
    if probe.ball_u76 is not None:
        out["ball_u76"], out["rho2_onesided"] = probe.ball_u76, probe.rho2_onesided
    return out


def _mode_decay_l1_error(u0, mode, rate, t_end=0.02):
    """L1 distance at t_end between a pure-diffusion run (no advection,
    cutoff flux: coefficient 1) from ``u0`` = 1 + mode / 2 and the exact
    cell averages 1 + e^{-rate t} mode / 2."""
    run = S.radial_run if isinstance(u0, S.RadialField) else S.run
    traj = run(S.SolverConfig(t_end=t_end, advection=False), S.RegKind("cutoff_flux", 1e-3), u0)
    assert not traj.failed
    exact = 1.0 + 0.5 * np.exp(-rate * traj.times[-1]) * mode
    return u0.integral(np.abs(traj.snapshots[-1] - exact))


def test_disk_diffusion_is_second_order_in_space():
    # the Neumann mode 1 + J0(k r) / 2, k the first root of J1, decays as
    # e^{-k^2 t}; its cell averages follow from int J0(k r) r dr = r J1(k r) / k
    import scipy.special  # here, not in kslab: the start-up guards keep it out

    k = scipy.special.jn_zeros(1, 1)[0]
    errors = []
    for n in (32, 64, 128, 256):
        grid = S.make_radial_grid(n, 1.0)
        mode = np.diff(grid.faces * scipy.special.j1(k * grid.faces) / k) / grid.vol
        u0 = S.RadialField(grid, 1.0 + 0.5 * mode)
        errors.append(_mode_decay_l1_error(u0, mode, k**2))
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    assert np.all(orders >= 1.9), orders


def test_rect_diffusion_is_second_order_in_space():
    # 1 + cos(pi x) cos(pi y) / 2 on the unit square decays as e^{-2 pi^2 t}
    errors = []
    for n in (16, 32, 64):
        u0 = S.initial_condition_rect(n, n, 1.0, 1.0, "constant", value=1.0)
        faces = np.linspace(0.0, 1.0, n + 1)
        avg = np.diff(np.sin(np.pi * faces)) / (np.pi / n)  # cell averages of cos(pi x)
        mode = avg[:, None] * avg[None, :]
        u0.values += 0.5 * mode
        errors.append(_mode_decay_l1_error(u0, mode, 2 * np.pi**2))
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    assert np.all(orders >= 1.9), orders
