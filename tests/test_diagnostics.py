import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kslab import checks
from kslab import diagnostics as D
from kslab import solver as S
from kslab import sweep as SW
from kslab import weakform as W
from kslab.geometry import smoothstep5
from kslab.testfn import phi


def test_entropy_constant_state():
    c, eps = 2.0, 1e-2
    grid = S.make_radial_grid(128, 1.0)
    u = S.RadialField(grid, np.full(128, c))
    v = S.RadialField(grid, np.zeros(128))
    E, Dv, _ = D.entropy(u, v, eps)
    expect = np.pi * (c * np.log(c) - c + 6 * eps * c ** (7 / 6))
    assert E == pytest.approx(expect, rel=1e-12)
    assert Dv == pytest.approx(0.0, abs=1e-20)


def test_entropy_heat_flow_dissipation_identity():
    # at eps = 0 with no potential each row's D is its step's energy rate,
    # so the centred dE/dt matches -D
    u0 = S.initial_condition_rect(96, 96, 1.0, 1.0, "gaussian", mass=2.0, width=0.15)
    cfg = S.SolverConfig(t_end=5e-4, advection=False)
    traj = S.run(cfg, S.RegKind("nonlinear_diffusion", 0.0), u0)
    r = traj.diag
    k = len(r) // 2
    dEdt = (r[k + 1]["entropy"] - r[k - 1]["entropy"]) / (r[k + 1]["t"] - r[k - 1]["t"])
    assert dEdt == pytest.approx(-r[k]["dissipation"], rel=0.05)


def test_entropy_heat_flow_dissipation_identity_disk():
    # the same identity on the non-uniform radial grid, where the cell
    # measures 2 pi r dr enter both dE/dt and D
    grid = S.make_radial_grid(256, 1.01)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=2.0, width=0.15)
    cfg = S.SolverConfig(t_end=5e-4, advection=False)
    traj = S.radial_run(cfg, S.RegKind("nonlinear_diffusion", 0.0), u0)
    r = traj.diag
    k = len(r) // 2
    dEdt = (r[k + 1]["entropy"] - r[k - 1]["entropy"]) / (r[k + 1]["t"] - r[k - 1]["t"])
    assert dEdt == pytest.approx(-r[k]["dissipation"], rel=0.05)


# The two-pass formula of E and of xi that ``entropy`` replaced: logs and
# powers taken on their own.  It is the oracle for the one-pass kernel.

_ULOG_FLOOR = 1e-280


def _two_pass_entropy(u, v, epsilon, u_t):
    """(E, D, E_scale, D_scale): each scale sums the magnitudes of the terms."""
    vals = u.values
    pos = vals > _ULOG_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        logu = np.where(pos, np.log(np.maximum(vals, _ULOG_FLOOR)), 0.0)
        root6 = np.where(pos, np.maximum(vals, 0.0) ** (1.0 / 6.0), 0.0)
    bulk = np.where(pos, vals * (logu - 1.0), 0.0) + 6.0 * epsilon * vals * root6
    vv = np.zeros(vals.shape) if v is None else v.values
    xi = logu + 7.0 * epsilon * root6 - vv
    if isinstance(u, S.RadialField):
        grid = u.grid
        meas = grid.cell_areas
        potential = 0.5 * float(np.sum((np.diff(vv) / grid.dcen) ** 2 * grid.dual_areas))
    else:
        meas = u.hx * u.hy
        wx, wy = np.diff(vv, axis=0) / u.hx, np.diff(vv, axis=1) / u.hy
        potential = 0.5 * float((np.sum(wx**2) + np.sum(wy**2)) * meas)
    E = float(np.sum(bulk * meas)) - potential
    D = -float(np.sum(xi * u_t * meas))
    return E, D, float(np.sum(np.abs(bulk) * meas)) + potential, float(np.sum(np.abs(xi * u_t) * meas))


# exact zeros, values under the log floor and cells below zero drive the
# vacuum branch
cell_values = st.one_of(st.sampled_from([0.0, 1e-300, -1e-14, 0.7, 1.0, 3.0]), st.floats(1e-8, 1e3))


@st.composite
def entropy_cases(draw):
    if draw(st.booleans()):
        grid = S.make_radial_grid(draw(st.integers(2, 64)), draw(st.floats(1.0, 1.05)))
        shape = (grid.n,)

        def make(a):
            return S.RadialField(grid, a)

    else:
        nx, ny = draw(st.integers(2, 24)), draw(st.integers(2, 24))
        hx, hy = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        shape = (nx, ny)

        def make(a):
            return S.Field(hx, hy, a)

    u = make(draw(arrays(float, shape, elements=cell_values)))
    epsilon = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.3]))
    v = make(draw(arrays(float, shape, elements=st.floats(-20.0, 20.0)))) if draw(st.booleans()) else None
    u_t = draw(arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    return u, v, epsilon, u_t


@given(entropy_cases())
@settings(max_examples=300, deadline=None)
def test_entropy_matches_two_pass_formula(case):
    u, v, epsilon, u_t = case
    E_ref, D_ref, E_scale, D_scale = _two_pass_entropy(u, v, epsilon, u_t)
    with np.errstate(over="raise", invalid="raise"):
        E, Dv, int_u76 = D.entropy(u, v, epsilon, u_t)
        at_rest = D.entropy(u, v, epsilon)
    # E and D can cancel to near zero, so their rounding is judged against
    # the magnitude of their terms; vacuum cells keep both finite
    assert abs(E - E_ref) <= 1e-12 * E_scale
    assert abs(Dv - D_ref) <= 1e-12 * D_scale
    assert at_rest == (E, 0.0, int_u76)


@st.composite
def energy_law_runs(draw):
    """A bump on a floor, its peak below the cutoff knee 1/eps - 1 >= 99,
    on a random rectangle or disk grid (growth ratios included), under
    either regularization, with advection on or off."""
    width = draw(st.floats(0.1, 0.4))
    if draw(st.booleans()):
        grid = S.make_radial_grid(draw(st.integers(8, 64)), draw(st.floats(1.0, 1.03)))
        u0 = S.initial_condition_radial(grid, "gaussian", mass=1.0, width=width)
    else:
        nx, ny = draw(st.integers(4, 24)), draw(st.integers(4, 24))
        lx, ly = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
        center = (draw(st.floats(0.2, 0.8)) * lx, draw(st.floats(0.2, 0.8)) * ly)
        u0 = S.initial_condition_rect(nx, ny, lx, ly, "gaussian", mass=1.0, width=width, center=center)
    floor = draw(st.floats(0.02, 1.0))
    u0.values *= draw(st.floats(1.0, 50.0)) / (u0.values.max() * (1.0 + floor))
    u0.values += floor * u0.values.max()
    reg = S.RegKind(draw(st.sampled_from(["cutoff_flux", "nonlinear_diffusion"])), draw(st.sampled_from([1e-2, 1e-3])))
    return u0, reg, draw(st.booleans())


def _energy_law_residuals(u0, reg, advection, dt, steps):
    """(E_{n+1} - E_n) / (t_{n+1} - t_n) + D_n over the rows of a fixed-dt run."""
    drive = S.radial_run if isinstance(u0, S.RadialField) else S.run
    cfg = S.SolverConfig(
        t_end=1.0, dt_policy="fixed", dt_fixed=dt, max_steps=steps, advection=advection,
        flag_umax_factor=1e30, stop_umax_factor=1e30,
    )
    traj = drive(cfg, reg, u0)
    assert not traj.failed and len(traj.diag) == steps
    t, E, Dv = (np.array([row[key] for row in traj.diag]) for key in ("t", "entropy", "dissipation"))
    return np.diff(E) / np.diff(t) + Dv[:-1]


@given(energy_law_runs())
@settings(max_examples=60, deadline=None)
def test_dissipation_is_the_steps_energy_rate(case):
    # D_n is the step's own energy rate, -sum xi_n (u_{n+1} - u_n) |cell| / dt,
    # so the energy law holds to the chain rule's second-order remainder:
    # halving dt halves the residual at the same times.  That remainder
    # carries dt sum u_t^2 / u, so a bump on a floor keeps every cell's
    # relative change small enough to be in the O(dt) regime.
    u0, reg, advection = case
    drive = S.radial_run if isinstance(u0, S.RadialField) else S.run
    stable = drive(S.SolverConfig(dt_policy="fixed", dt_fixed=np.inf), reg, u0)
    dt = 0.25 * float(stable.failure_message.rsplit("~ ", 1)[1])
    with np.errstate(over="raise", invalid="raise"):
        coarse = _energy_law_residuals(u0, reg, advection, dt, 6)
        fine = _energy_law_residuals(u0, reg, advection, 0.5 * dt, 12)[: 2 * len(coarse) : 2]
    assert np.max(np.abs(coarse)) >= 1.8 * np.max(np.abs(fine))


def test_entropy_epsilon_bound_constant():
    grid = S.make_radial_grid(64, 1.0)
    u0 = S.RadialField(grid, np.full(64, 3.0))
    cfg = S.SolverConfig(t_end=1e-4)
    traj = S.radial_run(cfg, S.RegKind("nonlinear_diffusion", 1e-2), u0)
    got = D.entropy_epsilon_bound(traj, alpha_exp=0.1)
    expect = 1e-2 ** 1.1 * np.pi * 3.0 ** (7 / 6)
    assert got == pytest.approx(expect, rel=1e-6)


def test_entropy_epsilon_bound_wrong_reg():
    grid = S.make_radial_grid(64, 1.0)
    u0 = S.RadialField(grid, np.full(64, 1.0))
    traj = S.radial_run(S.SolverConfig(t_end=1e-4), S.RegKind("cutoff_flux", 1e-2), u0)
    with pytest.raises(ValueError):
        D.entropy_epsilon_bound(traj)


# --------------------------------------------------------------------------
# ball integrals
# --------------------------------------------------------------------------


def test_circle_rect_overlap_against_rasterization(rng):
    for _ in range(8):
        x0, y0 = rng.uniform(-1.5, 0.5, 2)
        dx, dy = rng.uniform(0.2, 1.2, 2)
        rho = rng.uniform(0.3, 1.2)
        exact = D.circle_rect_overlap(x0, x0 + dx, y0, y0 + dy, rho)
        n = 800
        xs = np.linspace(x0 + dx / (2 * n), x0 + dx - dx / (2 * n), n)
        ys = np.linspace(y0 + dy / (2 * n), y0 + dy - dy / (2 * n), n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        raster = float(np.mean(X**2 + Y**2 <= rho**2) * dx * dy)
        assert exact == pytest.approx(raster, abs=3e-3 * rho)


def test_ball_weights_rect_total_area():
    u = S.Field(1 / 64, 1 / 64, np.zeros((64, 64)))
    w = D.ball_weights_rect(u, (0.5, 0.5), 0.2)
    assert w.sum() == pytest.approx(np.pi * 0.04, rel=1e-12)


def test_ball_mass_radial_exact_partial_cells():
    grid = S.make_radial_grid(16, 1.0)
    u = S.RadialField(grid, np.ones(16))
    # rho cutting through the middle of a cell still integrates exactly
    for rho in (0.2, 0.23, 0.5):
        assert D.ball_mass_radial(u, rho) == pytest.approx(np.pi * rho**2, rel=1e-12)


def test_offcenter_ball_weights_radial():
    grid = S.make_radial_grid(512, 1.0)
    u = S.RadialField(grid, np.ones(512))
    w = D.offcenter_ball_weights_radial(grid, 0.3, 0.15)
    # per-cell Gauss quadrature; only the two kink cells carry O(dr^1.5) error
    assert float(np.sum(w)) == pytest.approx(np.pi * 0.15**2, rel=1e-4)


def test_constant_probe_lp():
    grid = S.make_radial_grid(256, 1.0)
    c = 1.7
    u0 = S.RadialField(grid, np.full(256, c))
    traj = S.radial_run(S.SolverConfig(t_end=1e-4), S.RegKind("cutoff_flux", 1e-2), u0)
    out = D.local_lp(traj, ((0.0, 0.0), 0.2), p=2.0)
    assert out["lp"][0] == pytest.approx(np.pi * 0.2**2 * c**2, rel=1e-9)


# --------------------------------------------------------------------------
# concentration detection and atoms
# --------------------------------------------------------------------------


def test_detect_nothing_on_small_constant():
    u = S.Field(1 / 64, 1 / 64, np.full((64, 64), 0.05))
    centers = D.detect_concentrations(u, D.M0_CUTOFF, 0.05)
    assert centers == []


def test_detect_single_peak_rect():
    u = S.initial_condition_rect(96, 96, 1.0, 1.0, "gaussian", mass=8.0, width=0.04, center=(0.45, 0.6))
    centers = D.detect_concentrations(u, D.M0_CUTOFF, 0.05)
    assert len(centers) == 1
    assert np.hypot(*(centers[0] - np.array([0.45, 0.6]))) <= 2 * 0.05


def test_detect_two_separated_peaks_and_count_bound():
    u = S.initial_condition_rect(
        96, 96, 1.0, 1.0, "two_bump", mass=10.0, center1=(0.3, 0.3), width1=0.03, center2=(0.7, 0.7), width2=0.03
    )
    m0 = D.M0_CUTOFF
    centers = D.detect_concentrations(u, m0, 0.05)
    assert len(centers) == 2
    assert len(centers) <= int(4 * u.mass() / m0)


def test_detect_peaks_on_opposite_walls():
    # the walls are Neumann, not periodic: the weaker left-wall peak is a
    # local maximum among its in-domain neighbours, whatever the right wall holds
    u = S.initial_condition_rect(
        64, 64, 1.0, 1.0, "two_bump", mass=40.0, center1=(0.0, 0.5), width1=0.02, center2=(1.0, 0.5), width2=0.02,
        ratio=0.8,
    )
    centers = D.detect_concentrations(u, 0.05, 0.01)
    assert len(centers) == 2
    assert sorted(round(float(c[0])) for c in centers) == [0, 1]
    assert all(abs(c[1] - 0.5) <= 0.02 for c in centers)


def test_atom_estimate_no_atom_on_smooth():
    grid = S.make_radial_grid(256, 1.0)
    u = S.initial_condition_radial(grid, "gaussian", mass=4.0, width=0.4)
    est = D.atom_estimate(u, (0.0, 0.0), S.RegKind("cutoff_flux", 1e-2))
    assert est.no_atom  # alpha keeps growing along the ladder, no plateau


def test_atom_estimate_inequalities():
    grid = S.make_radial_grid(512, 1.0)
    # saturated narrow spike: f_eps(u) < u inside, so beta < alpha
    vals = np.where(grid.centers < 0.02, 5e4, 0.0)
    u = S.RadialField(grid, vals)
    est_c = D.atom_estimate(u, (0.0, 0.0), S.RegKind("cutoff_flux", 1e-4))
    assert est_c.beta_le_alpha
    assert np.all(est_c.beta <= est_c.alpha)
    est_n = D.atom_estimate(u, (0.0, 0.0), S.RegKind("nonlinear_diffusion", 1e-4))
    assert np.all(est_n.beta >= est_n.alpha)  # u + eps u^{7/6} >= u
    assert est_n.gamma == pytest.approx(est_n.beta**2)


def test_local_mass_rate_constant_zero():
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.RadialField(grid, np.full(256, 1.0))
    cfg = S.SolverConfig(t_end=5e-4, snapshot_dt=1e-4)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    series = D.local_mass_rate(traj, ((0.0, 0.0), 0.1))
    assert np.max(np.abs(series.rate)) <= 1e-10


def test_local_mass_rate_boundary_probe_uses_bump():
    grid = S.make_radial_grid(256, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=2.0, width=0.3)
    cfg = S.SolverConfig(t_end=5e-4, snapshot_dt=1e-4)
    traj = S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    series = D.local_mass_rate(traj, ((0.97, 0.0), 0.05))
    assert series.kind == "boundary"
    assert np.all(np.isfinite(series.rate))


def test_pure_diffusion_far_bump_rate_near_zero():
    # mass transported at finite discrete speed: a far probe sees nothing early
    u0 = S.initial_condition_rect(96, 96, 2.0, 2.0, "gaussian", mass=2.0, width=0.05, center=(0.4, 0.4))
    cfg = S.SolverConfig(t_end=2e-4, advection=False, snapshot_dt=5e-5)
    traj = S.run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)
    series = D.local_mass_rate(traj, ((1.6, 1.6), 0.1))
    assert np.max(np.abs(series.rate)) < 1e-8


def test_offcenter_disk_probe_ball_u76_is_taken_at_the_probe():
    # an annulus run concentrates nothing at the origin, so a ball taken
    # there instead of at the probe reads ~0
    grid = S.make_radial_grid(128, 1.0)
    u0 = S.initial_condition_radial(grid, "annulus", mass=20.0, r0=0.5, width=0.1)
    cfg = S.SolverConfig(t_end=5e-4, snapshot_dt=1e-4)
    traj = S.radial_run(cfg, S.RegKind("nonlinear_diffusion", 1e-2), u0)
    series = D.local_mass_rate(traj, ((0.5, 0.0), 0.1))
    w = D.offcenter_ball_weights_radial(grid, 0.5, 0.1)
    expected = [float(np.sum(w * snap ** (7.0 / 6.0))) for snap in traj.snapshots]
    assert series.ball_u76 == pytest.approx(expected, rel=1e-13)


def test_rect_probe_leaving_the_rectangle_rejected():
    u0 = S.initial_condition_rect(24, 24, 1.0, 1.0, "gaussian", mass=1.0, width=0.2)
    traj = S.run(S.SolverConfig(t_end=1e-4), S.RegKind("cutoff_flux", 1e-2), u0)
    with pytest.raises(ValueError):
        D.local_mass_rate(traj, ((0.1, 0.5), 0.1))


# --------------------------------------------------------------------------
# Sobolev inequality
# --------------------------------------------------------------------------


def test_sobolev_zero_field():
    u = S.Field(1 / 32, 1 / 32, np.zeros((32, 32)))
    eta = D._sobolev_eta(32, 1.0)
    lhs, rhs, ok = D.sobolev_check(u, eta, 0.5)
    assert lhs == 0.0 and ok


def test_sobolev_regression_family():
    rng = np.random.default_rng(20240)
    eta = D._sobolev_eta(96, 1.0)
    for _ in range(100):
        u = D.random_band_limited_field(96, 1.0, rng)
        _, _, ok = D.sobolev_check(u, eta, 0.5)
        assert ok


def test_sobolev_frozen_constant_covers_requirement():
    assert D.DEFAULT_SOBOLEV_C >= 1.2 * D.calibrate_sobolev_constant(n_fields=30)


def test_sobolev_near_extremal_ratio_below_one():
    hx = 1.0 / 192
    x = (np.arange(192) + 0.5) * hx
    X, Y = np.meshgrid(x, x, indexing="ij")
    eta = D._sobolev_eta(192, 1.0)
    ratios = []
    for R in (0.12, 0.08, 0.05):
        r2 = ((X - 0.5) ** 2 + (Y - 0.5) ** 2) / R**2
        u = S.Field(hx, hx, np.maximum(1 - r2, 0.0) ** 5)
        lhs, t1, _ = D.sobolev_check(u, eta, 0.5, C=0.0)
        ratios.append(lhs / t1)
    assert all(r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios)  # sharpens toward the cap as R shrinks


# The Sobolev check with eta's constants recomputed on every call, on a
# plain Field eta: the oracle for the weight that carries them.


def _ref_sobolev_eta(nx, lx):
    eta = S.Field(lx / nx, lx / nx, np.empty((nx, nx)))
    X, Y = eta.cell_centers()
    r = np.hypot(X - lx / 2, Y - lx / 2)
    return eta.like(1.0 - smoothstep5((r - 0.25 * lx) / (0.15 * lx)))


def _ref_sobolev_check(u, eta, delta, C=D.DEFAULT_SOBOLEV_C):
    uv, ev = u.values, eta.values
    lhs = u.integral(uv**3 * ev**6)
    gx, gy = u.gradient()
    grad2 = gx**2 + gy**2
    grad_eta_inf = float(np.max(np.hypot(*eta.gradient())))
    supp = ev > 0
    mass_supp = u.integral(uv[supp])
    supp_area = u.integral(supp)
    t1 = (9.0 * (1.0 + delta) / (16.0 * np.pi)) * u.integral(grad2 * ev**6) * mass_supp
    t2 = (C / delta**5) * grad_eta_inf**6 * mass_supp**3 * supp_area
    return lhs, t1 + t2


def _ref_check_sobolev(n_fields, seed):
    rng = np.random.default_rng(seed)
    eta = _ref_sobolev_eta(96, 1.0)
    fails = 0
    for _ in range(n_fields):
        lhs, rhs = _ref_sobolev_check(D.random_band_limited_field(96, 1.0, rng), eta, 0.5)
        fails += 0 if lhs <= rhs else 1
    eta2 = _ref_sobolev_eta(192, 1.0)
    X, Y = eta2.cell_centers()
    worst_ratio = 0.0
    for R in (0.12, 0.08, 0.05):
        u = eta2.like(np.maximum(1 - ((X - 0.5) ** 2 + (Y - 0.5) ** 2) / R**2, 0.0) ** 5)
        lhs, t1 = _ref_sobolev_check(u, eta2, 0.5, C=0.0)
        worst_ratio = max(worst_ratio, lhs / t1)
    return [fails, worst_ratio]


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_sobolev_weight_matches_per_call_constants(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    eta, ref_eta = D._sobolev_eta(96, 1.0), _ref_sobolev_eta(96, 1.0)
    assert np.array_equal(eta.values, ref_eta.values)
    for _ in range(5):
        u = D.random_band_limited_field(96, 1.0, rng)
        ref = _ref_sobolev_check(D.random_band_limited_field(96, 1.0, ref_rng), ref_eta, 0.5)
        assert D.sobolev_check(u, eta, 0.5)[:2] == ref
        assert D.sobolev_check(u, ref_eta, 0.5)[:2] == ref  # a plain Field eta
    rows, _ = checks.check_sobolev(seed=seed)
    assert [row["value"] for row in rows] == _ref_check_sobolev(100, seed)


# --------------------------------------------------------------------------
# separable quadratic probes
# --------------------------------------------------------------------------


def _short_traj():
    grid = S.make_radial_grid(128, 1.0)
    u0 = S.initial_condition_radial(grid, "gaussian", mass=3.0, width=0.25)
    cfg = S.SolverConfig(t_end=1e-3, snapshot_dt=2.5e-4)
    return S.radial_run(cfg, S.RegKind("cutoff_flux", 1e-2), u0)


def test_quadratic_probe_constant_phi():
    traj = _short_traj()
    T = traj.times[-1] - traj.times[0]
    one = lambda pts: np.ones(pts.shape[:-1])
    got = D.quadratic_weak_limit_probe(traj, [(one, one)])
    assert got == pytest.approx(3.0**2 * T, rel=1e-9)


def test_quadratic_probe_separable_factor():
    traj = _short_traj()
    g = lambda pts: pts[..., 0] ** 2 + pts[..., 1] ** 2
    one = lambda pts: np.ones(pts.shape[:-1])
    got = D.quadratic_weak_limit_probe(traj, [(g, one)])
    # mass * int int g u dx dt, with the same midpoint rule
    times = np.asarray(traj.times)
    acc = 0.0
    for k in range(times.size - 1):
        u_mid = 0.5 * (traj.snapshots[k] + traj.snapshots[k + 1])
        gu = 2 * np.pi * np.sum(traj.grid.centers**2 * u_mid * traj.grid.vol)
        acc += (times[k + 1] - times[k]) * gu * 3.0
    assert got == pytest.approx(acc, rel=1e-6)


def test_quadratic_probe_two_ball_product():
    traj = _short_traj()
    term = (("ball", (0.0, 0.0), 0.2), ("ball", (0.4, 0.0), 0.1))
    got = D.quadratic_weak_limit_probe(traj, [term])
    assert np.isfinite(got) and got > 0


def test_quadratic_probe_rejects_nonseparable():
    traj = _short_traj()
    with pytest.raises(ValueError):
        D.quadratic_weak_limit_probe(traj, [("not-a-factor", "x")])


# --------------------------------------------------------------------------
# trajectory analyses against per-snapshot formulas
# --------------------------------------------------------------------------


def _oracle_ball_mass(u, center, rho):
    if isinstance(u, S.RadialField):
        c = float(np.hypot(*center))
        if c == 0.0:
            return D.ball_mass_radial(u, rho)
        return float(np.sum(D.offcenter_ball_weights_radial(u.grid, c, rho) * u.values))
    return float(np.sum(D.ball_weights_rect(u, center, rho) * u.values))


def _oracle_factor_integral(traj, factor, snap):
    u = traj.field_at(0)
    if isinstance(factor, tuple):
        return _oracle_ball_mass(u.like(snap), np.asarray(factor[1], dtype=float), float(factor[2]))
    if traj.backend == "radial":
        grid = traj.grid
        th = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
        c = grid.centers
        pts = np.stack([c[:, None] * np.cos(th)[None, :], c[:, None] * np.sin(th)[None, :]], axis=-1)
        return float(2.0 * np.pi * np.sum(np.asarray(factor(pts)).mean(axis=1) * snap * grid.vol))
    X, Y = u.cell_centers()
    return float(np.sum(np.asarray(factor(np.stack([X, Y], axis=-1))) * snap) * u.cell_area)


def _oracle_quadratic(traj, phi_terms):
    times = np.asarray(traj.times)
    total = 0.0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt <= 0:
            continue
        mid_val = 0.0
        for g, h in phi_terms:
            ga = 0.5 * (_oracle_factor_integral(traj, g, traj.snapshots[k]) + _oracle_factor_integral(traj, g, traj.snapshots[k + 1]))
            ha = 0.5 * (_oracle_factor_integral(traj, h, traj.snapshots[k]) + _oracle_factor_integral(traj, h, traj.snapshots[k + 1]))
            mid_val += ga * ha
        total += dt * mid_val
    return total


def _oracle_probe_weights(traj, x0, rho):
    """Interior probes only: phi(|x - x0| / rho) on 4 Gauss radii x 128
    angles per disk cell, at the cell centers of the rectangle."""
    bump = lambda pts: np.asarray(phi(np.hypot(pts[..., 0] - x0[0], pts[..., 1] - x0[1]) / rho))
    if traj.backend == "radial":
        gl, glw = np.polynomial.legendre.leggauss(4)
        r_lo, r_hi = traj.grid.faces[:-1][:, None], traj.grid.faces[1:][:, None]
        r = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * gl[None, :]
        wr = 0.5 * (r_hi - r_lo) * glw[None, :]
        th = 2.0 * np.pi * (np.arange(128) + 0.5) / 128
        psi = bump(np.stack([r[..., None] * np.cos(th), r[..., None] * np.sin(th)], axis=-1))
        return np.sum(psi.mean(axis=-1) * 2.0 * np.pi * r * wr, axis=1)
    u0 = traj.field_at(0)
    X, Y = u0.cell_centers()
    return bump(np.stack([X, Y], axis=-1)) * u0.cell_area


def _oracle_moduli(traj, cover):
    if traj.backend == "radial":
        meas = 2.0 * np.pi * traj.grid.vol
    else:
        meas = np.full(traj.snapshots[0].shape, traj.hx * traj.hy)
    dt = np.diff(np.asarray(traj.times))
    keep = dt > 1e-14
    moduli = []
    for psi in cover:
        P = np.asarray([float(np.sum(psi * s * meas)) for s in traj.snapshots])
        rates = np.abs(np.diff(P)[keep] / dt[keep])
        moduli.append(float(rates.max()) if rates.size else 0.0)
    return np.asarray(moduli)


def _oracle_weak_residual(traj, test, n_theta):
    """The disk's weak residual as a loop over the intervals: the midpoint
    rule with each mid-interval mobility's pair terms m K m."""
    grid = traj.grid
    tables = W._radial_kernel_tables(grid, test, n_theta, traj.field_at(0).domain.sigma0)
    eps = traj.reg.epsilon
    if traj.reg.is_cutoff:
        mob, comp = [S.f_eps(s, eps) for s in traj.snapshots], list(traj.snapshots)
    else:
        mob, comp = list(traj.snapshots), [s + eps * s ** (7.0 / 6.0) for s in traj.snapshots]
    p, plap = test.p(grid.centers), test.plap(grid.centers)

    def integral(values):
        return float(np.sum(values * grid.cell_areas))

    times = np.asarray(traj.times)
    L1 = -integral(p * test.zeta(times[0]) * traj.snapshots[0])
    vals = dict.fromkeys(tables, 0.0)
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        if dt <= 1e-15:
            continue
        tm = 0.5 * (times[k] + times[k + 1])
        u_mid = 0.5 * (traj.snapshots[k] + traj.snapshots[k + 1])
        m_mid = 0.5 * (mob[k] + mob[k + 1])
        c_mid = 0.5 * (comp[k] + comp[k + 1])
        zt = float(test.zeta_t(tm))
        zv = float(test.zeta(tm))
        L1 += -dt * zt * integral(p * u_mid)
        L1 += -dt * zv * integral(plap * c_mid)
        for key, K in tables.items():
            vals[key] += dt * zv * float(m_mid @ K @ m_mid)
    return {"L1": L1, **vals}


def _weak_residual_tests(traj):
    """An interior and a boundary-compatible test whose time window closes
    inside the trajectory."""
    t0, t1 = traj.times[0], traj.times[-1]
    hold, off = t0 + 0.3 * (t1 - t0), t0 + 0.8 * (t1 - t0)
    return W.interior_bump_test(0.45, hold, off), W.boundary_compatible_test(hold, off)


def _assert_breakdown_close(qb, want):
    # one tolerance for every term: 1e-12 of the largest
    scale = max(abs(v) for v in want.values())
    for key, value in want.items():
        assert abs(getattr(qb, key) - value) <= 1e-12 * scale, (key, getattr(qb, key), value)


@st.composite
def random_trajectories(draw):
    """A disk or rectangle trajectory of random nonnegative snapshots (some
    at a repeated time), with an interior probe and a partition of unity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_snap = draw(st.integers(2, 5))
    times = np.cumsum(rng.uniform(1e-4, 1e-3, n_snap)) - 1e-4
    if draw(st.booleans()):
        times[-1] = times[-2]
    reg = S.RegKind(draw(st.sampled_from(["cutoff_flux", "nonlinear_diffusion"])), 1e-2)
    rho = draw(st.floats(0.04, 0.12))  # interior bumps fit at every drawn center
    if draw(st.booleans()):
        grid = S.make_radial_grid(draw(st.integers(16, 96)), draw(st.sampled_from([1.0, 1.02])))
        snaps = [rng.uniform(0.0, 2.0, grid.n) for _ in range(n_snap)]
        traj = S.Trajectory("radial", reg, S.SolverConfig(), list(times), snaps, [], grid=grid)
        radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.6)))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        x0 = (radius * np.cos(angle), radius * np.sin(angle))
        cover = SW.build_radial_partition(grid, draw(st.integers(3, 8)))
    else:
        nx, ny = draw(st.integers(8, 32)), draw(st.integers(8, 32))
        hx, hy = 1.0 / nx, draw(st.floats(0.8, 1.2)) / ny
        snaps = [rng.uniform(0.0, 2.0, (nx, ny)) for _ in range(n_snap)]
        traj = S.Trajectory("rect", reg, S.SolverConfig(), list(times), snaps, [], hx=hx, hy=hy)
        x0 = (draw(st.floats(0.35, 0.65)), draw(st.floats(0.35, 0.65)) * ny * hy)
        X, _ = traj.field_at(0).cell_centers()
        cover = [X, 1.0 - X]
    return traj, (x0, rho), cover


@given(random_trajectories())
@settings(max_examples=40, deadline=None)
def test_trajectory_analyses_match_per_snapshot_formulas(case):
    traj, (x0, rho), cover = case
    x0 = np.asarray(x0)
    fields = [traj.field_at(k) for k in range(len(traj.times))]
    rel = dict(rtol=1e-12, atol=0.0)

    lp = D.local_lp(traj, (x0, rho), 1.5)
    np.testing.assert_allclose(lp["lp"], [_oracle_ball_mass(u.like(u.values**1.5), x0, rho) for u in fields], **rel)
    np.testing.assert_allclose(lp["mass4"], [_oracle_ball_mass(u, x0, 4.0 * rho) for u in fields], **rel)

    series = D.local_mass_rate(traj, (x0, rho))
    w = _oracle_probe_weights(traj, x0, rho)
    pm = np.array([float(np.sum(w * snap)) for snap in traj.snapshots])
    np.testing.assert_allclose(series.weighted_mass, pm, **rel)
    dt = np.diff(np.asarray(traj.times))
    keep = dt > 1e-14
    rate = np.where(keep, np.diff(pm) / np.where(keep, dt, 1.0), 0.0)
    # a rate is a difference of two masses over dt: the masses' rounding,
    # not the difference, sets its error, and two close masses leave it a
    # large part of a small rate.  A repeated time has rate 0 on both sides.
    tol = np.where(keep, rel["rtol"] * np.max(np.abs(pm)) / np.where(keep, dt, 1.0), 0.0)
    assert np.all(np.abs(series.rate - rate) <= tol)
    if not traj.reg.is_cutoff:
        # the ball sits at the probe center, off-center disk probes included
        u76 = [_oracle_ball_mass(u.like(u.values ** (7.0 / 6.0)), x0, rho) for u in fields]
        np.testing.assert_allclose(series.ball_u76, u76, **rel)

    g = lambda pts: np.exp(-((pts[..., 0] - x0[0]) ** 2 + (pts[..., 1] - x0[1]) ** 2) / 0.1)
    h = lambda pts: 1.0 + pts[..., 0] ** 2
    for terms in ([(g, h)], [(("ball", x0, rho), g)], [(("ball", x0, rho), ("ball", (0.0, 0.0), 2.0 * rho))]):
        got = D.quadratic_weak_limit_probe(traj, terms)
        np.testing.assert_allclose(got, _oracle_quadratic(traj, terms), **rel)

    # independent random snapshots: the patch masses differ by O(1) from one
    # snapshot to the next, so the quotients keep the masses' relative rounding
    np.testing.assert_allclose(SW.mass_change_modulus(traj, cover)["moduli"], _oracle_moduli(traj, cover), **rel)

    if traj.backend == "radial":
        for test in _weak_residual_tests(traj):
            _assert_breakdown_close(W.weak_residual(traj, test, n_theta=16), _oracle_weak_residual(traj, test, 16))


@pytest.mark.parametrize("k, gap", [(2, 0.0), (4, 5e-15)])
@pytest.mark.parametrize("variant", ["cutoff_flux", "nonlinear_diffusion"])
@pytest.mark.parametrize("backend", ["radial", "rect"])
def test_repeated_snapshot_changes_no_analysis(backend, variant, k, gap):
    # the driver records one time twice when the concentration flag and the
    # snapshot clock fire on one step: an interval no longer than
    # REPEATED_TIME, on which a rate is 0 and which a time integral does not
    # weigh.  Snapshot k is recorded again ``gap`` later (a gap only at the
    # end, where it shifts no other interval).
    rng = np.random.default_rng(7)
    times = [0.0, 2e-4, 5e-4, 9e-4, 1.2e-3]
    reg = S.RegKind(variant, 1e-2)
    if backend == "radial":
        grid = S.make_radial_grid(48, 1.02)
        snaps = [rng.uniform(0.0, 2.0, grid.n) for _ in times]
        geometry = {"grid": grid}
        cover = SW.build_radial_partition(grid, 5)
    else:
        snaps = [rng.uniform(0.0, 2.0, (16, 16)) for _ in times]
        geometry = {"hx": 1.0 / 16, "hy": 1.0 / 16}
    base, repeated = (
        S.Trajectory(backend, reg, S.SolverConfig(), t, s, [], **geometry)
        for t, s in (
            (times, snaps),
            (times[: k + 1] + [times[k] + gap] + times[k + 1 :], snaps[: k + 1] + snaps[k:]),
        )
    )
    if backend == "rect":
        X, _ = base.field_at(0).cell_centers()
        cover = [X, 1.0 - X]
    x0, rho = np.array([0.45, 0.5]), 0.1
    tests = _weak_residual_tests(base) if backend == "radial" else (W.interior_bump_test(0.3, 3e-4, 1e-3),)
    rel = dict(rtol=1e-13, atol=0.0)

    got, want = D.local_mass_rate(repeated, (x0, rho)), D.local_mass_rate(base, (x0, rho))
    assert got.rate[k] == 0.0
    np.testing.assert_allclose(np.delete(got.weighted_mass, k), want.weighted_mass, **rel)
    np.testing.assert_allclose(np.delete(got.rate, k), want.rate, **rel)
    if want.ball_u76 is not None:
        np.testing.assert_allclose(np.delete(got.rho2_onesided, k), want.rho2_onesided, **rel)
    terms = [(("ball", x0, rho), lambda pts: 1.0 + pts[..., 0] ** 2)]
    np.testing.assert_allclose(
        D.quadratic_weak_limit_probe(repeated, terms), D.quadratic_weak_limit_probe(base, terms), **rel
    )
    np.testing.assert_allclose(
        SW.mass_change_modulus(repeated, cover)["moduli"], SW.mass_change_modulus(base, cover)["moduli"], **rel
    )
    for test in tests:
        got, want = W.weak_residual(repeated, test, n_theta=16), W.weak_residual(base, test, n_theta=16)
        _assert_breakdown_close(got, {key: getattr(want, key) for key in ("L1", *W._TABLE_KEYS)})


# --------------------------------------------------------------------------
# stacked states: the driver computes its per-step rows a block at a time
# --------------------------------------------------------------------------

_SPECIAL_VALUES = np.array([0.0, 1e-300, -1e-14, 0.7, 1.0, 3.0])


@st.composite
def entropy_stacks(draw):
    n_rows = draw(st.integers(1, 40))
    if draw(st.booleans()):
        grid = S.make_radial_grid(draw(st.integers(2, 256)), draw(st.floats(1.0, 1.01)))
        field = S.RadialField(grid, np.empty(grid.n))
    else:
        nx, ny = draw(st.integers(2, 48)), draw(st.integers(2, 48))
        field = S.Field(draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)), np.empty((nx, ny)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = n_rows * field.values.size
    # exact zeros, values under the log floor and cells below zero among
    # log-normal values; or positive values only, with at most one vacuum
    # cell: then one row takes the kernel's vacuum branch alone
    vacuum = draw(st.sampled_from(["mixed", "one_row", "none"]))
    special = draw(st.floats(0.0, 1.0)) if vacuum == "mixed" else 0.0
    vals = np.where(rng.random(size) < special, rng.choice(_SPECIAL_VALUES, size), rng.lognormal(0.0, 3.0, size))
    if vacuum == "one_row":
        vals[rng.integers(size)] = rng.choice([0.0, 1e-300])
    shape = (n_rows, *field.values.shape)
    rows = vals.reshape(shape)
    v = rng.normal(0.0, 30.0, shape) if draw(st.booleans()) else None
    u_t = rng.normal(0.0, 1e3, shape) if draw(st.booleans()) else None
    epsilon = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.3]))
    return field, rows, v, u_t, epsilon


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@given(entropy_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_rows_match_one_state_calls(case):
    field, rows, v, u_t, epsilon = case
    with np.errstate(over="raise", invalid="raise"):
        E, Dv, int_u76 = D.entropy(field.like(rows), None if v is None else field.like(v), epsilon, u_t)
        mass = field.row_integrals(rows)
        one = [
            D.entropy(
                field.like(row), None if v is None else field.like(v[k]), epsilon, None if u_t is None else u_t[k]
            )
            for k, row in enumerate(rows)
        ]
    assert E.shape == Dv.shape == mass.shape == int_u76.shape == (len(rows),)
    assert _bits(E) == _bits([e for e, _, _ in one])
    assert _bits(Dv) == _bits([d for _, d, _ in one])
    assert _bits(mass) == _bits([field.like(row).mass() for row in rows])
    assert _bits(int_u76) == _bits([i76 for _, _, i76 in one])
    # u^{7/6} is taken as u exp(log u / 6)
    np.testing.assert_allclose(
        int_u76, field.row_integrals(np.maximum(rows, 0.0) ** (7.0 / 6.0)), rtol=1e-13, atol=0.0
    )


def test_ball_mass_map_rect_matches_direct_overlap_sum():
    # the real-FFT convolution against each cell's own exact overlap
    # weights, on non-square cells, with balls that reach the walls
    u = S.Field(1.0 / 24, 0.5 / 20, np.random.default_rng(5).uniform(0.0, 3.0, (24, 20)))
    X, Y = u.cell_centers()
    for rho in (0.03, 0.11, 0.3):
        mmap = D.ball_mass_map_rect(u, rho)
        direct = np.array(
            [[np.sum(D.ball_weights_rect(u, (X[i, j], Y[i, j]), rho) * u.values) for j in range(20)] for i in range(24)]
        )
        assert mmap.shape == direct.shape
        assert np.max(np.abs(mmap - direct)) <= 1e-12 * np.max(direct), rho


def test_random_band_limited_field_matches_complex_low_pass():
    # the half-spectrum low pass equals the full complex one to rounding,
    # and the field still takes one normal draw from the generator
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    k = np.fft.fftfreq(96, d=1.0 / 96)
    mask = (np.abs(k)[:, None] <= 6) & (np.abs(k)[None, :] <= 6)
    for _ in range(5):
        u = D.random_band_limited_field(96, 1.0, rng)
        smooth = np.real(np.fft.ifft2(mask * np.fft.fft2(ref_rng.normal(size=(96, 96)))))
        assert (u.hx, u.hy, u.values.shape) == (1.0 / 96, 1.0 / 96, (96, 96))
        assert np.max(np.abs(u.values - smooth**2)) <= 1e-13 * np.max(smooth**2)
    assert rng.normal() == ref_rng.normal()
