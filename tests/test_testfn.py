import numpy as np
import pytest

from kslab import testfn as T
from kslab.geometry import GeometryError, unit_disk

DISK = unit_disk()


def test_phi_values():
    assert T.phi(0.0) == 1.0
    assert T.phi(1.0) == pytest.approx(0.5)
    assert T.phi(T.PHI_LOG_KNEE) == pytest.approx(0.25)
    assert T.phi(T.PHI_SUPPORT) == 0.0
    assert T.phi(5.0) == 0.0


def test_phi_c1_at_breakpoints():
    tiny = 1e-9
    for b, slope in ((1.0, -1.0), (T.PHI_LOG_KNEE, -np.exp(-0.25))):
        left = T.phi_deriv(b - tiny)
        right = T.phi_deriv(b + tiny)
        assert left == pytest.approx(slope, abs=1e-8)
        assert abs(left - right) < 1e-8
    assert T.phi_deriv(T.PHI_SUPPORT - 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_phi_range(rng):
    r = rng.uniform(0, 4, 2000)
    v = T.phi(r)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_psi_interior_center_values():
    rho = 0.05
    x0 = np.array([0.1, 0.2])
    bump = T.InteriorBump(x0, rho)
    assert bump.value(x0) == pytest.approx(1.0)
    assert np.allclose(bump.gradient(x0), 0.0)
    assert bump.laplacian(x0) == pytest.approx(-2.0 / rho**2)


def test_psi_interior_laplacian_pieces():
    rho = 0.1
    bump = T.InteriorBump(np.zeros(2), rho)
    x_annulus = np.array([1.2 * rho, 0.0])
    assert bump.laplacian(x_annulus) == 0.0
    x_outer = np.array([1.4 * rho, 0.0])
    expect = (2.0 / rho**2) * np.exp(-0.5) * (2.0 - T.PHI_SUPPORT / 1.4)
    lap = bump.laplacian(x_outer)
    assert lap == pytest.approx(expect)
    assert lap > 0.0


def test_psi_interior_gradient_fd():
    rho = 0.07
    bump = T.InteriorBump(np.array([0.1, -0.05]), rho)
    h = 1e-7
    for p in (np.array([0.13, -0.02]), np.array([0.1 + 0.09 * rho * 10, 0.0])):
        fd = np.array(
            [
                (bump.value(p + [h, 0]) - bump.value(p - [h, 0])) / (2 * h),
                (bump.value(p + [0, h]) - bump.value(p - [0, h])) / (2 * h),
            ]
        )
        assert np.allclose(bump.gradient(p), fd, atol=1e-6)


def test_psi_interior_support_precondition():
    with pytest.raises(GeometryError):
        T.InteriorBump(np.array([0.95, 0.0]), 0.1, domain=DISK)


def test_symmetrized_kernel_bound(rng):
    # |(x-y).(grad psi(x)-grad psi(y))| / |x-y|^2 <= C / rho^2
    rho = 0.08
    bump = T.InteriorBump(np.zeros(2), rho)
    pts = rng.uniform(-0.4, 0.4, size=(10_000, 2))
    x, y = pts[:5000], pts[5000:]
    sep2 = np.sum((x - y) ** 2, axis=-1)
    ok = sep2 > 1e-12
    gx = bump.gradient(x)
    gy = bump.gradient(y)
    ratio = np.abs(np.sum((x - y) * (gx - gy), axis=-1))[ok] / sep2[ok]
    C = np.max(ratio) * rho**2
    assert np.isfinite(C)
    assert C < 10.0


def _stencil_gaps(bump, x, h_grad, h_lap):
    """rho |grad - central differences of value| and rho^2 |laplacian -
    five-point stencil of value|, maxima over the points x."""
    e = np.eye(2)
    fd_grad = np.stack(
        [(bump.value(x + h_grad * e[k]) - bump.value(x - h_grad * e[k])) / (2 * h_grad) for k in range(2)], axis=-1
    )
    fd_lap = (sum(bump.value(x + s * h_lap * e[k]) for k in range(2) for s in (1, -1)) - 4 * bump.value(x)) / h_lap**2
    rho = bump.rho
    grad_gap = rho * np.max(np.hypot(*(bump.gradient(x) - fd_grad).T))
    lap_gap = rho**2 * np.max(np.abs(bump.laplacian(x) - fd_lap))
    return grad_gap, lap_gap


def _interface_distance(bump, X):
    """Distance in X of half-plane points to the nearest region interface:
    the ball boundaries (which bound the lens), the core and ring edges,
    and the lens quadrature's near/far switch."""
    r = np.hypot(X[:, 0], X[:, 1])
    d = [np.abs(r - bump.lambda0), np.abs(r - bump.lambda0 - 1.0)]
    d += [np.abs(np.hypot(*(X - c).T) - 1.0) for c in (bump.c1, bump.c2)]
    if bump.lens is not None:
        d.append(np.abs(r - T._LensQuadrature.R_NEAR))
    return np.min(d, axis=0)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_boundary_bump_derivatives_match_values(a):
    # outside the overlap lens: gradient against central differences at
    # h = 1e-3 rho, Laplacian against the five-point stencil at 0.02 rho
    rho, th0 = 0.02, 0.7
    rng = np.random.default_rng(int(100 * a))
    bump = T.build_boundary_bump(DISK, (1.0 - a * rho) * np.array([np.cos(th0), np.sin(th0)]), rho)
    # half-plane points over the support, mapped back to the disk
    X = np.stack([rng.uniform(-9.5, 9.5, 6000), rng.uniform(0.0, 9.5, 6000)], axis=-1)
    in_lens = bump._in_lens(X) if bump.lens is not None else np.zeros(len(X), dtype=bool)

    def disk_points(X):
        ang = th0 + rho * X[:, 0]
        return (1.0 - rho * X[:, 1])[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    away = _interface_distance(bump, X) > 0.05
    x = disk_points(X[away & ~in_lens][:400])
    assert np.allclose(bump.x_coords(x), X[away & ~in_lens][:400])
    grad_gap, lap_gap = _stencil_gaps(bump, x, 1e-3 * rho, 0.02 * rho)
    assert grad_gap <= 2e-3
    assert lap_gap <= 3e-3
    if 0.0 < a < 1.0:
        # inside the lens the value is a point-mass quadrature: the
        # stencil must span several node spacings (the gap there reaches
        # about 0.05 at 0.1 rho and 0.5 at 0.02 rho)
        Xl = np.stack([rng.uniform(-1.0, 1.0, 3000), rng.uniform(0.0, 1.0, 3000)], axis=-1)
        Xl = Xl[bump._in_lens(Xl) & (_interface_distance(bump, Xl) > 0.15)][:60]
        assert len(Xl) >= 20
        grad_gap, lap_gap = _stencil_gaps(bump, disk_points(Xl), 0.1 * rho, 0.1 * rho)
        assert grad_gap <= 2e-3
        assert lap_gap <= 0.1


def test_interior_bump_derivatives_match_values(rng):
    rho = 0.07
    bump = T.InteriorBump(np.array([0.1, -0.05]), rho)
    x = bump.x0 + rng.uniform(-1.7 * rho, 1.7 * rho, size=(600, 2))
    r = np.hypot(*(x - bump.x0).T) / rho
    knees = np.min([np.abs(r - b) for b in (1.0, T.PHI_LOG_KNEE, T.PHI_SUPPORT)], axis=0)
    grad_gap, lap_gap = _stencil_gaps(bump, x[knees > 0.05], 1e-3 * rho, 0.02 * rho)
    assert grad_gap <= 2e-3
    assert lap_gap <= 3e-3


def test_lens_area_limits():
    assert T.lens_area(0.0) == pytest.approx(np.pi)
    assert T.lens_area(2.0) == 0.0
    assert T.lens_area(2.5) == 0.0
    # monotone decreasing in the center distance
    d = np.linspace(0, 2, 40)
    areas = [T.lens_area(t) for t in d]
    assert all(a >= b - 1e-14 for a, b in zip(areas, areas[1:]))


def test_half_plane_source_ball_stencil():
    # Lap Psi-tilde = -1 inside the source half-ball: stencil the closed-form
    # ball potentials; the lens Laplacian is its defining indicator
    bump = T.BoundaryBump(DISK, np.array([0.984, 0.0]), 0.02, 8.0)  # a = 0.8
    h = 1.0 / 512.0
    X0 = np.array([0.0, bump.a])
    probes = [X0 + np.array([0.2, 0.3]), X0 + np.array([-0.3, 0.1]), X0]
    for X in probes:
        sten = 0.0
        for dxy in ([h, 0], [-h, 0], [0, h], [0, -h]):
            z = X + dxy
            sten += T._ball_potential(z - bump.c1) + T._ball_potential(z - bump.c2)
        sten -= 4 * (T._ball_potential(X - bump.c1) + T._ball_potential(X - bump.c2))
        sten /= h * h
        in_lens = (np.hypot(*(X - bump.c1)) <= 1) and (np.hypot(*(X - bump.c2)) <= 1)
        total = sten - (-1.0 if in_lens else 0.0)
        assert total == pytest.approx(-1.0, abs=5e-4)


def test_bump_support_radius_and_lambda():
    bump = T.build_boundary_bump(DISK, np.array([0.98, 0.0]), 0.02)
    assert bump.Lambda == pytest.approx(10.0)  # lambda0 + 2 with default 8
    # the matching mismatch is the measured stand-in for the C/lambda0^2
    # error; the build keeps it below 1% of the union mass
    assert bump.matching_mismatch <= 0.01 * bump.m


@pytest.mark.parametrize(
    "x0,rho",
    [
        (np.array([1.0, 0.0]), 0.02),  # center on the wall
        (np.array([0.98, 0.0]), 0.02),  # depth = rho
        (np.array([0.98, 0.0]), 0.01),  # depth = 2 rho
    ],
)
def test_bump_verification_gates(x0, rho):
    bump = T.build_boundary_bump(DISK, x0, rho)
    rep = T.verify_bump(bump, n_samples=400)
    assert rep.core_laplacian_rel_err <= 0.05
    assert rep.neumann_residual <= 1e-6
    assert rep.min_on_core >= 0.5
    assert rep.support_leak == 0.0
    assert rep.annulus_min_laplacian >= -0.12
    assert rep.passed


def test_bump_rejects_bad_geometry():
    with pytest.raises(GeometryError):
        T.build_boundary_bump(DISK, np.array([0.5, 0.0]), 0.02)  # too deep
    with pytest.raises(GeometryError):
        T.build_boundary_bump(DISK, np.array([1.0, 0.0]), 0.5)  # rho beyond rho0


def test_bump_mass_scale_m():
    # m = |union of source and mirror ball| via the lens-area formula
    b0 = T.BoundaryBump(DISK, np.array([1.0, 0.0]), 0.02, 8.0)
    assert b0.m == pytest.approx(np.pi)
    b2 = T.BoundaryBump(DISK, np.array([0.96, 0.0]), 0.02, 8.0)
    assert b2.m == pytest.approx(2 * np.pi)


def test_max_admissible_rho_reports():
    rho = T.max_admissible_rho(DISK, 0.0, 1.0, start=0.04)
    assert rho > 0.0
