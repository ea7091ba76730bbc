import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslab import greens
from kslab.geometry import unit_disk


def disk_points(rng, n, r_max=0.99):
    r = np.sqrt(rng.uniform(0, r_max**2, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def test_symmetry_exact(rng):
    a = disk_points(rng, 100)
    b = disk_points(rng, 100)
    ok = np.hypot(*(a - b).T) > 1e-6
    ga = np.asarray(greens.greens_disk_exact(a[ok], b[ok]))
    gb = np.asarray(greens.greens_disk_exact(b[ok], a[ok]))
    assert np.max(np.abs(ga - gb)) <= 1e-12


def test_singularity_raises():
    x = np.array([0.3, 0.2])
    with pytest.raises(greens.SingularityError):
        greens.greens_disk_exact(x, x)


def test_mean_zero_constant_is_analytic():
    # c0 = -3/(8 pi) makes the disk mean vanish; quadrature confirms
    for x in (np.array([0.4, 0.0]), np.array([0.9, 0.2]), np.array([0.0, 0.0])):
        assert abs(greens.disk_mean_of_greens(x)) <= 1e-8


def test_neumann_boundary_derivative():
    # 4th-order one-sided inward stencil at mesh 1/512
    h = 1.0 / 512.0
    src = np.array([0.2, 0.3])
    for th in (0.7, 2.1, 4.4):
        b = np.array([np.cos(th), np.sin(th)])
        f = [greens.greens_disk_exact(b - k * h * b, src) for k in range(5)]
        d = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
        assert abs(d) <= 1e-8


def test_gradient_matches_finite_differences(rng):
    pts = disk_points(rng, 40, 0.95)
    for k in range(0, len(pts) - 1, 2):
        x, y = pts[k], pts[k + 1]
        if np.hypot(*(x - y)) < 0.05:
            continue
        h = 1e-5
        fd = np.array(
            [
                (greens.greens_disk_exact(x + h * e, y) - greens.greens_disk_exact(x - h * e, y)) / (2 * h)
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            ]
        )
        assert np.allclose(greens.grad_x_greens_disk_exact(x, y), fd, atol=1e-9)


def test_cutoff_profile_values():
    s0 = 0.25
    assert greens.cutoff_z_value(0.1, s0) == 1.0
    assert greens.cutoff_z_value(0.6, s0) == 0.0
    assert greens.cutoff_z_value(0.375, s0) == pytest.approx(0.5)


@given(st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_cutoff_monotone_in_d(d):
    s0 = 0.25
    z1 = greens.cutoff_z_value(d, s0)
    z2 = greens.cutoff_z_value(d + 1e-3, s0)
    assert 0.0 <= z1 <= 1.0
    assert z2 <= z1 + 1e-12


def test_cutoff_c2_at_junctions():
    # quintic smoothstep: curvature vanishes at both junctions, so the
    # centered second difference across them decays linearly with the step
    s0 = 0.25
    for d0 in (s0, 2 * s0):
        seconds = []
        for h in (1e-4, 1e-5):
            vals = [greens.cutoff_z_value(d0 + k * h, s0) for k in (-1, 0, 1)]
            seconds.append(abs((vals[0] - 2 * vals[1] + vals[2]) / h**2))
        assert seconds[0] < 0.2
        assert seconds[1] < 0.12 * seconds[0] + 1e-9


def test_remainder_k_bounded_and_diag(decomp, rng):
    y = disk_points(rng, 1000, 0.999)
    x = disk_points(rng, 1000, 0.999)
    ok = np.hypot(*(y - x).T) > 1e-9
    vals = np.asarray(greens.remainder_k_exact(decomp, y[ok], x[ok]))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0  # bounded on the closed disk pair space
    # diagonal limit consistency: K(y, x) -> K(y, y) as x -> y
    for ybase in (np.array([0.3, 0.1]), np.array([0.85, 0.0]), np.array([0.0, 0.0])):
        lim = greens.remainder_k_diagonal(decomp, ybase)
        seq = [
            greens.remainder_k_exact(decomp, ybase, ybase + np.array([t, 0.5 * t]))
            for t in (1e-3, 1e-5, 1e-7)
        ]
        assert abs(seq[-1] - lim) < 1e-4


def test_remainder_k_continuity_modulus(decomp, rng):
    pts = disk_points(rng, 300, 0.98)
    y, x = pts[:150], pts[150:]
    ok = np.hypot(*(y - x).T) > 0.05
    y, x = y[ok], x[ok]
    base = np.asarray(greens.remainder_k_exact(decomp, y, x))
    step = 1e-4
    shifted = np.asarray(greens.remainder_k_exact(decomp, y + step, x))
    modulus = np.max(np.abs(shifted - base)) / (np.sqrt(2) * step)
    assert np.isfinite(modulus)
    assert modulus < 50.0  # measured Lipschitz-type bound, order-one scale


def test_free_space_reduction(decomp):
    # with Z forced to zero and the image log dropped from G, the remainder
    # collapses to the polynomial part (|x|^2+|y|^2)/(4 pi) + c0
    def free_space(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        sep = np.hypot(x[..., 0] - y[..., 0], x[..., 1] - y[..., 1])
        return (
            -np.log(sep) / (2 * np.pi)
            + (np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)) / (4 * np.pi)
            + greens.C0_DISK
        )

    y = np.array([[0.1, 0.0], [0.2, -0.1], [-0.15, 0.1]])
    x = np.array([[0.0, 0.2], [-0.1, 0.15], [0.2, 0.05]])
    k = np.asarray(greens.remainder_k_exact(decomp, y, x, greens_fn=free_space, force_z=0.0))
    expect = (np.sum(y * y, axis=-1) + np.sum(x * x, axis=-1)) / (4 * np.pi) + greens.C0_DISK
    assert np.allclose(k, expect, atol=1e-14)


def test_grad_terms_interior_pair(decomp):
    # far from the boundary the image and curvature terms carry Z(y) = 0
    x = np.array([0.1, 0.05])
    y = np.array([-0.2, 0.1])
    t = greens.grad_x_G_terms(decomp, x, y)
    assert np.all(t.image == 0.0)
    assert np.all(t.curvature == 0.0)
    gk = greens.grad_x_remainder_k_exact(decomp, y, x)
    assert np.allclose(t.w_remainder, gk, atol=1e-14)


def test_g_normal_value():
    # direct evaluation at Y=0, lambda1=lambda2=1/2
    assert greens.g_normal(np.zeros(2), 0.5, 0.5) == pytest.approx(0.25)


def test_g_kernels_scale_invariance(rng):
    # degree-zero homogeneity: rescaling the underlying configuration
    # (chord, distances) leaves the normalized variables unchanged
    for _ in range(50):
        ell = rng.uniform(0.01, 0.5)
        dx, dy = rng.uniform(0.01, 0.3, 2)
        for s in (1.0, 0.37, 4.2):
            D = (s * ell) ** 2 + (s * dx + s * dy) ** 2
            Y = np.array([s * ell, 0.0]) / np.sqrt(D)
            l1, l2 = s * dx / np.sqrt(D), s * dy / np.sqrt(D)
            if s == 1.0:
                ref = (greens.g_tangential(Y, l1, l2).copy(), greens.g_normal(Y, l1, l2))
            else:
                assert np.allclose(greens.g_tangential(Y, l1, l2), ref[0], atol=1e-14)
                assert greens.g_normal(Y, l1, l2) == pytest.approx(ref[1], abs=1e-14)


def test_similarity_normalization_collar(decomp, rng):
    pts = disk_points(rng, 200, 0.999)
    d = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
    collar = pts[d < 0.5]
    x, y = collar[: len(collar) // 2], collar[len(collar) // 2 :]
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    ok = np.hypot(*(x - y).T) > 1e-6
    t = greens.grad_x_G_terms(decomp, x[ok], y[ok])
    norm = np.sum(t.y_sim**2, axis=-1) + (t.lambda1 + t.lambda2) ** 2
    assert np.allclose(norm, 1.0, atol=1e-12)


def test_decomposition_total_is_exact_gradient(decomp, rng):
    pts = disk_points(rng, 120, 0.995)
    x, y = pts[:60], pts[60:]
    ok = np.hypot(*(x - y).T) > 0.02
    t = greens.grad_x_G_terms(decomp, x[ok], y[ok])
    exact = greens.grad_x_greens_disk_exact(x[ok], y[ok])
    assert np.allclose(t.total, exact, atol=1e-12)


def test_w_remainder_continuity_near_diagonal(decomp):
    # W stays finite and settles as x -> y inside the collar
    y = np.array([0.85, 0.1])
    vals = []
    for t in (1e-2, 1e-3, 1e-4):
        x = y + np.array([t, -0.3 * t])
        vals.append(greens.grad_x_G_terms(decomp, x, y).w_remainder)
    vals = np.asarray(vals)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals[-1] - vals[-2])) < 1e-2
