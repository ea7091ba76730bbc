import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kslab import checks, greens
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
    # where Z(y) = 0 the remainder keeps no image log: K(y, x) is G plus the
    # free-space log, i.e. the smooth image part of G and the polynomial part
    # (|x|^2+|y|^2)/(4 pi) + c0
    y = np.array([[0.1, 0.0], [0.2, -0.1], [-0.15, 0.1]])
    x = np.array([[0.0, 0.2], [-0.1, 0.15], [0.2, 0.05]])
    assert np.all(greens.cutoff_Z(decomp, y) == 0.0)
    k = np.asarray(greens.remainder_k_exact(decomp, y, x))
    xx, yy = np.sum(x * x, axis=-1), np.sum(y * y, axis=-1)
    image = -np.log(xx * yy - 2 * np.sum(x * y, axis=-1) + 1) / (4 * np.pi)
    expect = image + (xx + yy) / (4 * np.pi) + greens.C0_DISK
    assert np.allclose(k, expect, rtol=0.0, atol=1e-14)


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


# Reference formulas: the (..., 2)-array evaluation that the component-array
# implementation replaced, kept as the oracle for the property tests below.


def _ref_greens(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    if np.any(sep2 < 1e-28):
        raise greens.SingularityError("singular")
    rx2 = x[..., 0] ** 2 + x[..., 1] ** 2
    ry2 = y[..., 0] ** 2 + y[..., 1] ** 2
    # rx2 ry2 - 2 x.y + 1, in the form that does not cancel at the boundary
    image2 = sep2 + (1.0 - rx2) * (1.0 - ry2)
    return -(np.log(sep2) + np.log(image2)) / (4.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + greens.C0_DISK


def _ref_grad_x_greens(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    dx = x - y
    sep2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
    if np.any(sep2 < 1e-28):
        raise greens.SingularityError("singular")
    rx2 = x[..., 0] ** 2 + x[..., 1] ** 2
    ry2 = y[..., 0] ** 2 + y[..., 1] ** 2
    image2 = (sep2 + (1.0 - rx2) * (1.0 - ry2))[..., None]
    return -(dx / sep2[..., None] + (ry2[..., None] * x - y) / image2) / (2.0 * np.pi) + x / (2.0 * np.pi)


def _ref_remainder_k(decomp, y, x):
    yb, xb = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
    gv = np.asarray(_ref_greens(xb, yb))
    sep = np.hypot(xb[..., 0] - yb[..., 0], xb[..., 1] - yb[..., 1])
    z = np.asarray(greens.cutoff_Z(decomp, yb))
    image_log = np.zeros(sep.shape)
    mask = z > 0.0
    if np.any(mask):
        tau = greens.reflect_tau(decomp.domain, yb[mask])
        image_log[mask] = z[mask] * np.log(
            np.hypot(xb[mask][..., 0] - tau[..., 0], xb[mask][..., 1] - tau[..., 1])
        )
    return gv + (np.log(sep) + image_log) / (2.0 * np.pi)


def _ref_grad_x_remainder_k(decomp, y, x):
    yb, xb = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
    grad = _ref_grad_x_greens(xb, yb)
    dx = xb - yb
    sep2 = (dx[..., 0] ** 2 + dx[..., 1] ** 2)[..., None]
    grad = grad + dx / sep2 / (2.0 * np.pi)
    z = np.asarray(greens.cutoff_Z(decomp, yb))
    mask = z > 0.0
    if np.any(mask):
        tau = greens.reflect_tau(decomp.domain, yb[mask])
        dxt = xb[mask] - tau
        sept2 = (dxt[..., 0] ** 2 + dxt[..., 1] ** 2)[..., None]
        grad[mask] += z[mask][..., None] * dxt / sept2 / (2.0 * np.pi)
    return grad


def _ref_grad_x_G_terms(decomp, x, y):
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    exact = _ref_grad_x_greens(xb, yb)
    dx = xb - yb
    sep2 = (dx[..., 0] ** 2 + dx[..., 1] ** 2)[..., None]
    coulomb = -dx / sep2 / (2.0 * np.pi)
    rx = np.hypot(xb[..., 0], xb[..., 1])
    ry = np.hypot(yb[..., 0], yb[..., 1])
    dxv = 1.0 - rx
    dyv = 1.0 - ry
    z = np.asarray(greens.cutoff_z_value(dyv, decomp.sigma0))
    ok = (rx > 1e-14) & (ry > 1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):
        nux = np.where(ok[..., None], xb / np.maximum(rx, 1e-300)[..., None], np.nan)
        nuy = np.where(ok[..., None], yb / np.maximum(ry, 1e-300)[..., None], np.nan)
    dp = (xb + dxv[..., None] * nux) - (yb + dyv[..., None] * nuy)
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
    h_y = np.where(ok, 1.0 / np.maximum(ry, 1e-300), 0.0)
    Yf = np.where(np.isfinite(Y), Y, 0.0)
    l1, l2 = np.where(ok, lam1, 0.0), np.where(ok, lam2, 0.0)
    gt = greens.g_tangential(Yf, l1, l2)
    gn = np.asarray(greens.g_normal(Yf, l1, l2))
    curvature = np.where(
        zmask[..., None], -(zcol * h_y[..., None] / (2.0 * np.pi)) * (gt + gn[..., None] * nuy), 0.0
    )
    conditioning = np.full(D.shape, np.nan)
    if np.any(zmask):
        tau = greens.reflect_tau(decomp.domain, yb[zmask])
        conditioning[zmask] = np.sum((xb[zmask] - tau) ** 2, axis=-1) / D[zmask]
    return {
        "coulomb": coulomb,
        "image": image,
        "curvature": curvature,
        "w_remainder": exact - coulomb - image - curvature,
        "d_denominator": D,
        "y_sim": Y,
        "lambda1": lam1,
        "lambda2": lam2,
        "image_conditioning": conditioning,
    }


def _assert_matches(new, ref, name):
    new = np.asarray(new, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert new.shape == ref.shape, name
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(new), nan), name
    scale = np.max(np.abs(ref[~nan]), initial=0.0)
    new, ref = new[~nan], ref[~nan]
    # equal entries match, also equal infinities (inf - inf is nan)
    assert np.all((new == ref) | (np.abs(new - ref) <= 1e-13 * scale)), name


_DISK = unit_disk()
# center, boundary, and the collar junctions d = sigma0 and d = 2 sigma0
_RADII = st.one_of(st.sampled_from([0.0, 1.0, 1.0 - _DISK.sigma0, 1.0 - 2.0 * _DISK.sigma0]), st.floats(0.0, 1.0))
_ANGLES = st.one_of(st.sampled_from([0.0, 0.5 * np.pi]), st.floats(0.0, 2.0 * np.pi))


@st.composite
def point_arguments(draw):
    """(x, y) of shapes (2,) / (N, 2) / (N, 1, 2) that broadcast together."""

    def points(k):
        r = np.array(draw(st.lists(_RADII, min_size=k, max_size=k)))
        th = np.array(draw(st.lists(_ANGLES, min_size=k, max_size=k)))
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    n = draw(st.integers(1, 8))
    layout = draw(st.sampled_from(["pairs", "x_single", "y_single", "single", "outer"]))
    if layout == "pairs":
        return points(n), points(n)
    if layout == "x_single":
        return points(1)[0], points(n)
    if layout == "y_single":
        return points(n), points(1)[0]
    if layout == "single":
        return points(1)[0], points(1)[0]
    return points(n)[:, None], points(draw(st.integers(1, 4)))


_BOUNDARY_PAIR = (np.array([[1.0, 0.0]]), np.array([[1.0, 7.1557689e-10]]))


def test_boundary_pair_is_finite(decomp):
    # the image distance equals sep2 on the circle, so G there is the closed
    # form -(1/2pi) log sep2 + (|x|^2 + |y|^2)/(4pi) + c0
    x, y = _BOUNDARY_PAIR
    sep2 = np.sum((x - y) ** 2, axis=-1)
    rx2, ry2 = np.sum(x * x, axis=-1), np.sum(y * y, axis=-1)
    closed = -np.log(sep2) / (2.0 * np.pi) + (rx2 + ry2) / (4.0 * np.pi) + greens.C0_DISK
    g = greens.greens_disk_exact(x, y)
    assert np.all(np.isfinite(g))
    assert np.allclose(g, closed, rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(greens.grad_x_greens_disk_exact(x, y)))
    terms = greens.grad_x_G_terms(decomp, x, y)
    for name in ("coulomb", "image", "curvature", "w_remainder"):
        assert np.all(np.isfinite(getattr(terms, name))), name
    assert np.all(np.isfinite(greens.remainder_k_exact(decomp, y, x)))
    assert np.all(np.isfinite(greens.grad_x_remainder_k_exact(decomp, y, x)))


@given(point_arguments())
@example(_BOUNDARY_PAIR)  # distinct points on the circle 7e-10 apart
@settings(max_examples=300, deadline=None)
def test_component_evaluation_matches_reference(args):
    x, y = args
    decomp = greens.build_greens_decomposition(_DISK)
    try:
        ref = _ref_grad_x_G_terms(decomp, x, y)
    except greens.SingularityError:
        for fn in (
            lambda: greens.grad_x_G_terms(decomp, x, y),
            lambda: greens.remainder_k_exact(decomp, y, x),
            lambda: greens.grad_x_remainder_k_exact(decomp, y, x),
        ):
            with pytest.raises(greens.SingularityError):
                fn()
        return
    terms = greens.grad_x_G_terms(decomp, x, y)
    for name, value in ref.items():
        _assert_matches(getattr(terms, name), value, name)
    yb = np.broadcast_arrays(np.asarray(x), np.asarray(y))[1]
    off_collar = np.asarray(greens.cutoff_Z(decomp, yb)) == 0.0
    assert np.all(terms.image[off_collar] == 0.0)
    assert np.all(terms.curvature[off_collar] == 0.0)
    _assert_matches(greens.remainder_k_exact(decomp, y, x), _ref_remainder_k(decomp, y, x), "K")
    _assert_matches(greens.grad_x_remainder_k_exact(decomp, y, x), _ref_grad_x_remainder_k(decomp, y, x), "grad K")


def _ref_collar_pairs_fd(rng, decomp, n_pairs):
    """The per-pair loop that ``checks._collar_pairs_fd`` batches."""
    worst = 0.0
    count = 0
    while count < n_pairs:
        pts = checks._sample_disk(rng, 2 * n_pairs, 0.998)
        d = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
        collar = pts[(d < 2 * decomp.sigma0) & (d > 2e-3)]
        for k in range(0, len(collar) - 1, 2):
            x, y = collar[k], collar[k + 1]
            sep = np.hypot(*(x - y))
            tau = greens.reflect_tau(decomp.domain, y)
            sep_t = np.hypot(*(x - tau))
            if sep < 5e-3:
                continue
            h = min(3e-3 * min(sep, sep_t), 0.3 * (1.0 - np.hypot(*x)))
            if h < 1e-9:
                continue
            fd = np.array(
                [
                    (_ref_greens(x + h * e, y) - _ref_greens(x - h * e, y)) / (2 * h)
                    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                ]
            )
            terms = _ref_grad_x_G_terms(decomp, x, y)
            total = terms["coulomb"] + terms["image"] + terms["curvature"] + terms["w_remainder"]
            worst = max(worst, float(np.max(np.abs(total - fd))))
            count += 1
            if count >= n_pairs:
                break
    return worst, count


@pytest.mark.parametrize("n_pairs", [1, 7, 1000])
@pytest.mark.parametrize("seed", [3, 11, 12345])
def test_collar_pair_batches_match_per_pair_loop(decomp, seed, n_pairs):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    worst, count = checks._collar_pairs_fd(rng, decomp, n_pairs)
    ref_worst, ref_count = _ref_collar_pairs_fd(ref_rng, decomp, n_pairs)
    assert count == ref_count == n_pairs
    assert worst == pytest.approx(ref_worst, rel=1e-9)
    # the same batches were drawn, so the rest of the check sees the same stream
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _ref_disk_mean(x, n_r, n_theta):
    x = np.asarray(x, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(r, th, indexing="ij")
    rx2 = x[0] ** 2 + x[1] ** 2
    dot = x[0] * (rr * np.cos(tt)) + x[1] * (rr * np.sin(tt))
    image2 = rx2 * rr**2 - 2.0 * dot + 1.0
    smooth = -np.log(image2) / (4.0 * np.pi) + (rx2 + rr**2) / (4.0 * np.pi) + greens.C0_DISK
    return float(np.sum(smooth * rr * wr[:, None]) * (2.0 * np.pi / n_theta) + (1.0 - rx2) / 4.0)


@pytest.mark.parametrize("n_r, n_theta", [(96, 256), (40, 72)])
def test_disk_mean_cached_nodes_match_formula(n_r, n_theta):
    for x in (np.array([0.4, 0.0]), np.array([0.9, 0.2]), np.array([0.0, 0.0]), np.array([-0.3, 0.61])):
        for _ in range(2):  # the second call reads the cached nodes
            assert abs(greens.disk_mean_of_greens(x, n_r, n_theta) - _ref_disk_mean(x, n_r, n_theta)) <= 1e-15
    for a in greens._disk_nodes(n_r, n_theta):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
