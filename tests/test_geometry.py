import math

import numpy as np
import pytest
from scipy import integrate, stats

import hull_reference
import mc_reference
from cubeshadow import geometry


def test_sample_unit_vector_norm():
    rng = geometry.stream(0)
    for n in (2, 3, 4, 7):
        v = geometry.sample_unit_vector(n, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_scalar_calls_are_the_columns_of_one_batch(n):
    # the scalar sampler is a batch of one: m calls read the stream as one
    # m-direction batch does, and normalize with the same bits
    rng = geometry.stream(13, n)
    got = np.column_stack([geometry.sample_unit_vector(n, rng)
                           for _ in range(3000)])
    want = geometry.sample_unit_vectors(n, 3000, geometry.stream(13, n))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [4, 12])
def test_consecutive_draws_equal_one_draw(n):
    # A Monte Carlo chunk is drawn in blocks: consecutive (k, n) draws, the
    # last one short, read the stream as one (m, n) draw, into out or not.
    m, k = 1000, 48
    want = geometry.stream(3, n).standard_normal((m, n))
    rng = geometry.stream(3, n)
    got = np.empty((m, n))
    for i in range(0, m, k):
        block = got[i:i + k]
        if i % (2 * k):
            rng.standard_normal(out=block)
        else:
            block[...] = rng.standard_normal(block.shape)
    assert got.tobytes() == want.tobytes()


def test_sample_rejects_bad_dimension():
    rng = geometry.stream(0)
    with pytest.raises(geometry.DimensionError):
        geometry.sample_unit_vector(1, rng)


def test_coordinate_second_moment():
    # symmetry forces E(x_j^2) = 1/4 on S^3
    x = geometry.sample_unit_vectors(4, 1_000_000, geometry.stream(1))
    w2 = x[3] ** 2
    stderr = w2.std() / math.sqrt(len(w2))
    assert abs(w2.mean() - 0.25) < 3 * stderr


def test_stream_determinism():
    a = geometry.sample_unit_vectors(4, 100, geometry.stream(42))
    b = geometry.sample_unit_vectors(4, 100, geometry.stream(42))
    assert np.array_equal(a, b)
    c = geometry.sample_unit_vectors(4, 100, geometry.stream(42, index=1))
    assert not np.array_equal(a, c)


def test_batch_is_normalized_gaussian_draw():
    v = geometry.stream(5).standard_normal((1000, 4))
    expected = v / np.linalg.norm(v, axis=1, keepdims=True)
    got = geometry.sample_unit_vectors(4, 1000, geometry.stream(5))
    assert got.shape == (4, 1000)
    assert got.tobytes() == expected.T.tobytes()


class _ZeroRowGenerator:
    """Stub generator whose first draw has an all-zero second row."""

    def __init__(self):
        self.sizes = []

    def standard_normal(self, size):
        self.sizes.append(size)
        if len(self.sizes) == 1:
            out = np.arange(1.0, 1.0 + np.prod(size)).reshape(size)
            out[1] = 0.0
            return out
        return np.full(size, -2.0)


def test_batch_redraws_zero_norm_rows_only():
    rng = _ZeroRowGenerator()
    x = geometry.sample_unit_vectors(4, 3, rng)
    assert rng.sizes == [(3, 4), (1, 4)]
    assert np.all(np.isfinite(x))
    assert np.allclose(np.linalg.norm(x, axis=0), 1.0, atol=1e-15)
    assert np.array_equal(x[:, 1], [-0.5, -0.5, -0.5, -0.5])
    assert np.array_equal(x[:, 0], np.arange(1.0, 5.0) / math.sqrt(30.0))


class _ZeroRedrawGenerator(_ZeroRowGenerator):
    """The same draws, except that the first redraw is zero too."""

    def standard_normal(self, size):
        draw = super().standard_normal(size)
        if len(self.sizes) == 2:
            draw[...] = 0.0
        return draw


def test_batch_redraws_until_the_norm_is_positive():
    rng = _ZeroRedrawGenerator()
    x = geometry.sample_unit_vectors(4, 3, rng)
    assert rng.sizes == [(3, 4), (1, 4), (1, 4)]
    assert np.array_equal(x[:, 1], [-0.5, -0.5, -0.5, -0.5])
    assert np.array_equal(x[:, 0], np.arange(1.0, 5.0) / math.sqrt(30.0))


class _ZeroRowOutGenerator(_ZeroRowGenerator):
    """The same draws, written into `out` when one is given."""

    def standard_normal(self, size=None, out=None):
        draw = super().standard_normal(out.shape if out is not None else size)
        if out is None:
            return draw
        out[...] = draw
        return out


def test_batch_redraws_zero_norm_rows_only_into_out():
    rng = _ZeroRowOutGenerator()
    buffers = (np.empty((4, 3)), np.empty((4, 3)), np.empty(3))
    x = geometry.sample_unit_vectors(4, 3, rng, out=buffers)
    assert x is buffers[0]
    assert rng.sizes == [(3, 4), (1, 4)]
    assert np.array_equal(x[:, 1], [-0.5, -0.5, -0.5, -0.5])
    assert np.array_equal(x[:, 0], np.arange(1.0, 5.0) / math.sqrt(30.0))
    reference = geometry.sample_unit_vectors(4, 3, _ZeroRowGenerator())
    assert x.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_batch_into_out_is_the_same_bytes(n):
    expected = geometry.sample_unit_vectors(n, 1000, geometry.stream(5, n))
    # scratch that is not zero, and an out that is a view of a larger buffer
    flat = np.full(3000 * n, np.nan)
    out = (flat[:1000 * n].reshape(n, 1000),
           flat[1000 * n:2000 * n].reshape(n, 1000), np.full(1000, np.inf))
    got = geometry.sample_unit_vectors(n, 1000, geometry.stream(5, n), out=out)
    assert got is out[0]
    assert got.tobytes() == expected.tobytes()


def test_complete_pairs_into_out_is_the_same_bytes():
    rng = geometry.stream(6)
    u = geometry.sample_unit_vectors(4, 1000, rng)
    g = rng.standard_normal((4, 1000))
    expected = geometry.complete_pairs(u, g.copy())
    out = (np.full((4, 1000), np.nan), np.full(1000, np.nan))
    got = geometry.complete_pairs(u, g, out=out)
    assert got is g
    assert got.tobytes() == expected.tobytes()


def test_coordinate_sum_is_numpys_reduce_order():
    # Magnitudes over 16 decades and both signs, so that another order of
    # the additions moves bits; a row of -0.0, whose sum numpy starts from
    # +0.0, and one of zeros of both signs.
    rng = np.random.default_rng(12)
    for k in range(1, 343):
        a = rng.standard_normal((40, k)) * 10.0 ** rng.uniform(-8, 8, (40, k))
        a[0] = -0.0
        a[1] = 0.0
        a[1, ::2] = -0.0
        want = np.add.reduce(a, axis=1)
        out = np.full(40, np.nan)
        got = geometry.coordinate_sum(a.T.copy(), out)
        assert got is out
        # bytes, not ==, so that the sign of a zero sum counts too
        assert got.tobytes() == want.tobytes(), f"k = {k}"
        assert not np.signbit(got[0])


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 12, 129, 342])
def test_sampler_equals_row_major_reference(n):
    got = geometry.sample_unit_vectors(n, 5000, geometry.stream(9, n))
    want = mc_reference.sample_unit_vectors(n, 5000, geometry.stream(9, n))
    assert got.tobytes() == want.T.tobytes()


def test_complete_pairs_equals_row_major_reference():
    rng = geometry.stream(10)
    u = geometry.sample_unit_vectors(4, 5000, rng)
    g = rng.standard_normal((5000, 4))
    want = mc_reference.complete_pairs(u.T.copy(), g.copy())
    got = geometry.complete_pairs(u, geometry.to_columns(g, np.empty((4, 5000))))
    assert got.tobytes() == want.T.tobytes()


@pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 10000])
def test_to_columns_is_the_transpose(m):
    rows = np.arange(3.0 * m).reshape(m, 3)
    assert np.array_equal(geometry.to_columns(rows, np.empty((3, m))), rows.T)


def test_spherical_to_cartesian4_special_points():
    assert np.allclose(geometry.spherical_to_cartesian4(math.pi / 2, math.pi / 2, math.pi / 2),
                       [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(geometry.spherical_to_cartesian4(0.3, 2.1, 0.0),
                       [0, 0, 0, 1], atol=1e-15)
    assert np.allclose(geometry.spherical_to_cartesian4(0, math.pi / 2, math.pi / 2),
                       [1, 0, 0, 0], atol=1e-15)


def test_spherical_density_values():
    assert geometry.spherical_density(4, (0.7, math.pi / 2, math.pi / 2)) == pytest.approx(
        1.0 / (2 * math.pi**2), abs=1e-15)
    assert geometry.spherical_density(4, (0.7, 1.0, 0.0)) == 0.0
    with pytest.raises(geometry.DimensionError):
        geometry.spherical_density(6, (0, 0, 0, 0, 0))


@pytest.mark.parametrize("n,ranges", [
    (3, [(0, math.pi)]),
    (4, [(0, math.pi)] * 2),
    (5, [(0, math.pi)] * 3),
])
def test_spherical_density_integrates_to_one(n, ranges):
    def f(*polar):
        return geometry.spherical_density(n, (0.0,) + polar)

    value, _ = integrate.nquad(f, ranges, opts={"epsabs": 1e-12})
    assert abs(2 * math.pi * value - 1.0) < 1e-10


def test_build_frame_axis_cases():
    f = geometry.build_frame(np.array([0.0, 0.0, 0.0, 1.0]))
    assert np.allclose(f, np.eye(4)[:3], atol=1e-12)
    f = geometry.build_frame(np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(f[0], [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(f[1], [0, 1, 0, 0], atol=1e-12)
    assert np.allclose(f[2], [0, 0, 0, -1], atol=1e-12)


def test_build_frame_properties_random_and_degenerate():
    rng = geometry.stream(2)
    cases = [geometry.sample_unit_vector(4, rng) for _ in range(50)]
    # exactly degenerate and nearly degenerate directions
    cases += [np.array([1.0, 0, 0, 0]), np.array([0, -1.0, 0, 0]),
              np.array([0.6, 0.8, 0, 0])]
    eps = 1e-8
    v = np.array([math.sqrt(1 - eps**2), eps, 0, 0])
    cases.append(v / np.linalg.norm(v))
    for u in cases:
        f = geometry.build_frame(u)
        assert np.abs(f @ f.T - np.eye(3)).max() < 1e-10
        assert np.abs(f @ u).max() < 1e-12


def test_build_frame_general_n():
    rng = geometry.stream(3)
    for n in (3, 5, 6):
        u = geometry.sample_unit_vector(n, rng)
        f = geometry.build_frame(u)
        assert f.shape == (n - 1, n)
        assert np.abs(f @ f.T - np.eye(n - 1)).max() < 1e-10
        assert np.abs(f @ u).max() < 1e-12


def test_build_frames_equal_per_direction_reference():
    # The batch against the per-direction frame it replaced, bit for bit:
    # generic rows, the permuted branch on both sides of its two bounds,
    # and stacked projections against one matrix product per frame.
    rng = geometry.stream(6)
    dirs = [geometry.sample_unit_vector(4, rng) for _ in range(500)]
    for eps in (0.0, 1e-300, 1e-13, 1e-6, 0.0316, 0.05):
        for j in range(4):
            axis = np.eye(4)[j]
            dirs += [axis + eps, axis + eps * np.eye(4)[(j + 1) % 4],
                     np.array([0.3, 0.5, eps, -eps])]
    dirs = np.array([u / np.linalg.norm(u) for u in dirs])
    rows = geometry.build_frames(dirs)
    clouds = geometry.project_vertices(rows)
    for u, r, cloud in zip(dirs, rows, clouds):
        want = hull_reference.frame_rows(u)
        assert np.array_equal(r, want)
        assert np.array_equal(geometry.build_frame(u), want)
        assert np.array_equal(cloud, geometry.cube_vertices(4) @ want.T)


def test_project_vertices_axis_direction():
    f = geometry.build_frame(np.array([0.0, 0.0, 0.0, 1.0]))
    pts = geometry.project_vertices(f)
    assert pts.shape == (16, 3)
    uniq = np.unique(np.round(pts, 12), axis=0)
    assert len(uniq) == 8  # unit 3-cube, each corner hit twice
    assert np.allclose(np.abs(uniq), 0.5)


def test_project_vertices_central_symmetry():
    rng = geometry.stream(4)
    u = geometry.sample_unit_vector(4, rng)
    pts = geometry.project_vertices(geometry.build_frame(u))
    flipped = np.sort(np.round(-pts, 12), axis=0)
    assert np.allclose(flipped, np.sort(np.round(pts, 12), axis=0))


def test_rank2_pair_special_cases():
    rng = geometry.stream(5)
    u = geometry.sample_unit_vector(4, rng)
    x, y, z, w = u
    assert np.allclose(geometry.build_rank2_pair(u, 1.23, 0.0),
                       [-w, -z, y, x], atol=1e-15)
    assert np.allclose(geometry.build_rank2_pair(u, 0.0, math.pi / 2),
                       [-y, x, -w, z], atol=1e-15)


def test_rank2_pair_orthonormal():
    rng = geometry.stream(6)
    for _ in range(200):
        u = geometry.sample_unit_vector(4, rng)
        kappa = rng.uniform(0, 2 * math.pi)
        lam = rng.uniform(0, math.pi)
        v = geometry.build_rank2_pair(u, kappa, lam)
        assert abs(np.dot(u, v)) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_angle_sampling_matches_gaussian_sampling():
    # push-forward of the angular density equals the uniform measure:
    # compare first-coordinate samples by two-sample Kolmogorov-Smirnov
    m = 100_000
    rng = geometry.stream(7)
    theta = rng.uniform(0, 2 * math.pi, m)
    phi = np.arccos(1 - 2 * rng.uniform(0, 1, m))
    psi = np.empty(m)
    filled = 0
    while filled < m:
        cand = rng.uniform(0, math.pi, m)
        keep = cand[rng.uniform(0, 1, m) < np.sin(cand) ** 2]
        take = min(len(keep), m - filled)
        psi[filled:filled + take] = keep[:take]
        filled += take
    x_angles = np.cos(theta) * np.sin(phi) * np.sin(psi)
    x_gauss = geometry.sample_unit_vectors(4, m, geometry.stream(8))[0]
    stat = stats.ks_2samp(x_angles, x_gauss).statistic
    threshold = 1.9495 * math.sqrt(2.0 / m)  # alpha = 1e-3
    assert stat < threshold
