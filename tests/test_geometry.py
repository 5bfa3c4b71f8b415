import math

import numpy as np
import pytest
from scipy import integrate, stats

from cubeshadow import geometry


def test_sample_unit_vector_norm():
    rng = geometry.stream(0)
    for n in (2, 3, 4, 7):
        v = geometry.sample_unit_vector(n, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_sample_rejects_bad_dimension():
    rng = geometry.stream(0)
    with pytest.raises(geometry.DimensionError):
        geometry.sample_unit_vector(1, rng)


def test_coordinate_second_moment():
    # symmetry forces E(x_j^2) = 1/4 on S^3
    x = geometry.sample_unit_vectors(4, 1_000_000, geometry.stream(1))
    w2 = x[:, 3] ** 2
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
    assert got.tobytes() == expected.tobytes()


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
    assert rng.sizes == [(3, 4), 4]
    assert np.all(np.isfinite(x))
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-15)
    assert np.array_equal(x[1], [-0.5, -0.5, -0.5, -0.5])
    assert np.array_equal(x[0], np.arange(1.0, 5.0) / math.sqrt(30.0))


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
    assert np.allclose(f.rows, np.eye(4)[:3], atol=1e-12)
    f = geometry.build_frame(np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(f.rows[0], [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(f.rows[1], [0, 1, 0, 0], atol=1e-12)
    assert np.allclose(f.rows[2], [0, 0, 0, -1], atol=1e-12)


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
        assert np.abs(f.rows @ f.rows.T - np.eye(3)).max() < 1e-10
        assert np.abs(f.rows @ u).max() < 1e-12


def test_build_frame_general_n():
    rng = geometry.stream(3)
    for n in (3, 5, 6):
        u = geometry.sample_unit_vector(n, rng)
        f = geometry.build_frame(u)
        assert f.rows.shape == (n - 1, n)
        assert np.abs(f.rows @ f.rows.T - np.eye(n - 1)).max() < 1e-10
        assert np.abs(f.rows @ u).max() < 1e-12


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
    x_gauss = geometry.sample_unit_vectors(4, m, geometry.stream(8))[:, 0]
    stat = stats.ks_2samp(x_angles, x_gauss).statistic
    threshold = 1.9495 * math.sqrt(2.0 / m)  # alpha = 1e-3
    assert stat < threshold
