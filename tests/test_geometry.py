import math

import numpy as np
import pytest
from scipy import integrate, stats

import hull_reference
import mc_reference
import quad_reference
from octagon_branches import build_rank2_pair, spherical_to_cartesian4
from zeroed_stream import ZeroedStream
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


@pytest.mark.oldest_numpy(
    reason=("the blocked chunks rest on numpy's Generator filling consecutive"
            " draws from one stream as it fills one draw"))
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


@pytest.mark.oldest_numpy(
    reason=("every verify payload rests on numpy's SeedSequence spawn, SFC64 "
            "and Ziggurat normals giving the same numbers on every numpy"))
def test_stream_golden_draws():
    # Every verify payload rests on these bytes: SeedSequence's spawn,
    # SFC64 and the Ziggurat normals must give them on every numpy the
    # package allows.  The key is taken mod 2**64, so a negative seed names
    # the stream of its residue.
    assert geometry.stream(1, 0).standard_normal(3).tolist() == [
        1.0234293978159115, -0.8937232796159317, -1.0446903324807777]
    assert geometry.stream(1, 2**32).standard_normal(3).tolist() == [
        0.6913068887327286, -0.41199759568173094, -0.019065527918053854]
    assert (geometry.stream(-1, 5).standard_normal(3).tobytes()
            == geometry.stream(2**64 - 1, 5).standard_normal(3).tobytes())


def test_batch_is_normalized_gaussian_draw():
    v = geometry.stream(5).standard_normal((1000, 4))
    expected = v / np.linalg.norm(v, axis=1, keepdims=True)
    got = geometry.sample_unit_vectors(4, 1000, geometry.stream(5))
    assert got.shape == (4, 1000)
    assert got.tobytes() == expected.T.tobytes()


class _ZeroRowGenerator:
    """Stub generator whose first draw has an all-zero second row; it
    draws into `out`, as the sampler asks."""

    def __init__(self):
        self.sizes = []

    def standard_normal(self, out):
        self.sizes.append(out.shape)
        if len(self.sizes) == 1:
            out[...] = np.arange(1.0, 1.0 + out.size).reshape(out.shape)
            out[1] = 0.0
        else:
            out[...] = -2.0
        return out


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

    def standard_normal(self, out):
        draw = super().standard_normal(out)
        if len(self.sizes) == 2:
            draw[...] = 0.0
        return draw


def test_batch_redraws_until_the_norm_is_positive():
    rng = _ZeroRedrawGenerator()
    x = geometry.sample_unit_vectors(4, 3, rng)
    assert rng.sizes == [(3, 4), (1, 4), (1, 4)]
    assert np.array_equal(x[:, 1], [-0.5, -0.5, -0.5, -0.5])
    assert np.array_equal(x[:, 0], np.arange(1.0, 5.0) / math.sqrt(30.0))


@pytest.mark.oldest_numpy(
    reason=("draw_blocks rests on numpy's Generator filling consecutive draws"
            " from one stream as it fills one draw"))
@pytest.mark.parametrize("block", [1, 7, 48, 130])
@pytest.mark.parametrize("n", [4, 12])
def test_draw_blocks_is_one_batch_with_deferred_redraws(n, block):
    # Direction 50 is zero, and so is its first redraw (direction 130 of
    # the stream): it is drawn again after all 130 draws, twice, and yielded
    # once more.  The buffers are views into a larger array of NaN, so a
    # write outside them shows.
    m = 130
    big = np.full((n + 2, m + 3), np.nan)
    scratch = np.full(n * block + block + 5, np.nan)
    v = big[1:n + 1, 2:m + 2]
    rng = ZeroedStream(geometry.stream(21, n), n, (50, m))
    got = list(geometry.draw_blocks(
        rng, m, block,
        lambda i, k: (v[:, i:i + k], scratch[:n * k],
                      scratch[n * block:n * block + k])))
    assert got == ([(i, min(block, m - i)) for i in range(0, m, block)]
                   + [(50, 1)])
    assert rng.read == (m + 2) * n
    want = geometry.sample_unit_vectors(
        n, m, ZeroedStream(geometry.stream(21, n), n, (50, m)))
    assert v.tobytes() == want.tobytes()
    reference = mc_reference.sample_unit_vectors(
        n, m, ZeroedStream(geometry.stream(21, n), n, (50, m)))
    assert v.tobytes() == reference.T.tobytes()
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-15)
    assert np.isnan(np.delete(big, np.s_[1:n + 1], axis=0)).all()
    assert np.isnan(big[:, [0, 1, m + 2]]).all()
    assert np.isnan(scratch[n * block + block:]).all()


@pytest.mark.oldest_numpy(
    reason="coordinate_sum adds in the order of numpy's pairwise reduce")
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


@pytest.mark.oldest_numpy(
    reason=("the sampler's bytes rest on numpy's reduction order, against the"
            " frozen row-major reference"))
@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 12, 129, 342])
def test_sampler_equals_row_major_reference(n):
    got = geometry.sample_unit_vectors(n, 5000, geometry.stream(9, n))
    want = mc_reference.sample_unit_vectors(n, 5000, geometry.stream(9, n))
    assert got.tobytes() == want.T.tobytes()


@pytest.mark.oldest_numpy(
    reason=("complete_pairs' bytes rest on numpy's reduction order, against "
            "the frozen row-major reference"))
def test_complete_pairs_equals_row_major_reference():
    rng = geometry.stream(10)
    u = geometry.sample_unit_vectors(4, 5000, rng)
    g = rng.standard_normal((5000, 4))
    want = mc_reference.complete_pairs(u.T.copy(), g.copy())
    got = geometry.complete_pairs(u, g.T.copy())
    assert got.tobytes() == want.T.tobytes()


def test_spherical_to_cartesian4_special_points():
    assert np.allclose(spherical_to_cartesian4(math.pi / 2, math.pi / 2, math.pi / 2),
                       [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(spherical_to_cartesian4(0.3, 2.1, 0.0),
                       [0, 0, 0, 1], atol=1e-15)
    assert np.allclose(spherical_to_cartesian4(0, math.pi / 2, math.pi / 2),
                       [1, 0, 0, 0], atol=1e-15)


def test_spherical_density_values():
    assert quad_reference.spherical_density(4, (0.7, math.pi / 2, math.pi / 2)) == pytest.approx(
        1.0 / (2 * math.pi**2), abs=1e-15)
    assert quad_reference.spherical_density(4, (0.7, 1.0, 0.0)) == 0.0
    with pytest.raises(geometry.DimensionError):
        quad_reference.spherical_density(6, (0, 0, 0, 0, 0))


@pytest.mark.parametrize("n,ranges", [
    (3, [(0, math.pi)]),
    (4, [(0, math.pi)] * 2),
    (5, [(0, math.pi)] * 3),
])
def test_spherical_density_integrates_to_one(n, ranges):
    def f(*polar):
        return quad_reference.spherical_density(n, (0.0,) + polar)

    value, _ = integrate.nquad(f, ranges, opts={"epsabs": 1e-12})
    assert abs(2 * math.pi * value - 1.0) < 1e-10


def test_build_frame_axis_cases():
    # At +-e_j the reflection is I - 2 e_j e_j^T: the frame is the other
    # axes, in order.
    for n in (2, 3, 4, 5, 6):
        for j in range(n):
            for sign in (1.0, -1.0):
                f = geometry.build_frame(sign * np.eye(n)[j])
                assert np.array_equal(f, np.delete(np.eye(n), j, axis=0))


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
        assert np.abs(f @ f.T - np.eye(3)).max() < 1e-15
        assert np.abs(f @ u).max() < 1e-15


def test_build_frame_general_n():
    rng = geometry.stream(3)
    for n in (3, 5, 6):
        u = geometry.sample_unit_vector(n, rng)
        f = geometry.build_frame(u)
        assert f.shape == (n - 1, n)
        assert np.abs(f @ f.T - np.eye(n - 1)).max() < 1e-15
        assert np.abs(f @ u).max() < 1e-15


def tilted_axes(n, axes):
    """Each axis e_j, j in `axes`, and its negative, tilted by 0 to 0.05
    along every coordinate and towards the next axis, and (0.3, 0.5) with
    the other coordinates +-eps, normalized."""
    eye, dirs = np.eye(n), []
    for eps in (0.0, 1e-300, 1e-13, 1e-6, 0.0316, 0.05):
        dirs.append(np.concatenate(([0.3, 0.5],
                                    eps * (-1.0) ** np.arange(n - 2))))
        for j in axes:
            for axis in (eye[j], -eye[j]):
                dirs += [axis + eps, axis + eps * eye[(j + 1) % n]]
    return np.array([u / np.linalg.norm(u) for u in dirs])


def test_build_frames_equal_per_direction_reference():
    # The batch against the per-direction Householder frame, bit for bit, at
    # every n on random directions and tilted axes, and stacked projections
    # against one matrix product per frame.  At n = 342, eight frames per
    # batch and four of the axes keep the frames small.
    for n in [*range(2, 13), 342]:
        rng = geometry.stream(6, n)
        wide = n > 12
        dirs = np.concatenate([
            geometry.sample_unit_vectors(n, 20 if wide else 500, rng).T,
            tilted_axes(n, (0, 1, n // 2, n - 1) if wide else range(n))])
        for block in np.array_split(dirs, len(dirs) // 8 if wide else 1):
            rows = geometry.build_frames(block)
            for u, r in zip(block, rows):
                want = hull_reference.frame_rows(u)
                assert np.array_equal(r, want)
                assert np.array_equal(geometry.build_frame(u), want)
            if n <= 8:
                clouds = geometry.project_vertices(rows)
                for r, cloud in zip(rows, clouds):
                    assert np.array_equal(
                        cloud, geometry.cube_vertices(n) @ r.T)


def test_frame_spans_the_explicit_frames_hyperplane():
    # At n = 4 the Householder frame F and the explicit frame G that it
    # replaced span the same hyperplane: F G^T is orthogonal.
    rng = geometry.stream(6)
    dirs = np.concatenate([geometry.sample_unit_vectors(4, 500, rng).T,
                           tilted_axes(4, range(4))])
    for u, f in zip(dirs, geometry.build_frames(dirs)):
        q = f @ hull_reference.explicit_frame_rows(u).T
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12


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
    assert np.allclose(build_rank2_pair(u, 1.23, 0.0),
                       [-w, -z, y, x], atol=1e-15)
    assert np.allclose(build_rank2_pair(u, 0.0, math.pi / 2),
                       [-y, x, -w, z], atol=1e-15)


def test_rank2_pair_orthonormal():
    rng = geometry.stream(6)
    for _ in range(200):
        u = geometry.sample_unit_vector(4, rng)
        kappa = rng.uniform(0, 2 * math.pi)
        lam = rng.uniform(0, math.pi)
        v = build_rank2_pair(u, kappa, lam)
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
