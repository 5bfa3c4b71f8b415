import math

import numpy as np
import pytest
import sympy

import mc_reference
from octagon_branches import (BRANCH_ANCHORS, DegeneratePlaneError,
                              build_rank2_pair, hull_octagon,
                              octagon_area_branch, octagon_coefficients,
                              spherical_to_cartesian4)
from cubeshadow import functionals, geometry


class TestCorank1Functionals:
    def test_volume_values(self):
        assert functionals.shadow_volume([1, 0, 0, 0]) == 1.0
        assert functionals.shadow_volume([0.5, 0.5, 0.5, 0.5]) == 2.0
        assert functionals.shadow_volume([0.6, 0.8, 0, 0]) == pytest.approx(1.4)

    def test_area_values(self):
        assert functionals.shadow_area([1, 0, 0, 0]) == pytest.approx(6.0)
        assert functionals.shadow_area([0.5] * 4) == pytest.approx(6 * math.sqrt(2))

    def test_mean_width_values(self):
        assert functionals.shadow_mean_width([1, 0, 0, 0]) == pytest.approx(1.5)
        assert functionals.shadow_mean_width([0.5] * 4) == pytest.approx(math.sqrt(3))
        assert functionals.shadow_mean_width([1, 0, 0, 0, 0]) == pytest.approx(
            16 / (3 * math.pi))

    def test_segment_mw_coeff(self):
        assert functionals.segment_mw_coeff(2) == pytest.approx(2 / math.pi, abs=1e-15)
        assert functionals.segment_mw_coeff(3) == pytest.approx(0.5, abs=1e-15)
        assert functionals.segment_mw_coeff(4) == pytest.approx(4 / (3 * math.pi), abs=1e-15)

    def test_3cube_area_width_identity(self):
        # on S^2 the area functional is pi times the mean width functional
        rng = geometry.stream(30)
        for _ in range(1000):
            u = geometry.sample_unit_vector(3, rng)
            assert functionals.shadow_area(u) == pytest.approx(
                math.pi * functionals.shadow_mean_width(u), abs=1e-12)

    def test_signed_permutation_invariance(self):
        rng = geometry.stream(31)
        u = geometry.sample_unit_vector(4, rng)
        base = functionals.shadow_batch(u[:, None])
        for _ in range(20):
            perm = rng.permutation(4)
            signs = rng.choice([-1.0, 1.0], 4)
            v = u[perm] * signs
            other = functionals.shadow_batch(v[:, None])
            # summation order changes under permutation: allow a few ulps
            for name in ("vl", "ar", "mw"):
                assert other[name][0] == pytest.approx(base[name][0],
                                                       rel=1e-14)

    def test_bounds_on_random_sample(self):
        x = geometry.sample_unit_vectors(4, 100_000, geometry.stream(32))
        vl = np.abs(x).sum(axis=0)
        assert vl.min() >= 1.0 - 1e-12 and vl.max() <= 2.0 + 1e-12
        mw = 0.5 * np.sqrt(np.clip(1 - x * x, 0, None)).sum(axis=0)
        assert mw.min() >= 1.5 - 1e-12 and mw.max() <= math.sqrt(3) + 1e-12

    def test_volume_mean_matches_width_duality(self):
        # mean shadow volume equals the mean width of the cube itself
        x = geometry.sample_unit_vectors(4, 200_000, geometry.stream(33))
        vl = np.abs(x).sum(axis=0)
        stderr = vl.std() / math.sqrt(len(vl))
        assert abs(vl.mean() - 16 / (3 * math.pi)) < 4 * stderr


def random_pair(rng):
    u = geometry.sample_unit_vector(4, rng)
    kappa = rng.uniform(0, 2 * math.pi)
    lam = rng.uniform(0, math.pi)
    return u, build_rank2_pair(u, kappa, lam)


class TestOctagonPerimeter:
    def test_axis_pair(self):
        assert functionals.octagon_perimeter([1, 0, 0, 0], [0, 1, 0, 0]) == pytest.approx(4.0)

    def test_orthogonality_guard(self):
        with pytest.raises(geometry.DomainError):
            functionals.octagon_perimeter([1, 0, 0, 0], [1, 0, 0, 0])

    @pytest.mark.parametrize("u, v, message", [
        ([2, 0, 0, 0], [0, 3, 0, 0], "||u|^2 - 1| = 3.0"),
        ([0.3, 0.4, 0.5, 0.1], [0.4, -0.3, 0, 0], "||u|^2 - 1| = 0.49"),
        ([1, 0, 0, 0], [0, 0.5, 0, 0], "||v|^2 - 1| = 0.75"),
        ([math.nan, 0, 0, 0], [0, 1, 0, 0], "|u.v| = nan"),
    ], ids=["scaled_axes", "short_u", "short_v", "nan_u"])
    def test_pair_that_is_not_orthonormal_is_rejected(self, u, v, message):
        # The first three are orthogonal, so only the norms reject them;
        # unchecked, the first read perimeter 24.0 and hull (area,
        # perimeter) (1, 4).  NaN compares false with any bound; unchecked,
        # it read perimeter NaN.
        for measure in (functionals.octagon_perimeter,
                        octagon_coefficients, hull_octagon):
            with pytest.raises(geometry.DomainError) as exc:
                measure(u, v)
            assert str(exc.value).startswith(message)

    def test_matches_hull_oracle(self):
        rng = geometry.stream(34)
        for _ in range(200):
            u, v = random_pair(rng)
            _, per = hull_octagon(u, v)
            assert functionals.octagon_perimeter(u, v) == pytest.approx(per, abs=1e-9)


def clip_perimeter(u, v):
    """The perimeter as it was: 2 sum_j sqrt(clip(1 - u_j^2 - v_j^2)), which
    cancels as u_j^2 + v_j^2 -> 1."""
    return 2.0 * float(np.sum(np.sqrt(np.clip(1.0 - u * u - v * v, 0.0, None))))


class TestOctagonBatch:
    def test_near_axis_pair_is_stable(self):
        u = np.array([1.0, 1e-8, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 0.3])
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        _, hull_per = hull_octagon(u, v)
        assert abs(clip_perimeter(u, v) - hull_per) > 1e-9
        per, _ = functionals.octagon_batch(u[:, None], v[:, None])
        assert abs(per[0] - hull_per) <= 1e-14
        assert abs(functionals.octagon_perimeter(u, v) - hull_per) <= 1e-14

    def test_perimeter_is_batch_of_one(self):
        rng = geometry.stream(37)
        pairs = [random_pair(rng) for _ in range(50)]
        u = np.array([a for a, _ in pairs])
        v = np.array([b for _, b in pairs])
        per, area = functionals.octagon_batch(u.T, v.T)
        for i, (a, b) in enumerate(pairs):
            assert functionals.octagon_perimeter(a, b) == per[i]
            hull_area, hull_per = hull_octagon(a, b)
            assert abs(area[i] - hull_area) < 1e-12
            assert abs(per[i] - hull_per) < 1e-12

    @pytest.mark.oldest_numpy(
        reason="octagon_xy adds its terms in the order of numpy's reduce")
    def test_xy_equals_row_major_reference(self):
        # the bytes of the row-major reference, allocated or into views of
        # a larger buffer, whose other elements must stay NaN
        rng = geometry.stream(38)
        x = geometry.sample_unit_vectors(3, 5000, rng)
        y = geometry.sample_unit_vectors(3, 5000, rng)
        want = mc_reference.octagon_xy(x.T.copy(), y.T.copy())
        big = np.full((6, 5002), np.nan)
        rows = big[1:5, 1:5001]
        for got in (functionals.octagon_xy(x, y),
                    functionals.octagon_xy(x, y, out=rows)):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        assert np.isnan(big[[0, 5]]).all() and np.isnan(big[:, [0, -1]]).all()

    @pytest.mark.parametrize("x, y, per, area", [
        ([1, 0, 0], [1, 0, 0], 4.0, 1.0),  # a coordinate plane: the square
        ([1, 0, 0], [0, 1, 0], 4.0 * math.sqrt(2.0), 2.0),
        ([0, 0, 1], [0, 0, -1], 4.0, 1.0),
    ])
    def test_xy_at_known_planes(self, x, y, per, area):
        got = functionals.octagon_xy(np.array(x, float)[:, None],
                                     np.array(y, float)[:, None])
        assert (got[0][0], got[1][0]) == pytest.approx((per, area),
                                                       rel=0.0, abs=1e-15)


class TestOctagonCoefficients:
    def test_degenerate_axis_pair(self):
        co = octagon_coefficients([1, 0, 0, 0], [0, 1, 0, 0])
        assert co.c == pytest.approx(0.0, abs=1e-15)
        co = octagon_coefficients([0, 0, 0, 1], [0, 0, 1, 0])
        assert co.c == pytest.approx(2.0, abs=1e-15)

    def test_symbolic_reimplementation(self):
        # independent symbolic expansion of the same polynomials
        th, ph, ps, ka, la = sympy.symbols("theta phi psi kappa lambda")
        x = sympy.cos(th) * sympy.sin(ph) * sympy.sin(ps)
        y = sympy.sin(th) * sympy.sin(ph) * sympy.sin(ps)
        z = sympy.cos(ph) * sympy.sin(ps)
        w = sympy.cos(ps)
        basis = [sympy.Matrix([-y, x, -w, z]), sympy.Matrix([-z, w, x, -y]),
                 sympy.Matrix([-w, -z, y, x])]
        vv = (sympy.cos(ka) * sympy.sin(la) * basis[0]
              + sympy.sin(ka) * sympy.sin(la) * basis[1]
              + sympy.cos(la) * basis[2])
        p, q, r, s = vv
        symbolic = {
            "a1": r * y + s * y - q * z - s * z - q * w + r * w,
            "a2": r * y - s * y - q * z - s * z + q * w + r * w,
            "a3": r * y + s * y - q * z + s * z - q * w - r * w,
            "b1": p * q - p * s + x * y - x * w,
            "b2": p * q - p * r + x * y - x * z,
            "b3": p * q + p * s + x * y + x * w,
            "c": 2 * (1 - p**2 - x**2),
        }
        subs = {th: 1, ph: 1, ps: 1, ka: 1, la: 1}
        u_num = spherical_to_cartesian4(1.0, 1.0, 1.0)
        v_num = build_rank2_pair(u_num, 1.0, 1.0)
        co = octagon_coefficients(u_num, v_num)
        for name, expr in symbolic.items():
            expected = float(expr.subs(subs).evalf(30))
            assert getattr(co, name) == pytest.approx(expected, abs=1e-14)


class TestOctagonArea:
    def test_oracle_axis_pair(self):
        area, _ = hull_octagon([1, 0, 0, 0], [0, 1, 0, 0])
        assert area == pytest.approx(1.0)

    def test_oracle_basis_invariance(self):
        rng = geometry.stream(35)
        u, v = random_pair(rng)
        a0 = hull_octagon(u, v)[0]
        # rotate the pair inside its own plane: same shadow plane
        for ang in (0.3, 1.1, 2.0):
            u2 = math.cos(ang) * u + math.sin(ang) * v
            v2 = -math.sin(ang) * u + math.cos(ang) * v
            a2 = hull_octagon(u2, v2)[0]
            assert a2 == pytest.approx(a0, abs=1e-12)

    def test_branch_formulas_at_anchors(self):
        for branch, (th, ph, ps, ka, la) in BRANCH_ANCHORS.items():
            u = spherical_to_cartesian4(th, ph, ps)
            v = build_rank2_pair(u, ka, la)
            co = octagon_coefficients(u, v)
            value = octagon_area_branch(branch, co)
            oracle = hull_octagon(u, v)[0]
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_branch_formulas_near_anchors(self):
        rng = geometry.stream(36)
        for branch, anchor in BRANCH_ANCHORS.items():
            for _ in range(100):
                delta = rng.uniform(-1, 1, 5)
                # each branch holds on a small neighborhood only; radius
                # 0.005 stays inside every branch's validity region
                delta *= rng.uniform(0, 0.005) / np.linalg.norm(delta)
                th, ph, ps, ka, la = np.array(anchor) + delta
                u = spherical_to_cartesian4(th, ph, ps)
                v = build_rank2_pair(u, ka, la)
                co = octagon_coefficients(u, v)
                value = octagon_area_branch(branch, co)
                oracle = hull_octagon(u, v)[0]
                assert value == pytest.approx(oracle, abs=1e-9)

    def test_degenerate_plane_guard(self):
        co = octagon_coefficients([1, 0, 0, 0], [0, 1, 0, 0])
        with pytest.raises(DegeneratePlaneError):
            octagon_area_branch(1, co)
        with pytest.raises(ValueError):
            octagon_area_branch(7, octagon_coefficients(
                [0, 0, 0, 1], [0, 0, 1, 0]))
