import math

import numpy as np
import pytest
from scipy import integrate

import quad_reference as ref
from cubeshadow import moments, quad, specfun


class TestIntegrator:
    KNOWN = [
        (lambda t: math.exp(-t), 0, np.inf, 1.0),
        (lambda v: 1.0 / math.sqrt(1 - v * v), 0, 1, math.pi / 2),
        (lambda t: t * math.log(t), 0, 1, -0.25),
        (lambda t: math.log(t) ** 2, 0, 1, 2.0),
        (lambda t: 1.0 / math.sqrt(t), 0, 1, 2.0),
        (lambda t: t**3 - 2 * t, -1, 2, 0.75),
        (lambda t: math.exp(-t * t), 0, np.inf, math.sqrt(math.pi) / 2),
        (lambda t: 1.0 / (1 + t * t), 0, np.inf, math.pi / 2),
        (lambda t: math.sin(t) ** 2, 0, math.pi, math.pi / 2),
        (lambda t: t * math.exp(-t) * math.log(t), 0, np.inf, 1 - 0.5772156649015329),
    ]

    @pytest.mark.parametrize("f,a,b,expected", KNOWN)
    def test_known_integrals(self, f, a, b, expected):
        r = quad.integrate_1d(f, a, b, tol=1e-12)
        assert abs(r.value - expected) <= max(10 * r.error_estimate, 1e-12)
        assert r.error_estimate >= 0
        assert r.evaluations > 0

    def test_elliptic_integrand(self):
        r = quad.integrate_1d(lambda t: math.sqrt(1 + math.sin(t) ** 2),
                              0, math.pi / 2, tol=1e-12)
        assert r.value == pytest.approx(specfun.elliptic_imag(1.0)[1], abs=1e-11)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            quad.integrate_1d(lambda t: t, 0, 1, tol=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_raises_budget_error(self):
        with pytest.raises(specfun.ConvergenceError) as info:
            quad.integrate_1d(lambda x: math.sin(1e4 * x), 0, 1, tol=1e-13,
                              limit=20)
        assert info.value.best.evaluations > 0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_budget_is_relative_to_the_value(self):
        # |I| = 12.87: the error estimate 1.4e-13 is above 10 x 1e-14 in
        # absolute terms but within the relative accuracy QUADPACK was asked.
        r = quad.integrate_1d(lambda th: _ar2_original(th, 0.3, 1.2),
                              0.0, math.pi / 2, tol=1e-14)
        assert r.value == pytest.approx(_ar2_reduced(0.3, 1.2), rel=1e-14)


class TestNested:
    def test_value_and_evaluations(self):
        r = quad._nested(lambda y: lambda x: x * y, [(0, 1), (0, 2)],
                         (1e-12, 1e-12))
        assert r.value == pytest.approx(1.0, abs=1e-13)
        assert r.evaluations > 0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_raises_budget_error(self):
        with pytest.raises(specfun.ConvergenceError) as info:
            quad._nested(lambda y: lambda x: math.sin(1e4 * x),
                         [(0, 1), (0, 1)], (1e-13, 1e-13))
        assert info.value.best.evaluations > 0


def _same_bytes(a, b):
    return float.hex(float(a)) == float.hex(float(b))


def _box_points(count=1000, seed=15):
    """Seeded points of [0, pi/2]^2 and the edges 0 and pi/2 of each
    coordinate, against the other at random and at the edges."""
    rng = np.random.default_rng(seed)
    edges = (0.0, math.pi / 2)
    points = [tuple(p) for p in rng.uniform(0.0, math.pi / 2, (count, 2))]
    points += [(e, float(x)) for e in edges for x in rng.uniform(0, 1.5, 5)]
    points += [(float(x), e) for e in edges for x in rng.uniform(0, 1.5, 5)]
    return points + [(a, b) for a in edges for b in edges]


def test_dens4_is_the_spherical_density():
    # the moment integrands' density of (phi, psi) is the n = 4 case of
    # `spherical_density`, bit for bit, over the whole range of the angles
    rng = np.random.default_rng(4)
    for ph, ps in rng.uniform(0.0, math.pi, (100_000, 2)).tolist():
        assert _same_bytes(quad._dens4(ph, ps),
                           ref.spherical_density(4, (0.0, ph, ps)))


class TestCurriedIntegrands:
    """The curried integrands keep the bytes of the two-argument ones they
    replaced (`tests/quad_reference.py`), and `_nested` makes the calls and
    reports the numbers of `integrate.nquad`."""

    @pytest.mark.parametrize("name", [
        "_vl", "_vl2", "_mw", "_mw2", "_vl_mw", "_ar2_smooth", "_ij"])
    def test_box_integrand_bytes(self, name):
        curried, reference = getattr(quad, name), getattr(ref, name)
        for x, y in _box_points():
            assert _same_bytes(curried(y)(x), reference(x, y)), (x, y)

    def test_mw2_3cube_bytes(self):
        for x, _ in _box_points():
            assert _same_bytes(quad._mw2_3cube(x), ref._mw2_3cube(x)), x

    @staticmethod
    def _polar_points():
        """`_box_points` mapped to (alpha, r), t in [0, pi/2] to r from 0
        to the far edge."""
        return [(al, t / (math.pi / 2) * ref.edge(al)[1])
                for al, t in _box_points()]

    def test_polar_integrand_bytes(self):
        f, corner = quad._ar2_cone, quad._CONE_CORNER
        for al, r in self._polar_points():
            assert _same_bytes(quad._polar(f, corner)(al)(r),
                               ref.polar(f, corner)(r, al))

    def test_polar_theta_integrand_bytes(self):
        # e_ar2's theta-term about its own corner, against the two-argument
        # reference integrand
        corner = quad._AR2_THETA_CORNER
        assert corner == (0.0, math.pi / 2)
        for al, r in self._polar_points():
            assert _same_bytes(quad._polar(quad._ar2_theta, corner)(al)(r),
                               ref.polar(ref._ar2_theta, corner)(r, al))

    @staticmethod
    def _nquad(f, ranges):
        opts = [{"epsabs": t, "epsrel": t} for t in quad._BOX_TOLS]
        value, err, info = integrate.nquad(f, ranges, opts=opts,
                                           full_output=True)
        return value, err, info["neval"]

    @staticmethod
    def _reported(r):
        return r.value, r.error_estimate, r.evaluations

    def test_nested_matches_nquad_smooth(self):
        def f(x, y):
            return math.exp(math.sin(x) * math.cos(2 * y)) * (1 + x * y)

        ranges = [(0.0, math.pi / 2)] * 2
        new = quad._nested(lambda y: lambda x: f(x, y), ranges, quad._BOX_TOLS)
        assert self._reported(new) == self._nquad(f, ranges)

    def test_nested_matches_nquad_corner_cone(self):
        ranges, corner = [ref.edge, (0.0, math.pi / 4)], quad._CONE_CORNER
        new = quad._nested(quad._polar(quad._cone, corner), ranges,
                           quad._BOX_TOLS)
        assert new.evaluations > 0
        assert self._reported(new) == self._nquad(
            ref.polar(quad._cone, corner), ranges)

    def test_nested_matches_nquad_theta_corner(self):
        # the piece of alpha that holds the logarithmic edge at alpha = 0
        ranges, corner = [ref.edge, (0.0, math.pi / 4)], (0.0, math.pi / 2)
        new = quad._nested(quad._polar(quad._ar2_theta, corner), ranges,
                           quad._BOX_TOLS)
        assert new.evaluations > 0
        assert self._reported(new) == self._nquad(
            ref.polar(quad._ar2_theta, corner), ranges)


class TestCornerPolar:
    CORNERS = (quad._CONE_CORNER, quad._AR2_THETA_CORNER)

    def test_constant(self):
        for corner in self.CORNERS:
            r = quad._corner_polar(lambda ph, ps: 1.0, corner)
            assert r.value == pytest.approx((math.pi / 2) ** 2, abs=1e-13)
            assert r.evaluations > 0

    def test_cone_about_the_corner(self):
        # The distance to the corner over the square of side a = pi/2:
        # a^3/3 (sqrt 2 + asinh 1).
        for ph0, ps0 in self.CORNERS:
            r = quad._corner_polar(
                lambda ph, ps: math.hypot(ph0 - ph, ps0 - ps), (ph0, ps0))
            assert r.value == pytest.approx(
                (math.pi / 2) ** 3 / 3 * (math.sqrt(2) + math.asinh(1)),
                abs=1e-12)

    def test_smooth_integrand_matches_cartesian(self):
        def f(ph, ps):
            return math.exp(math.sin(ph) * math.cos(2 * ps)) * (1 + ph * ps)

        cartesian = quad._double(lambda ps: lambda ph: f(ph, ps)).value
        for corner in self.CORNERS:
            assert quad._corner_polar(f, corner).value == pytest.approx(
                cartesian, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_raises_budget_error(self):
        # Smooth in r, so each inner integral converges, but the outer one
        # over alpha oscillates too fast for its subdivision limit.
        def f(ph, ps):
            return math.sin(1e4 * math.atan2(math.pi / 2 - ps, math.pi / 2 - ph))

        with pytest.raises(specfun.ConvergenceError) as info:
            quad._corner_polar(f, quad._CONE_CORNER)
        assert info.value.best.evaluations > 0


# The theta-explicit defining integrands of the entries that depend on theta,
# as written before the theta integration was done analytically.

def _ar2_original(th, ph, ps):
    c, s = math.cos, math.sin
    first = 384.0 * (c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
    second = (1536.0 * s(ph) * s(ps)
              * math.sqrt(s(th) ** 2 * s(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2))
    third = (384.0 * s(ph) * s(ps)
             * math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2))
    return (first + second + third) * quad._dens4(ph, ps)


def _area_terms_original(th, ph, ps):
    c, s = math.cos, math.sin
    return (math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
            + math.sqrt(s(th) ** 2 * s(ph) ** 2 * s(ps) ** 2
                        + c(ph) ** 2 * s(ps) ** 2))


def _vl_ar_original(th, ph, ps):
    return (384.0 * math.cos(ps) * _area_terms_original(th, ph, ps)
            * quad._dens4(ph, ps))


def _ar_mw_original(th, ph, ps):
    return (192.0 * math.sqrt(1.0 - math.cos(ps) ** 2)
            * _area_terms_original(th, ph, ps) * quad._dens4(ph, ps))


# Their theta-integrals, as the sums of the terms the suite integrates; the
# theta-terms of e_vl_ar and e_ar_mw as the products of their factors.

def _ar2_reduced(ph, ps):
    return (quad._ar2_smooth(ps)(ph) + quad._ar2_cone(ph, ps)
            + quad._ar2_theta(ph, ps))


def _vl_ar_reduced(ph, ps):
    return quad._vl_ar_cone(ph, ps) + quad._vl_ar_psi(ps) * quad._area_phi(ph)


def _ar_mw_reduced(ph, ps):
    return quad._ar_mw_cone(ph, ps) + quad._ar_mw_psi(ps) * quad._area_phi(ph)


class TestThetaReduction:
    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.4, 1.0, 7.5])
    @pytest.mark.parametrize("b", [0.0, 1e-3, 0.25, 1.0, 3.0])
    def test_identity_against_quadrature(self, a, b):
        direct = quad.integrate_1d(
            lambda th: math.sqrt(a * math.sin(th) ** 2 + b),
            0.0, math.pi / 2, tol=1e-13)
        assert quad._theta_sqrt_integral(a, b) == pytest.approx(
            direct.value, abs=1e-12)

    @pytest.mark.parametrize("reduced,original", [
        (_ar2_reduced, _ar2_original),
        (_vl_ar_reduced, _vl_ar_original),
        (_ar_mw_reduced, _ar_mw_original),
    ])
    @pytest.mark.parametrize("ph,ps", [(0.01, 0.02), (0.3, 1.2), (0.7854, 0.7854),
                                       (1.2, 0.4), (1.56, 1.55)])
    def test_reduced_integrands(self, reduced, original, ph, ps):
        direct = quad.integrate_1d(lambda th: original(th, ph, ps),
                                   0.0, math.pi / 2, tol=1e-13)
        assert reduced(ph, ps) == pytest.approx(direct.value, abs=1e-12)


class TestPiIdentity:
    def test_components_and_combination(self):
        suite = quad.pi_over_128_suite()
        target = {name: moments.CONSTANT_TARGETS["pi128_" + name]()
                  for name in ("first", "second", "third", "combination")}
        # the targets telescope as the integrals do
        assert target["first"] - 2.0 * target["second"] + target["third"] == (
            pytest.approx(target["combination"], rel=1e-15))
        assert suite.first.value == pytest.approx(target["first"], abs=1e-10)
        assert suite.second.value == pytest.approx(target["second"], abs=1e-10)
        assert suite.third.value == pytest.approx(target["third"], abs=1e-10)
        assert suite.combination == pytest.approx(target["combination"],
                                                  abs=1e-10)


class TestZetaQuadratures:
    def test_zeta4_value(self, zeta4):
        assert zeta4 == pytest.approx(7.118558716719735, abs=1e-9)

    def test_zeta4_feeds_ar2(self, zeta4):
        assert 12 + 6 * zeta4 + 3 * math.pi == pytest.approx(
            64.136130261087789, abs=1e-8)

    def test_zeta4_tail_decay(self):
        # integrand falls off like 1/t^3, so the tail integral scales as 1/t^2
        tail_a = quad.integrate_1d(quad._zeta4_integrand, 50.0, np.inf, tol=1e-14)
        tail_b = quad.integrate_1d(quad._zeta4_integrand, 100.0, np.inf, tol=1e-14)
        assert tail_b.value / tail_a.value == pytest.approx(0.25, rel=0.05)

    def test_zeta4_integrand_at_zero(self):
        assert quad._zeta4_integrand(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_substitution_invariance(self, zeta4):
        assert ref.zeta4_quadrature_psi_form() == pytest.approx(zeta4, abs=1e-8)

    def test_zeta3_matches_zeta4(self, zeta4):
        z3 = quad.zeta3_quadrature()
        assert z3 == pytest.approx(zeta4, abs=1e-9)

    def test_zeta3_matches_3f2_closed_form(self):
        z3 = quad.zeta3_quadrature()
        f = specfun.hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 2.0)
        assert z3 / (3 * math.pi) == pytest.approx(f, abs=1e-10)

    def test_zeta5_reduction(self, zeta4):
        z5 = quad.zeta5_reduction_check()
        assert z5 == pytest.approx(zeta4, abs=1e-9)
        assert z5 / zeta4 == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("u", [0.3, 1.0, 3.0])
    def test_zeta5_inner_v_identity(self, u):
        lhs, rhs = ref.zeta5_inner_v_identity(u)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_zeta5_identity_large_u_asymptotics(self):
        # closed form behaves like 1/(240 u^14) for large u
        u = 100.0
        _, rhs = ref.zeta5_inner_v_identity(u)
        assert rhs * 240.0 * u**14 == pytest.approx(1.0, abs=1e-3)


class TestMomentIntegralSuite:
    def test_every_entry_matches_closed_form(self, moment_suite):
        # each entry is checked against the target of its `constants` row
        rows = {"integral_" + name: result
                for name, result in moment_suite.items()}
        assert set(rows) == {name for name in moments.CONSTANT_TARGETS
                             if name.startswith("integral_")}
        for name, result in rows.items():
            assert abs(result.value - moments.CONSTANT_TARGETS[name]()) < max(
                10 * result.error_estimate, 1e-9), name

    def test_evaluation_count(self, moment_suite):
        # QUADPACK's adaptive path is deterministic: 16,506 evaluations with
        # e_ar2's theta-term in polar coordinates about (0, pi/2) and the
        # theta-terms of e_vl_ar and e_ar_mw factored (38,787 with those
        # three Cartesian, 159,285 with the cone terms Cartesian too).  A
        # bound, not an equality, since older scipy ships another QUADPACK.
        assert sum(r.evaluations for r in moment_suite.values()) < 20_000

    def test_key_values(self, moment_suite):
        assert moment_suite["e_vl"].value == pytest.approx(
            1.697652726313550, abs=1e-9)
        assert moment_suite["e_ar"].value == pytest.approx(8.0, abs=1e-9)
        assert moment_suite["e_mw2_5cube"].value == pytest.approx(
            3.516040901689803, abs=1e-9)
