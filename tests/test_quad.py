import math

import numpy as np
import pytest
from scipy import integrate, special

import quad_reference as ref
from cubeshadow import geometry, moments, quad, specfun

pytestmark = pytest.mark.oldest_numpy(
    reason=("the double-exponential rule runs on scipy's ellipe, ellipkm1 and "
            "hyp2f1 and on numpy's ufuncs, and its levels stop where two "
            "successive ones agree, so its values and node counts, the "
            "QUADPACK second route and the bit-for-bit identities of the "
            "shared passes rest on them"))


class TestIntegrator:
    KNOWN = [
        (lambda t: np.exp(-t), 0, np.inf, 1.0),
        (lambda t: t * np.log(t), 0, 1, -0.25),
        (lambda t: np.log(t) ** 2, 0, 1, 2.0),
        (lambda t: 1.0 / np.sqrt(t), 0, 1, 2.0),
        (lambda t: t**3 - 2 * t, -1, 2, 0.75),
        (lambda t: np.exp(-t * t), 0, np.inf, math.sqrt(math.pi) / 2),
        (lambda t: 1.0 / (1 + t * t), 0, np.inf, math.pi / 2),
        (lambda t: np.sin(t) ** 2, 0, math.pi, math.pi / 2),
        (lambda t: t * np.exp(-t) * np.log(t), 0, np.inf, 1 - 0.5772156649015329),
        # 1/sqrt(1 - v^2) = (1 - v)^(-1/2)/sqrt(1 + v) is singular at the end
        # 1, where the nodes round to the end: the singular factor is the
        # weight
        (lambda v: 1.0 / np.sqrt(1.0 + v), 0, 1, math.pi / 2, (0.0, -0.5)),
    ]

    @pytest.mark.parametrize(
        "f,a,b,expected,weight", [(*k, None)[:5] for k in KNOWN],
        ids=[f"<lambda>-{a}-{b}-{expected}" for _, a, b, expected, *_ in KNOWN])
    def test_known_integrals(self, f, a, b, expected, weight):
        r = quad.integrate_1d(f, a, b, tol=1e-12, weight=weight)
        assert abs(r.value - expected) <= max(10 * r.error_estimate, 1e-12)
        assert r.error_estimate >= 0
        assert r.evaluations > 0

    def test_elliptic_integrand(self):
        r = quad.integrate_1d(lambda t: np.sqrt(1 + np.sin(t) ** 2),
                              0, math.pi / 2, tol=1e-12)
        assert r.value == pytest.approx(specfun.elliptic_imag(1.0)[1], abs=1e-11)

    def test_bad_tolerance(self):
        with pytest.raises(geometry.DomainError):
            quad.integrate_1d(lambda t: t, 0, 1, tol=0.0)
        with pytest.raises(geometry.DomainError):
            quad.integrate_1d(lambda t: t, 0, 1, weight=(-1.0, 0.0))
        with pytest.raises(geometry.DomainError):
            quad.integrate_1d(lambda t: t, 0, np.inf, weight=(0.5, 0.0))

    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 0.0), (-0.5, -0.5), (0.5, -0.5), (-0.9, 0.3), (0.7, -0.95),
        (-0.99, -0.2), (2.5, -0.7), (-0.999, -0.999)])
    def test_algebraic_weight(self, alpha, beta):
        # t^alpha (1-t)^beta on [0, 1] is the Beta integral; the weight is
        # formed from each node's distance to its end, so an exponent near
        # -1 at either end keeps its accuracy
        r = quad.integrate_1d(lambda t: np.ones_like(t), 0.0, 1.0, tol=1e-13,
                              weight=(alpha, beta))
        assert r.value == pytest.approx(special.beta(alpha + 1, beta + 1),
                                        rel=1e-14)

    # Integrands singular at an end other than 0, where the nodes round to
    # the end, each as (f, weight, a, b, expected): the singular factor is
    # the weight.  The first is 1/sqrt(1 - v^2) = (1 - v)^(-1/2)/sqrt(1 + v),
    # then 1/sqrt((1 + v)(3 - v)), 1/sqrt((v - 2)(3 - v)), (1 - v)^-0.9 and
    # log(-v)/sqrt(v + 1).
    SINGULAR_ENDS = [
        (lambda v: 1.0 / np.sqrt(1.0 + v), (0.0, -0.5), 0.0, 1.0, math.pi / 2),
        (lambda v: 1.0 / np.sqrt(1.0 + v), (0.0, -0.5), 2.0, 3.0, math.pi / 3),
        (np.ones_like, (-0.5, -0.5), 2, 3, math.pi),
        (np.ones_like, (0.0, -0.9), 0, 1, 10.0),
        (lambda v: np.log(-v), (-0.5, 0.0), -1, 0, 4 * math.log(2) - 4),
    ]

    @pytest.mark.parametrize(
        "f,weight,a,b,expected", SINGULAR_ENDS,
        ids=[f"{a}-{b}-{expected}" for *_, a, b, expected in SINGULAR_ENDS])
    def test_singular_end_as_weight(self, f, weight, a, b, expected):
        r = quad.integrate_1d(f, a, b, tol=1e-13, weight=weight)
        assert r.value == pytest.approx(expected, rel=1e-15)

    def test_singular_end_evaluations(self):
        # nodes round to the end 1, where each f is infinite: the sum is not
        # finite at the first level, which ends the levels, and the error
        # carries that level's evaluations
        first = quad._new_steps(-quad._LINE_T, quad._LINE_T, 0).size
        for g in (lambda v: np.log(1.0 - v), lambda v: 1.0 / np.sqrt(1.0 - v)):
            calls = []

            def f(v):
                calls.append(np.size(v))
                return g(v)
            error = _raised(lambda: quad.integrate_1d(f, 0.0, 1.0, tol=1e-12))
            assert str(error).startswith("quadrature sum is not finite")
            assert error.best.evaluations == first == sum(calls)

    def test_unconverged_raises_budget_error(self):
        with pytest.raises(specfun.ConvergenceError) as info:
            quad.integrate_1d(lambda x: np.sin(1e4 * x), 0, 1, tol=1e-13)
        assert info.value.best.evaluations > 0

    def test_budget_is_relative_to_the_value(self):
        # |I| = 12.87, so the accuracy asked at tol = 1e-14 is 1.3e-13: an
        # error estimate of 1.4e-13 is above 10 x 1e-14 in absolute terms
        # but is certified
        r = quad.integrate_1d(lambda th: _ar2_original(th, 0.3, 1.2),
                              0.0, math.pi / 2, tol=1e-14)
        assert r.value == pytest.approx(_ar2_reduced(0.3, 1.2), rel=1e-14)
        for value, certified in ((12.87, True), (1.0, False)):
            result = quad.QuadResult(value, 1.4e-13, 1)
            try:
                assert quad._certified(result, 1e-14, 1e-14, "") is result
            except specfun.ConvergenceError as exc:
                assert not certified and exc.best is result
            else:
                assert certified


class TestNested:
    def test_value_and_evaluations(self):
        (r,) = quad._nested(lambda x, y: (x * y,), [(0, 1), (0, 2)], 1e-12)
        assert r.value == pytest.approx(1.0, abs=1e-13)
        assert r.evaluations > 0

    def test_unconverged_raises_budget_error(self):
        with pytest.raises(specfun.ConvergenceError) as info:
            quad._nested(lambda x, y: (np.sin(1e4 * x),), [(0, 1), (0, 1)],
                         1e-13)
        assert info.value.best.evaluations > 0


def _raised(call):
    """The ConvergenceError that call raises."""
    with pytest.raises(specfun.ConvergenceError) as info:
        call()
    return info.value


class TestComponents:
    """`_converge` integrates the k components of one integrand on one set
    of nodes, and each component's result is exactly that of its own
    k = 1 call: its value, error estimate and evaluation count, and, when it
    does not converge, its ConvergenceError.  In one dimension (`_line_pass`)
    that call is `integrate_1d`."""

    BOX = [(0.0, 1.0), (0.0, 1.0)]

    @staticmethod
    def nested(*fs, tol=1e-12):
        return quad._nested(lambda x, y: tuple(f(x, y) for f in fs),
                            TestComponents.BOX, tol)

    @staticmethod
    def line(*fs, b=1.0, tol=1e-12, weight=(0.0, 0.0), epsabs=None):
        return quad._line_pass(lambda x: tuple(f(x) for f in fs), 0.0, b,
                               tol, weight, epsabs)

    def test_components_stop_at_their_own_levels(self):
        # x y has converged by level 2 and stops at level 3, which confirms
        # it (51 x 51 nodes); cos(40 x y) needs level 5 (205 x 205): each
        # keeps the count of its own levels
        def poly(x, y):
            return x * y

        def wave(x, y):
            return np.cos(40.0 * x * y)
        both = self.nested(poly, wave)
        assert both == self.nested(poly) + self.nested(wave)
        assert [r.evaluations for r in both] == [51 ** 2, 205 ** 2]
        assert self.nested(wave, poly) == both[::-1]

    def test_line_components_stop_at_their_own_levels(self):
        # t^3 - 2t stops at level 4 (129 nodes), sin(40 t) at level 5 (257)
        def poly(t):
            return t ** 3 - 2.0 * t

        def wave(t):
            return np.sin(40.0 * t)
        both = self.line(poly, wave)
        assert both == self.line(poly) + self.line(wave)
        assert [r.evaluations for r in both] == [129, 257]
        assert both == tuple(quad.integrate_1d(f, 0.0, 1.0, tol=1e-12)
                             for f in (poly, wave))
        assert self.line(wave, poly) == both[::-1]

    @pytest.mark.parametrize("b,weight,epsabs,other", [
        (1.0, (-0.5, 0.3), None, lambda t: np.sin(40.0 * t)),
        (1.0, (0.0, 0.0), 1e-15, lambda t: np.sin(40.0 * t)),
        (math.inf, (0.0, 0.0), None, lambda t: 1.0 / (1.0 + t * t) ** 2)])
    def test_line_components_equal_integrate_1d(self, b, weight, epsabs,
                                                other):
        # under an algebraic weight, an absolute accuracy of its own and on
        # (0, inf), each component is its own `integrate_1d` call, bit for
        # bit, and they stop at different levels
        fs = (lambda t: np.exp(-t), other, lambda t: t * np.exp(-t))
        parts = self.line(*fs, b=b, weight=weight, epsabs=epsabs)
        assert parts == tuple(
            quad.integrate_1d(f, 0.0, b, tol=1e-12, epsabs=epsabs,
                              weight=None if b == math.inf else weight)
            for f in fs)
        assert len({r.evaluations for r in parts}) > 1

    def test_unconverged_line_component_raises_its_own_error(self):
        def poly(t):
            return t ** 3 - 2.0 * t

        def fast(t):
            return np.sin(1e4 * t)
        alone = _raised(lambda: quad.integrate_1d(fast, 0.0, 1.0, tol=1e-13))
        for fs in ((poly, fast), (fast, poly)):
            error = _raised(lambda: self.line(*fs, tol=1e-13))
            assert str(error) == str(alone)
            assert error.best == alone.best
        assert alone.best.evaluations == 513

    def test_unconverged_component_raises_its_own_error(self):
        def poly(x, y):
            return x * y

        def fast(x, y):
            return np.sin(1e4 * x)
        alone = _raised(lambda: self.nested(fast, tol=1e-13))
        for fs in ((poly, fast), (fast, poly)):
            error = _raised(lambda: self.nested(*fs, tol=1e-13))
            assert str(error) == str(alone)
            assert error.best == alone.best
        assert alone.best.evaluations == 409 ** 2


# numpy's ufuncs may round sin, cos, sqrt and pow other than libm does, by
# an ulp or so, on some hardware: the vectorized integrands must agree with
# the scalar ones to a few ulps of the integrand's scale.
ULPS = 8 * np.finfo(float).eps


def _agree(vectorized, scalar):
    vectorized, scalar = np.broadcast_arrays(vectorized, np.asarray(scalar))
    gap = np.abs(vectorized - scalar)
    assert np.all(gap <= ULPS * np.abs(scalar).max()), gap.max()


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
    # the moment integrands' density of (phi, psi), from their sines, is
    # the n = 4 case of `spherical_density` over the whole range of the
    # angles
    ph, ps = np.random.default_rng(4).uniform(0.0, math.pi, (2, 100_000))
    _agree(quad._dens4(np.sin(ph), np.sin(ps)),
           [ref.spherical_density(4, (0.0, x, y))
            for x, y in zip(ph.tolist(), ps.tolist())])


# The components of `quad._box_terms`, by the names of their scalar
# references in `tests/quad_reference.py`.
BOX_TERMS = ("_vl", "_vl2", "_mw", "_mw2", "_vl_mw", "_ar2_smooth", "_ij")


class TestCurriedIntegrands:
    """The components of the vectorized term functions equal the
    two-argument scalar integrands of `tests/quad_reference.py` (see
    `_agree`), and the rule agrees with QUADPACK's `integrate.nquad` on the
    suite's kinds of double integral.

    The integrands were once curried, and the ids of these checks, which
    compared those bytes and `_nested`'s calls, stay stable.
    """

    @pytest.mark.parametrize("name", BOX_TERMS)
    def test_box_integrand_bytes(self, name):
        reference = getattr(ref, name)
        x, y = np.array(_box_points()).T
        _agree(quad._box_terms(x, y)[BOX_TERMS.index(name)],
               [reference(a, b) for a, b in zip(x.tolist(), y.tolist())])

    def test_mw2_3cube_bytes(self):
        x = np.array(_box_points())[:, 0]
        _agree(quad._line_terms(x)[3], [ref._mw2_3cube(a) for a in x.tolist()])

    @staticmethod
    def _polar_points():
        """`_box_points` mapped to (r, alpha), t in [0, pi/2] to r from 0
        to the far edge."""
        al, t = np.array(_box_points()).T
        far = np.array([ref.edge(a)[1] for a in al.tolist()])
        return t / (math.pi / 2) * far, al

    def test_polar_integrand_bytes(self):
        # each component of the cone terms, in polar coordinates about
        # their corner, against the same component at each point
        corner = quad._CONE_CORNER
        r, al = self._polar_points()
        vectorized = quad._polar(quad._cone_terms, corner)(r, al)
        for i, part in enumerate(vectorized):
            def component(ph, ps, i=i):
                return quad._cone_terms(ph, ps)[i]
            _agree(part, [ref.polar(component, corner)(a, b)
                          for a, b in zip(r.tolist(), al.tolist())])

    def test_polar_theta_integrand_bytes(self):
        # e_ar2's theta-term about its own corner, against the two-argument
        # reference integrand
        corner = quad._AR2_THETA_CORNER
        assert corner == (0.0, math.pi / 2)
        r, al = self._polar_points()
        (vectorized,) = quad._polar(quad._ar2_theta, corner)(r, al)
        _agree(vectorized, [ref.polar(ref._ar2_theta, corner)(a, b)
                            for a, b in zip(r.tolist(), al.tolist())])

    @staticmethod
    def _matches_nquad(rule, reference):
        """The rule's double integral of (f, ranges) and nquad's of the
        reference (f, ranges), each asked the suite's accuracy, agree
        within ten times it."""
        tol = quad._BOX_TOLS[1]
        (result,) = quad._nested(*rule, tol)
        value = integrate.nquad(*reference,
                                opts={"epsabs": tol, "epsrel": tol})[0]
        assert result.evaluations > 0
        assert abs(result.value - value) <= 10 * tol * max(1.0, abs(value))

    def test_nested_matches_nquad_smooth(self):
        def f(x, y):
            return np.exp(np.sin(x) * np.cos(2 * y)) * (1 + x * y)

        box = [(0.0, math.pi / 2)] * 2
        self._matches_nquad((ref.one(f), box), (f, box))

    @staticmethod
    def _polar_pair(f, f_reference, corner):
        """The rule's and the reference's polar integrands of f, of one
        component, about the corner over the piece of alpha [0, pi/4], with
        their ranges."""
        half = (0.0, math.pi / 4)
        return ((quad._polar(f, corner), [quad._edge, half]),
                (ref.polar(f_reference, corner), [ref.edge, half]))

    def test_nested_matches_nquad_corner_cone(self):
        self._matches_nquad(*self._polar_pair(ref.one(ref.cone), ref.cone,
                                              quad._CONE_CORNER))

    def test_nested_matches_nquad_theta_corner(self):
        # the piece of alpha that holds the logarithmic edge at alpha = 0
        self._matches_nquad(*self._polar_pair(quad._ar2_theta, ref._ar2_theta,
                                              (0.0, math.pi / 2)))


class TestCornerPolar:
    CORNERS = (quad._CONE_CORNER, quad._AR2_THETA_CORNER)

    def test_constant(self):
        for corner in self.CORNERS:
            (r,) = quad._corner_polar(lambda ph, ps: (1.0,), corner)
            assert r.value == pytest.approx((math.pi / 2) ** 2, abs=1e-13)
            assert r.evaluations > 0

    def test_cone_about_the_corner(self):
        # The distance to the corner over the square of side a = pi/2:
        # a^3/3 (sqrt 2 + asinh 1).
        for ph0, ps0 in self.CORNERS:
            (r,) = quad._corner_polar(
                lambda ph, ps: (np.hypot(ph0 - ph, ps0 - ps),), (ph0, ps0))
            assert r.value == pytest.approx(
                (math.pi / 2) ** 3 / 3 * (math.sqrt(2) + math.asinh(1)),
                abs=1e-12)

    def test_smooth_integrand_matches_cartesian(self):
        def f(ph, ps):
            return np.exp(np.sin(ph) * np.cos(2 * ps)) * (1 + ph * ps)

        (cartesian,) = quad._double(ref.one(f))
        for corner in self.CORNERS:
            (polar,) = quad._corner_polar(ref.one(f), corner)
            assert polar.value == pytest.approx(cartesian.value, abs=1e-12)

    def test_unconverged_raises_budget_error(self):
        # Smooth in r, but it oscillates in alpha too fast for the finest
        # level of the rule.
        def f(ph, ps):
            return (np.sin(1e4 * np.arctan2(math.pi / 2 - ps,
                                            math.pi / 2 - ph)),)

        with pytest.raises(specfun.ConvergenceError) as info:
            quad._corner_polar(f, quad._CONE_CORNER)
        assert info.value.best.evaluations > 0


# The theta-explicit defining integrands of the entries that depend on theta,
# as written before the theta integration was done analytically.

def _ar2_original(th, ph, ps):
    c, s = np.cos, np.sin
    first = 384.0 * (c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
    second = (1536.0 * s(ph) * s(ps)
              * np.sqrt(s(th) ** 2 * s(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2))
    third = (384.0 * s(ph) * s(ps)
             * np.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2))
    return (first + second + third) * ref.dens4(ph, ps)


def _area_terms_original(th, ph, ps):
    c, s = np.cos, np.sin
    return (np.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
            + np.sqrt(s(th) ** 2 * s(ph) ** 2 * s(ps) ** 2
                      + c(ph) ** 2 * s(ps) ** 2))


def _vl_ar_original(th, ph, ps):
    return (384.0 * np.cos(ps) * _area_terms_original(th, ph, ps)
            * ref.dens4(ph, ps))


def _ar_mw_original(th, ph, ps):
    return (192.0 * np.sqrt(1.0 - np.cos(ps) ** 2)
            * _area_terms_original(th, ph, ps) * ref.dens4(ph, ps))


# Their theta-integrals, as the sums of the terms the suite integrates; the
# theta-terms of e_vl_ar and e_ar_mw as the products of their factors, the
# components of `quad._line_terms` at psi and at phi.

def _ar2_reduced(ph, ps):
    return (quad._box_terms(ph, ps)[5] + quad._cone_terms(ph, ps)[1]
            + quad._ar2_theta(ph, ps)[0])


def _vl_ar_reduced(ph, ps):
    return (quad._cone_terms(ph, ps)[2]
            + quad._line_terms(ps)[1] * quad._line_terms(ph)[0])


def _ar_mw_reduced(ph, ps):
    return (quad._cone_terms(ph, ps)[3]
            + quad._line_terms(ps)[2] * quad._line_terms(ph)[0])


class TestThetaReduction:
    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.4, 1.0, 7.5])
    @pytest.mark.parametrize("b", [0.0, 1e-3, 0.25, 1.0, 3.0])
    def test_identity_against_quadrature(self, a, b):
        direct = quad.integrate_1d(
            lambda th: np.sqrt(a * np.sin(th) ** 2 + b),
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


@pytest.mark.parametrize("suite", [quad.pi_over_128_suite,
                                   quad.zeta5_reduction_check],
                         ids=lambda f: f.__name__)
def test_one_elliptic_call_per_level(suite, monkeypatch):
    # the three integrals of each suite are the components of one pass on
    # (0, inf): K(it) and E(it) are evaluated once per level, on the nodes
    # that level adds, where a pass per integral evaluated them three times
    sizes = []

    def counted(t):
        sizes.append(np.size(t))
        return specfun.elliptic_imag(t)
    monkeypatch.setattr(quad, "elliptic_imag", counted)
    suite()
    assert 0 < len(sizes) <= quad._MAX_LEVEL + 1
    assert sizes == [quad._new_steps(*quad._HALF_LINE_T, level).size
                     for level in range(len(sizes))]


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
        # The rule's nodes are fixed, so the count is too: each of the 17
        # double integrals stops at level 4, 103 x 103 = 10,609 nodes, and
        # each of the five one-dimensional ones (the phi-factor counted in
        # both entries it serves) at level 4, 129 nodes: 180,998.  A bound,
        # since rounding elsewhere could stop a piece one level earlier.
        assert sum(r.evaluations for r in moment_suite.values()) <= 180_998

    def test_equals_the_per_integral_route(self, moment_suite):
        # every entry, bit for bit, as each double integral gave it in a
        # pass of its own (`quad_reference.per_integral_suite`)
        route = ref.per_integral_suite()
        assert list(moment_suite) == list(route)
        for name, result in moment_suite.items():
            assert result.value == route[name].value, name
            assert result.error_estimate == route[name].error_estimate, name
            assert result.evaluations == route[name].evaluations, name

    def test_components_equal_the_per_integral_integrands(self):
        # each component to the bit, on a row of phi against a column of
        # psi as on the box grid, and on full grids as on the polar ones
        x, y = np.array(_box_points()).T
        for ph, ps in ((x[None, :], y[:, None]),
                       np.broadcast_arrays(x[None, :], y[:, None])):
            for terms, singles in ((quad._box_terms, ref.BOX),
                                   (quad._cone_terms, ref.CONE),
                                   (quad._ar2_theta, (ref.ar2_theta,))):
                parts = terms(ph, ps)
                assert len(parts) == len(singles)
                for part, single in zip(parts, singles):
                    assert np.array_equal(part, single(ph, ps)), single
        # and on the nodes of one line
        parts = quad._line_terms(x)
        assert len(parts) == len(ref.LINE)
        for part, single in zip(parts, ref.LINE):
            assert np.array_equal(part, single(x)), single

    def test_one_pass_per_grid(self, monkeypatch):
        # 5 levels of 2 blocks: the box term function runs 10 times, and
        # the cone term function 20 times (two halves), where a pass per
        # integral ran 70 and 80 integrand calls; 5 levels of one block on
        # [0, pi/2], where the four one-dimensional integrals ran 20 calls
        calls = {"_box_terms": 0, "_cone_terms": 0, "_ar2_theta": 0,
                 "_line_terms": 0}

        def counted(name, f):
            def wrapper(*x):
                calls[name] += 1
                return f(*x)
            return wrapper
        for name in calls:
            monkeypatch.setattr(quad, name, counted(name, getattr(quad, name)))
        quad.moment_integral_suite()
        assert calls == {"_box_terms": 10, "_cone_terms": 20, "_ar2_theta": 20,
                         "_line_terms": 5}

    def test_key_values(self, moment_suite):
        assert moment_suite["e_vl"].value == pytest.approx(
            1.697652726313550, abs=1e-9)
        assert moment_suite["e_ar"].value == pytest.approx(8.0, abs=1e-9)
        assert moment_suite["e_mw2_5cube"].value == pytest.approx(
            3.516040901689803, abs=1e-9)


class TestQuadpackRoute:
    """Every integral of the `constants` suites, integrated by QUADPACK
    beside the rule (`quad_reference.quadpack_twin`), agrees with it within
    ten times the accuracy asked of both."""

    # The number of integrals each suite twins: the 3 components of the one
    # `_line_pass` of the zeta_5 reduction and of the pi/128 identity; the
    # moment suite's 17 double integrals (7 box, 8 cone and 2 theta-term
    # components of 5 `_nested` passes) and its 4 one-dimensional ones (the
    # components of one `_line_pass`).
    PAIRS = {"zeta4_quadrature": 1, "zeta3_quadrature": 1,
             "zeta5_reduction_check": 3, "pi_over_128_suite": 3,
             "moment_integral_suite": 21}

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("suite", [
        quad.zeta4_quadrature, quad.zeta3_quadrature,
        quad.zeta5_reduction_check, quad.pi_over_128_suite,
        quad.moment_integral_suite], ids=lambda f: f.__name__)
    def test_every_integral_matches_quadpack(self, suite, monkeypatch):
        pairs = ref.quadpack_twin(monkeypatch)
        suite()
        assert len(pairs) == self.PAIRS[suite.__name__]
        for rule, quadpack, requested in pairs:
            assert abs(rule.value - quadpack) <= 10 * requested
