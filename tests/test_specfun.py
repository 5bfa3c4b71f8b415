import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

import quad_reference
from cubeshadow import geometry, moments, specfun

pytestmark = pytest.mark.oldest_numpy(
    reason=("K and E come from scipy.special.ellipkm1 and ellipe, and E(it) "
            "from ellipe at a negative parameter, whose last bits may differ "
            "between scipy versions"))


def quad_oracle(f, a, b):
    # tolerance pushed below what quad can certify; roundoff warnings are
    # expected and the result is still good to ~1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-14,
                                  limit=400)
    return value


def _ke(k, kc):
    """K(k) by the library's kernel `specfun._ellipk`, from k', and E(k) by
    `ellipe(k^2)`, the call of `quad._theta_sqrt_integral`."""
    return specfun._ellipk(kc), special.ellipe(k * k)


def ke(k):
    """K(k) and E(k), with k' formed without cancellation in 1 - k^2."""
    return _ke(k, math.sqrt((1.0 - k) * (1.0 + k)))


class TestEllipticReal:
    def test_zero_modulus(self):
        big_k, big_e = ke(0.0)
        assert big_k == pytest.approx(math.pi / 2, abs=1e-15)
        assert big_e == pytest.approx(math.pi / 2, abs=1e-15)

    def test_unit_modulus(self):
        # E(1) = 1; K diverges like ln 4 - ln k', finite for every k' > 0
        big_k, big_e = _ke(1.0, 5e-324)
        assert big_e == 1.0
        assert big_k == math.log(4.0) - math.log(5e-324)

    def test_against_defining_integrals(self):
        for k in (0.1, 0.5, 1 / math.sqrt(2), 0.9, 0.999):
            big_k, big_e = ke(k)
            k_oracle = quad_oracle(
                lambda t: 1.0 / math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2)
            e_oracle = quad_oracle(
                lambda t: math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2)
            assert big_k == pytest.approx(k_oracle, rel=1e-13)
            assert big_e == pytest.approx(e_oracle, rel=1e-13)

    def test_monotonicity(self):
        ks = np.linspace(0.01, 0.99, 50)
        big_k, big_e = zip(*map(ke, ks))
        assert np.all(np.diff(big_k) > 0)
        assert np.all(np.diff(big_e) < 0)
        assert all(e <= k for e, k in zip(big_e, big_k))

    def test_legendre_relation(self):
        rng = np.random.default_rng(20)
        for k in rng.uniform(0.001, 0.999, 100):
            kc = math.sqrt(1 - k * k)
            (ka, ea), (kb, eb) = ke(k), ke(kc)
            lhs = ea * kb + eb * ka - ka * kb
            assert lhs == pytest.approx(math.pi / 2, abs=1e-12)


def _real_moduli():
    rng = np.random.default_rng(2024)
    return [*rng.uniform(0.0, 1.0, 2000),
            *(1.0 - 10.0 ** -j for j in range(1, 16)),
            *(10.0 ** -j for j in range(1, 16))]


class TestEllipticKernel:
    """`_ke`: K from `specfun._ellipk`, by `ellipkm1(k'^2)`, and E from
    `ellipe(k^2)`."""

    @pytest.mark.parametrize("kc", [1.0, 0.5, 0.1, 0.01, 1e-4, 1e-8, 1e-16,
                                    1e-50, 1e-100, 1e-300, 1e-320, 5e-324])
    def test_total_in_kc(self, kc):
        # below k' = 1e-154, k'^2 is subnormal or zero, where ellipkm1 is
        # off or infinite; K then comes from its asymptotic form
        big_k, big_e = _ke(math.sqrt((1.0 - kc) * (1.0 + kc)), kc)
        assert math.isfinite(big_k) and math.isfinite(big_e)
        with mpmath.workdps(700):  # 1 - k'^2 held exactly down to 5e-324
            oracle = mpmath.ellipk(1 - mpmath.mpf(kc) ** 2)
        assert abs(float(big_k / oracle - 1)) < 5e-16

    def test_accurate_near_unit_modulus(self):
        # E = K (1 - sum) of the AGM cancelled here: 5.2e-15 off at
        # k = 1 - 1e-14; ellipe takes no difference of that kind
        with mpmath.workdps(40):
            for j in range(1, 16):
                k = 1.0 - 10.0 ** -j
                _, big_e = _ke(k, math.sqrt((1.0 - k) * (1.0 + k)))
                oracle = mpmath.ellipe(mpmath.mpf(k) ** 2)
                assert abs(float(big_e / oracle - 1)) < 5e-16, k


class TestAgm:
    """Accuracy and domain of K and E as `specfun` computes them.

    K and E once came from an AGM loop; they now come from `_ke`. The class
    keeps its name so that the ids of these two checks stay stable.
    """

    def test_against_mpmath(self):
        worst_k = worst_e = 0.0
        with mpmath.workdps(40):
            for k in _real_moduli():
                kc = math.sqrt((1.0 - k) * (1.0 + k))
                big_k, big_e = _ke(k, kc)
                m = mpmath.mpf(k) ** 2
                worst_k = max(worst_k, abs(float(big_k / mpmath.ellipk(m) - 1)))
                worst_e = max(worst_e, abs(float(big_e / mpmath.ellipe(m) - 1)))
        # measured (scipy 1.17): K 2.5e-16, E 2.4e-16
        assert worst_k < 5e-16
        assert worst_e < 5e-16

    def test_nan_modulus_raises(self):
        # a NaN real modulus gives NaN, never a finite K or E
        assert all(map(math.isnan, ke(math.nan)))
        with pytest.raises(geometry.DomainError):
            specfun.elliptic_imag(math.nan)


class TestEllipticImag:
    def test_zero(self):
        big_k, big_e = specfun.elliptic_imag(0.0)
        assert big_k == pytest.approx(math.pi / 2, abs=1e-15)
        assert big_e == pytest.approx(math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_against_defining_integrals(self, t):
        big_k, big_e = specfun.elliptic_imag(t)
        k_oracle = quad_oracle(
            lambda x: 1.0 / math.sqrt(1 + (t * math.sin(x)) ** 2), 0, math.pi / 2)
        e_oracle = quad_oracle(
            lambda x: math.sqrt(1 + (t * math.sin(x)) ** 2), 0, math.pi / 2)
        assert big_k == pytest.approx(k_oracle, abs=1e-10)
        assert big_e == pytest.approx(e_oracle, abs=1e-10)

    def test_unit_argument_values(self):
        big_k, big_e = specfun.elliptic_imag(1.0)
        assert big_k == pytest.approx(1.31102877714606, abs=1e-10)
        assert big_e == pytest.approx(1.91009889451385, abs=1e-10)

    def test_against_mpmath(self):
        ts = [*(10.0 ** j for j in range(-8, 9)),
              *np.random.default_rng(7).uniform(0.0, 50.0, 500)]
        worst_k = worst_e = 0.0
        with mpmath.workdps(40):
            for t in ts:
                big_k, big_e = specfun.elliptic_imag(float(t))
                m = -mpmath.mpf(float(t)) ** 2
                worst_k = max(worst_k, abs(float(big_k / mpmath.ellipk(m) - 1)))
                worst_e = max(worst_e, abs(float(big_e / mpmath.ellipe(m) - 1)))
        # measured (scipy 1.17): K 2.9e-16, E 4.3e-16; E(it) is
        # ellipe(-t^2), at the parameter itself, where s E(k) with
        # k = t/sqrt(1+t^2) was 1.4e-15 off, its 1 - k^2 carrying the
        # rounding of k
        assert worst_k < 5e-16
        assert worst_e < 1e-15

    def test_huge_argument_is_finite(self):
        # k' = 1e-300: K from the asymptotic form, E(k) = 1
        big_k, big_e = specfun.elliptic_imag(1e300)
        assert math.isfinite(big_k) and big_k > 0.0
        assert big_e == 1e300

    def test_domain(self):
        with pytest.raises(geometry.DomainError):
            specfun.elliptic_imag(-0.5)
        with pytest.raises(geometry.DomainError):
            specfun.elliptic_imag(math.inf)


def series_3f2_oracle(a1, a2, a3, b1, b2, terms=4_000_000):
    """Direct float summation of the 3F2 series with an integral tail bound."""
    k = np.arange(terms, dtype=float)
    ratios = ((a1 + k) * (a2 + k) * (a3 + k)
              / ((b1 + k) * (b2 + k) * (1.0 + k)))
    t = np.empty(terms + 1)
    t[0] = 1.0
    np.cumprod(ratios, out=t[1:])
    s = b1 + b2 - a1 - a2 - a3
    # asymptotic tail: terms decay like C k^{-1-s}
    tail = t[-1] * terms / s + 0.5 * t[-1]
    return float(t.sum() + tail)


class TestHyp3F2:
    def test_zero_upper_parameter(self):
        assert specfun.hyp3f2_unit(0.0, 0.5, 1.5, 1.0, 2.0) == 1.0

    def test_needed_parameter_sets_against_series(self):
        for b2 in (2.0, 3.0):
            mine = specfun.hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, b2)
            oracle = series_3f2_oracle(-0.5, 0.5, 1.5, 1.0, b2)
            assert mine == pytest.approx(oracle, abs=1e-11)
        assert specfun.hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 2.0) == pytest.approx(
            7.118558716719735 / (3.0 * math.pi), abs=1e-10)

    @pytest.mark.parametrize("params", [
        (0.3, 0.7, 1.2, 2.1, 2.5),
        # every admissible permutation leaves a 2F1 singular at t = 1, so
        # this set takes Euler's transformation
        (1.5, 1.5, 0.5, 2.0, 2.2),
    ])
    def test_generic_parameter_sets_against_series(self, params):
        assert specfun.hyp3f2_unit(*params) == pytest.approx(
            series_3f2_oracle(*params), abs=1e-11)

    def test_logarithmic_2f1(self):
        # every admissible permutation has e = c - p - q = 0, so the 2F1
        # of the Euler integral grows like -log(1 - t), infinite at the
        # nodes that round to t = 1, and no route applies; Dixon's value
        # 3F2(1/2, 1/2, 1/2; 1, 1; 1) = pi / Gamma(3/4)^4 is checked at 50
        # digits by test_moments.py's TestZetaProofChain::test_link_3_dixon
        with pytest.raises(specfun.ConvergenceError,
                           match="not finite") as exc:
            specfun.hyp3f2_unit(0.5, 0.5, 0.5, 1.0, 1.0)
        assert exc.value.best is not None

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("params", [
        (-0.5, 0.5, 1.5, 1.0, 2.0), (-0.5, 0.5, 1.5, 1.0, 3.0),
        (0.3, 0.7, 1.2, 2.1, 2.5), (1.5, 1.5, 0.5, 2.0, 2.2)])
    def test_euler_integral_matches_quadpack(self, params, monkeypatch):
        # the Euler integral of each parameter set that takes that route,
        # by QUADPACK's QAWS beside the rule, within ten times the accuracy
        # asked of both
        pairs = quad_reference.quadpack_twin(monkeypatch)
        specfun.hyp3f2_unit(*params)
        (rule, quadpack, requested), = pairs
        assert abs(rule.value - quadpack) <= 10 * requested

    def test_unsupported_parameters(self):
        # convergent, but no upper parameter is positive
        with pytest.raises(geometry.DomainError):
            specfun.hyp3f2_unit(-0.5, -0.5, -0.5, 1.0, 1.0)

    def test_gauss_2f1_identity(self):
        # upper = lower parameter reduces to 2F1; Gauss summation at z=1
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            a, b = rng.uniform(-0.4, 1.2, 2)
            c = a + b + rng.uniform(0.6, 2.0)
            if c <= 0:
                continue
            g = math.gamma
            expected = g(c) * g(c - a - b) / (g(c - a) * g(c - b))
            value = specfun.hyp3f2_unit(a, b, 1.7, c, 1.7)
            assert value == pytest.approx(expected, abs=1e-11)
            checked += 1

    def test_divergent_parameters(self):
        with pytest.raises(specfun.ConvergenceError):
            specfun.hyp3f2_unit(1.0, 1.0, 1.0, 1.0, 1.5)

    def test_nonpositive_integer_lower(self):
        with pytest.raises(geometry.DomainError):
            specfun.hyp3f2_unit(0.5, 0.5, 0.5, -1.0, 2.0)


class TestCatalan:
    def test_value_bracket(self):
        g = specfun.CATALAN
        assert 0.9159655941 < g < 0.9159655943

    def test_leibniz_bracketing(self):
        g = specfun.CATALAN
        partial = 0.0
        for k in range(50):
            prev = partial
            partial += (-1) ** k / (2 * k + 1) ** 2
            lo, hi = sorted((prev, partial))
            if k > 0:
                assert lo < g < hi

    def test_two_independent_methods_agree(self):
        # raw alternating series averaged over consecutive partial sums
        n = 20000
        k = np.arange(n)
        terms = (-1.0) ** k / (2 * k + 1) ** 2
        partials = np.cumsum(terms)
        averaged = partials
        for _ in range(12):  # repeated Euler averaging
            averaged = 0.5 * (averaged[:-1] + averaged[1:])
        assert specfun.CATALAN == pytest.approx(averaged[-1], abs=1e-12)

    def test_correctly_rounded(self):
        assert specfun.CATALAN == float(mpmath.catalan)

    def test_joint_moment_assembly(self):
        # E(ar mw) at n = 4 is 3 (5 + 2G)/pi + 9 pi/4
        value = moments.closed_form_targets(4)["ar_mw"]
        assert value == pytest.approx(13.592597187518807, abs=1e-13)
