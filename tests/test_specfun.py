import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from cubeshadow import specfun


def quad_oracle(f, a, b):
    # tolerance pushed below what quad can certify; roundoff warnings are
    # expected and the result is still good to ~1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-14,
                                  limit=400)
    return value


class TestGamma:
    def test_known_values(self):
        assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert specfun.gamma_fn(1.0) == 1.0
        assert specfun.gamma_fn(5.0) == 24.0

    def test_quarter_against_defining_integral(self):
        # substitute t = s^4 to remove the endpoint singularity
        oracle = quad_oracle(lambda s: 4.0 * math.exp(-s**4), 0, np.inf)
        assert specfun.gamma_fn(0.25) == pytest.approx(oracle, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(specfun.DomainError):
            specfun.gamma_fn(0.0)
        with pytest.raises(specfun.DomainError):
            specfun.gamma_fn(-1.5)


class TestEllipticReal:
    def test_zero_modulus(self):
        pair = specfun.elliptic_real(0.0)
        assert pair.k_value == pytest.approx(math.pi / 2, abs=1e-15)
        assert pair.e_value == pytest.approx(math.pi / 2, abs=1e-15)

    def test_unit_modulus(self):
        assert specfun.elliptic_e(1.0) == 1.0
        with pytest.raises(specfun.DomainError):
            specfun.elliptic_real(1.0)

    def test_against_defining_integrals(self):
        for k in (0.1, 0.5, 1 / math.sqrt(2), 0.9, 0.999):
            pair = specfun.elliptic_real(k)
            k_oracle = quad_oracle(
                lambda t: 1.0 / math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2)
            e_oracle = quad_oracle(
                lambda t: math.sqrt(1 - (k * math.sin(t)) ** 2), 0, math.pi / 2)
            assert pair.k_value == pytest.approx(k_oracle, rel=1e-13)
            assert pair.e_value == pytest.approx(e_oracle, rel=1e-13)

    def test_monotonicity(self):
        ks = np.linspace(0.01, 0.99, 50)
        big_k = [specfun.elliptic_real(k).k_value for k in ks]
        big_e = [specfun.elliptic_real(k).e_value for k in ks]
        assert np.all(np.diff(big_k) > 0)
        assert np.all(np.diff(big_e) < 0)
        assert all(e <= k for e, k in zip(big_e, big_k))

    def test_legendre_relation(self):
        rng = np.random.default_rng(20)
        for k in rng.uniform(0.001, 0.999, 100):
            kc = math.sqrt(1 - k * k)
            a = specfun.elliptic_real(k)
            b = specfun.elliptic_real(kc)
            lhs = (a.e_value * b.k_value + b.e_value * a.k_value
                   - a.k_value * b.k_value)
            assert lhs == pytest.approx(math.pi / 2, abs=1e-12)


class TestEllipticImag:
    def test_zero(self):
        pair = specfun.elliptic_imag(0.0)
        assert pair.k_value == pytest.approx(math.pi / 2, abs=1e-15)
        assert pair.e_value == pytest.approx(math.pi / 2, abs=1e-15)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_against_defining_integrals(self, t):
        pair = specfun.elliptic_imag(t)
        k_oracle = quad_oracle(
            lambda x: 1.0 / math.sqrt(1 + (t * math.sin(x)) ** 2), 0, math.pi / 2)
        e_oracle = quad_oracle(
            lambda x: math.sqrt(1 + (t * math.sin(x)) ** 2), 0, math.pi / 2)
        assert pair.k_value == pytest.approx(k_oracle, abs=1e-10)
        assert pair.e_value == pytest.approx(e_oracle, abs=1e-10)

    def test_unit_argument_values(self):
        pair = specfun.elliptic_imag(1.0)
        assert pair.k_value == pytest.approx(1.31102877714606, abs=1e-10)
        assert pair.e_value == pytest.approx(1.91009889451385, abs=1e-10)

    def test_domain(self):
        with pytest.raises(specfun.DomainError):
            specfun.elliptic_imag(-0.5)
        with pytest.raises(specfun.DomainError):
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

    def test_unsupported_parameters(self):
        # convergent, but no upper parameter is positive
        with pytest.raises(specfun.DomainError):
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
            g = specfun.gamma_fn
            expected = g(c) * g(c - a - b) / (g(c - a) * g(c - b))
            value = specfun.hyp3f2_unit(a, b, 1.7, c, 1.7)
            assert value == pytest.approx(expected, abs=1e-11)
            checked += 1

    def test_divergent_parameters(self):
        with pytest.raises(specfun.ConvergenceError):
            specfun.hyp3f2_unit(1.0, 1.0, 1.0, 1.0, 1.5)

    def test_nonpositive_integer_lower(self):
        with pytest.raises(specfun.DomainError):
            specfun.hyp3f2_unit(0.5, 0.5, 0.5, -1.0, 2.0)


class TestCatalan:
    def test_value_bracket(self):
        g = specfun.catalan_const()
        assert 0.9159655941 < g < 0.9159655943

    def test_leibniz_bracketing(self):
        g = specfun.catalan_const()
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
        assert specfun.catalan_const() == pytest.approx(averaged[-1], abs=1e-12)

    def test_joint_moment_assembly(self):
        g = specfun.catalan_const()
        value = 3 * (5 + 2 * g) / math.pi + 9 * math.pi / 4
        assert value == pytest.approx(13.592597187518807, abs=1e-13)
