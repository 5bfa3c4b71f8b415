"""Special functions used by the analytic shadow-moment results.

Gamma, complete elliptic integrals of the first and second kind (real and
purely imaginary modulus, from the compiled `scipy.special.ellipkm1` and
`ellipe`: K and E within 5e-16 relative of mpmath for real modulus), the
generalized hypergeometric 3F2 at unit argument (terminating sum, Gauss
summation or the Euler integral over 2F1, in double precision), and
Catalan's constant.  Modulus convention: K(k), E(k) take the modulus k,
not the parameter m = k^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from scipy import integrate, special


class DomainError(ValueError):
    """Argument outside the supported domain."""


class ConvergenceError(ValueError):
    """A series that diverges, or a quadrature that does not converge.

    `best` is the quadrature's estimate when it has one (a
    `quad.QuadResult`), or None.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EllipticPair:
    k_value: float
    e_value: float


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0 (poles and negative arguments unsupported)."""
    if x <= 0:
        raise DomainError(f"gamma_fn needs x > 0, got {x}")
    return math.gamma(x)


def _ke(k: float, kc: float) -> tuple[float, float]:
    """K(k) and E(k) given the modulus k and k' = sqrt(1-k^2).

    K is `ellipkm1(k'^2)`, which takes the complementary parameter and so
    avoids the cancellation in 1 - k^2; E is `ellipe(k^2)`.  Against mpmath
    at 40 digits both are within 2.5e-16 relative for real k (2,030 moduli
    up to k = 1 - 1e-15).  For k' < 1e-8, K = ln 4 - ln k', the asymptotic
    form `ellipkm1` itself uses there, is exact to a double and stays so
    where k'^2 would be subnormal (k' below about 1e-154) or zero.
    """
    if kc < 1e-8:
        big_k = math.log(4.0) - math.log(kc)
    else:
        big_k = float(special.ellipkm1(kc * kc))
    return big_k, float(special.ellipe(k * k))


def elliptic_real(k: float) -> EllipticPair:
    """Complete elliptic integrals K(k), E(k) for real modulus k in [0, 1).

    E alone is additionally defined at k = 1 (E(1) = 1); K diverges there.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0:
        raise DomainError("K(k) diverges at k = 1; use elliptic_e for E(1)")
    kc = math.sqrt((1.0 - k) * (1.0 + k))
    big_k, big_e = _ke(k, kc)
    return EllipticPair(k_value=big_k, e_value=big_e)


def elliptic_e(k: float) -> float:
    """E(k) for real modulus k in [0, 1] (defined at the endpoint k = 1)."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k}")
    if k == 1.0:
        return 1.0
    return elliptic_real(k).e_value


def elliptic_imag(t: float) -> EllipticPair:
    """K(i*t) and E(i*t) for t >= 0, via the imaginary-modulus transformation.

    K(it) = K(t/sqrt(1+t^2)) / sqrt(1+t^2),
    E(it) = sqrt(1+t^2) * E(t/sqrt(1+t^2)).
    Real arithmetic throughout; total for all finite t >= 0.
    """
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"need finite t >= 0, got {t}")
    if t == 0.0:
        half_pi = 0.5 * math.pi
        return EllipticPair(k_value=half_pi, e_value=half_pi)
    s = math.hypot(1.0, t)
    k = t / s
    kc = 1.0 / s  # complementary modulus, computed without cancellation
    big_k, big_e = _ke(k, kc)
    return EllipticPair(k_value=big_k / s, e_value=s * big_e)


# Series terms summed exactly before the Euler integral takes the rest, so
# that the quadrature's error scales with the tail, not with the whole sum.
_HEAD_TERMS = 16


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and abs(x - round(x)) < 1e-12


def _rgamma(x: float) -> float:
    """1/Gamma(x), zero at the poles."""
    return 0.0 if _is_nonpositive_int(x) else 1.0 / math.gamma(x)


def _series_terms(uppers, lowers, count: int) -> list[float]:
    """The first count terms of sum_k prod (a)_k / (prod (b)_k k!) z^k at z = 1."""
    terms = [1.0]
    for k in range(count - 1):
        terms.append(terms[-1] * math.prod(a + k for a in uppers)
                     / (math.prod(b + k for b in lowers) * (k + 1)))
    return terms


def hyp3f2_unit(a1: float, a2: float, a3: float, b1: float, b2: float) -> float:
    """Generalized hypergeometric 3F2(a1,a2,a3; b1,b2; 1), in double precision.

    Requires sum(b) - sum(a) > 0 (convergence at unit argument) and no
    lower parameter a nonpositive integer.  Evaluated by the first route
    that applies:

    - an upper parameter is a nonpositive integer: the series terminates
      and is summed directly;
    - an upper parameter equals a lower one: Gauss's formula for 2F1 at 1;
    - otherwise the first terms of the series are summed and the rest is
      the Euler integral (DLMF 16.5.2), with the parameters permuted so
      that b2 > a3 > 0,
      Gamma(b2)/(Gamma(a3) Gamma(b2-a3)) int_0^1 t^(a3-1) (1-t)^(b2-a3-1)
      [2F1(a1,a2;b1;t) - its first terms] dt,
      by Clenshaw-Curtis/Gauss-Kronrod quadrature with the algebraic
      weight.  The 2F1 behaves like (1-t)^e at t = 1, e = b1 - a1 - a2; a
      negative power is moved into the weight by Euler's transformation,
      and of the admissible permutations the one with the largest |e|
      (the smoothest integrand) is used.

    Raises DomainError when no route applies (no upper parameter positive
    and below a lower one), ConvergenceError when the series diverges or
    the quadrature does not certify ~1e-10 relative accuracy.
    """
    uppers, lowers = (a1, a2, a3), (b1, b2)
    for b in lowers:
        if _is_nonpositive_int(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")
    for a in uppers:
        if _is_nonpositive_int(a):
            # terminating series; always convergent
            return math.fsum(_series_terms(uppers, lowers, round(-a) + 1))
    excess = b1 + b2 - a1 - a2 - a3
    if excess <= 0:
        raise ConvergenceError(
            f"series diverges at z=1: sum(b)-sum(a) = {excess}")
    choices = []
    for i, j in itertools.product(range(3), range(2)):
        a, b, c = uppers[i], lowers[j], lowers[1 - j]
        p, q = (x for k, x in enumerate(uppers) if k != i)
        if a == b:
            return (math.gamma(c) * math.gamma(c - p - q)
                    * _rgamma(c - p) * _rgamma(c - q))
        if b > a > 0:
            choices.append((abs(c - p - q), c - p - q, a, b, c, p, q))
    if not choices:
        raise DomainError(
            f"3F2({a1}, {a2}, {a3}; {b1}, {b2}; 1) has no upper parameter "
            "a3 and lower parameter b2 with b2 > a3 > 0")
    _, e, a, b, c, p, q = max(choices)
    # term k of the 2F1, integrated against the weight, is term k of the 3F2
    head = _series_terms((p, q), (c,), _HEAD_TERMS)[::-1]

    def head_poly(t: float) -> float:
        total = 0.0
        for coeff in head:
            total = total * t + coeff
        return total

    beta = b - a - 1.0
    if e < 0:
        # Euler's transformation 2F1(p,q;c;t) = (1-t)^e 2F1(c-p,c-q;c;t)
        # moves the singular factor into the weight (beta + e > -1 since
        # the series converges), leaving an integrand finite at t = 1.
        beta += e

        def tail(t: float) -> float:
            return (special.hyp2f1(c - p, c - q, c, t)
                    - (1.0 - t) ** -e * head_poly(t))
    else:
        def tail(t: float) -> float:
            return special.hyp2f1(p, q, c, t) - head_poly(t)

    value, err, *_ = integrate.quad(
        tail, 0.0, 1.0, weight="alg", wvar=(a - 1.0, beta),
        epsabs=1e-15, epsrel=1e-13, limit=200, full_output=True)
    scale = math.gamma(b) / (math.gamma(a) * math.gamma(b - a))
    total = math.fsum(_series_terms(uppers, lowers, _HEAD_TERMS)) + scale * value
    if not (math.isfinite(total) and scale * err <= 1e-10 * max(1.0, abs(total))):
        raise ConvergenceError(
            f"Euler integral not converged: error estimate {scale * err:.3g}")
    return total


@functools.lru_cache(maxsize=1)
def catalan_const() -> float:
    """Catalan's constant G = sum (-1)^k / (2k+1)^2.

    Accelerated with the Cohen-Rodriguez Villegas-Zagier scheme for
    alternating series; 33 terms give far below double-precision error.
    """
    n = 33
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c / (2 * k + 1) ** 2
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return s / d
