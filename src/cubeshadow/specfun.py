"""Special functions used by the analytic shadow-moment results.

Complete elliptic integrals of the first and second kind of purely
imaginary modulus, elementwise over arrays (from the compiled
`scipy.special.ellipkm1` at a real modulus and `ellipe` at a negative
parameter, each within 5e-16 relative of mpmath), the generalized
hypergeometric 3F2 at unit argument (terminating sum, Gauss summation or
the Euler integral over 2F1 by the double-exponential rule of `quad`, in
double precision), and Catalan's constant.  Modulus convention: K(k), E(k)
take the modulus k, not the parameter m = k^2.

An argument outside a function's domain raises `geometry.DomainError`, the
package's one argument error; a series or a quadrature that does not reach
its accuracy raises `ConvergenceError`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import special

from . import geometry


# Catalan's constant G = sum (-1)^k / (2k + 1)^2, correctly rounded.
CATALAN = 0.915965594177219


class ConvergenceError(ValueError):
    """A series that diverges, or a quadrature that does not converge.

    `best` is the quadrature's estimate when it has one (a
    `quad.QuadResult`), or None.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


def _ellipk(kc):
    """K(k) given only the complementary modulus k' = sqrt(1-k^2),
    elementwise over arrays.

    K is `ellipkm1(k'^2)`, which takes the complementary parameter and so
    avoids the cancellation in 1 - k^2; against mpmath at 40 digits it is
    within 2.5e-16 relative for real k (2,030 moduli up to k = 1 - 1e-15).
    For k' < 1e-8, K = ln 4 - ln k', the asymptotic form `ellipkm1` itself
    uses there, is exact to a double and stays so where k'^2 would be
    subnormal (k' below about 1e-154) or zero.
    """
    kc = np.asarray(kc, dtype=float)
    return np.where(kc < 1e-8, math.log(4.0) - np.log(kc),
                    special.ellipkm1(kc * kc))[()]


def elliptic_imag(t):
    """(K(i*t), E(i*t)) for t >= 0, elementwise over an array t.

    K(it) = K(k)/s with s = sqrt(1+t^2), k = t/s and k' = 1/s, the
    complementary modulus formed without cancellation.  E(it) is
    `ellipe(-t^2)`, at the negative parameter itself: on 200 log-spaced t
    in [1e-3, 1e12] it is within 6.3e-16 of mpmath at 40 digits, against
    2.0e-15 for s E(k), whose k carries its rounding into 1 - k^2.  Where
    t^2 overflows (t above about 1.3e154), k rounds to 1 and E(it) = s E(1)
    = s.  Real arithmetic throughout; total for all finite t >= 0, and any
    other t raises `geometry.DomainError`.
    """
    t = np.asarray(t, dtype=float)
    bad = t[~((t >= 0.0) & (t < math.inf))]
    if bad.size:
        raise geometry.DomainError(f"need finite t >= 0, got {bad[0]}")
    s = np.hypot(1.0, t)
    with np.errstate(over="ignore"):
        t2 = t * t
    big_e = np.where(t2 < math.inf, special.ellipe(-t2), s)
    return (_ellipk(1.0 / s) / s)[()], big_e[()]


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
      by the tanh-sinh rule of `quad.integrate_1d` with the algebraic
      weight.  The 2F1 behaves like (1-t)^e at t = 1, e = b1 - a1 - a2; a
      negative power is moved into the weight by Euler's transformation,
      and of the admissible permutations the one with the largest |e|
      (the smoothest integrand) is used.  At e = 0 the 2F1 grows like
      -log(1-t), infinite at the nodes that round to t = 1, which no
      weight holds, and the quadrature's ConvergenceError, that its sum is
      not finite, is raised.

    Raises `geometry.DomainError` when a lower parameter is a nonpositive
    integer or no route applies (no upper parameter positive and below a
    lower one), ConvergenceError when the series diverges, e = 0, or the
    quadrature does not certify ~1e-10 relative accuracy.
    """
    uppers, lowers = (a1, a2, a3), (b1, b2)
    for b in lowers:
        if _is_nonpositive_int(b):
            raise geometry.DomainError(
                f"lower parameter {b} is a nonpositive integer")
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
        raise geometry.DomainError(
            f"3F2({a1}, {a2}, {a3}; {b1}, {b2}; 1) has no upper parameter "
            "a3 and lower parameter b2 with b2 > a3 > 0")
    _, e, a, b, c, p, q = max(choices)
    # term k of the 2F1, integrated against the weight, is term k of the 3F2
    head = _series_terms((p, q), (c,), _HEAD_TERMS)[::-1]

    def head_poly(t):
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

        def tail(t):
            return (special.hyp2f1(c - p, c - q, c, t)
                    - (1.0 - t) ** -e * head_poly(t))
    else:
        def tail(t):
            return special.hyp2f1(p, q, c, t) - head_poly(t)

    from .quad import integrate_1d  # quad imports this module
    try:
        r = integrate_1d(tail, 0.0, 1.0, tol=1e-13, epsabs=1e-15,
                         weight=(a - 1.0, beta))
    except ConvergenceError as exc:  # certified below, against the sum
        if not math.isfinite(exc.best.value):
            raise  # "quadrature sum is not finite", with its `best`
        r = exc.best
    value, err = r.value, r.error_estimate
    scale = math.gamma(b) / (math.gamma(a) * math.gamma(b - a))
    total = math.fsum(_series_terms(uppers, lowers, _HEAD_TERMS)) + scale * value
    if not (math.isfinite(total) and scale * err <= 1e-10 * max(1.0, abs(total))):
        raise ConvergenceError(
            f"Euler integral not converged: error estimate {scale * err:.3g}")
    return total
