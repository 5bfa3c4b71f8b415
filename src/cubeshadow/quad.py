"""Double-exponential quadrature and the analytic-constant reproduction suite.

Reproduces every displayed integral identity: the pi/128 identity, the
zeta_3 and zeta_4 quadratures, the zeta_5 reduction to zeta_4, and the
defining triple/quadruple moment integrals over the spherical angle
boxes.  All integrals are evaluated in double precision with error
estimates by one vectorized double-exponential rule (Takahasi and Mori,
Publ. RIMS 9, 1974; Bailey, Jeyabalan and Li, Experimental Math. 14,
2005): the trapezoid rule of step h = 2^-k after a substitution x(t) whose
derivative decays double-exponentially in t,
- tanh-sinh on a finite [a, b], x = a + (b - a)(1 + tanh(pi/2 sinh t))/2,
  with the distances of each node to both ends computed from their own
  exponentials (1 - tanh u = 2/(e^(2u) + 1)), so that an algebraic factor
  (x - a)^alpha (b - x)^beta is exact however close the node is to an end;
- exp-sinh on (a, inf), x = a + exp(pi/2 sinh t);
- their tensor product on a two-dimensional region, whose inner limits
  follow the outer node (`_nested`).
Near a finite end other than 0 the nodes round to the end, so a
singularity of f there makes the sum infinite and raises ConvergenceError;
an algebraic one is integrated exactly as the weight.
The substitution turns the endpoint singularities of these integrands --
the logarithms of the elliptic integrals, their polynomial decay at
infinity and the algebraic weight of the Euler integral of
`specfun.hyp3f2_unit` -- into smooth, rapidly decaying ones, so each level
roughly doubles the correct digits.  Each level evaluates the integrand,
vectorized, on the nodes new to it (on a region, two blocks of the grid,
each by one call), and the levels stop when two successive ones agree to
the tolerance asked (`_converge`).  An integrand may have k components,
integrals that share their nodes: each level evaluates each grid once for
all of them, in one dimension (`_line_pass`) as in two (`_nested`), and
each component stops at its own level with the result it would have
alone.  The node tables are built on first use.

The moment integrals are reduced before they are integrated: the angle
theta enters only through sqrt(a sin^2 theta + b), whose integral over
[0, pi/2] is the complete elliptic integral sqrt(a+b) E(sqrt(a/(a+b)))
(E from the compiled `scipy.special.ellipe`, at the parameter a/(a+b)),
and an integrand free of theta (or of the 5-cube's phi_1) integrates to a
constant factor.  Each triple integral becomes a double one over
(phi, psi), and the quadruple one a double one.

The four double integrals that hold a cone are split into terms by the
kind of singularity each has, and each term is integrated in the
coordinates in which it is smooth:
- the cone sqrt(cos^2(phi) sin^2(psi) + cos^2(psi)) of e_ar, e_ar2, e_vl_ar
  and e_ar_mw vanishes only at the corner (pi/2, pi/2), like the distance
  to it, so it has a kink along the inner lines near that corner.  In
  polar coordinates (r, alpha) about the corner (`_corner_polar`) the cone
  is r times a smooth positive function;
- e_ar2's theta-term sqrt(a+b) E(k), a = sin^2(phi) sin^2(psi) and
  b = cos^2(psi), holds a cone too: sqrt(a+b) vanishes only at the corner
  (0, pi/2), and it goes to `_corner_polar` about that corner.  There its
  logarithmic edge, where k -> 1, lies at alpha = 0, an end of the range
  of alpha, where the rule's nodes crowd;
- the theta-terms of e_vl_ar and e_ar_mw factor exactly: with
  a = sin^2(phi) sin^2(psi) and b = cos^2(phi) sin^2(psi),
  sqrt(a+b) E(k) = sin(psi) E(sin(phi)), so each is a psi-integral times
  one phi-integral (see `_line_terms`);
- the smooth terms stay Cartesian (`_double`).
The terms integrated on one grid are the components of one pass: the seven
Cartesian integrands on the box (`_box_terms`), the four cone terms about
(pi/2, pi/2) (`_cone_terms`) on each half of their polar grid, and e_ar2's
theta-term on each half of its own, so the 17 double integrals take five
passes; the phi-factor, the two psi-factors and the 3-cube's E(mw^2) share
one pass on [0, pi/2] (`_line_terms`).  So do the three integrals of the
pi/128 identity, and the three of the zeta_5 reduction, on (0, inf).

The suites return integrals only and hold no target: each value is checked
against its row's target in `moments.CONSTANT_TARGETS`, which takes the
closed forms of `moments.CORANK1_TARGETS` that `moments` and `verify`
print.  Every zeta route here is checked against `moments.ZETA`, which
uses none of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import DomainError, density4 as _dens4
from .specfun import ConvergenceError, elliptic_imag, hyp3f2_unit

HALF_PI = 0.5 * math.pi
PI = math.pi


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# the double-exponential rule

# The ranges of t summed.  Tanh-sinh in one dimension stops at |t| = 4,
# e^-85.8 = 5e-38 of the interval from its ends, so that a factor x^e with
# e >= -1/2 at an end (an algebraic weight, or the log^2 and 1/sqrt
# integrands the rule is tested on) leaves out a tail of at most about
# (5e-38)^(1 + e)/(1 + e) = 5e-19 (`_weighted_t` goes further for a weight
# nearer -1); on each axis of a region, whose integrands here are bounded,
# at |t| = 3.2, where the weight is below 1e-15 of the side.
# Exp-sinh runs from x = e^-70.7 = 2e-31 to e^42.9 = 4e18, for integrands
# bounded at a and falling like x^-2 or faster.
_LINE_T = 4.0
_BOX_T = 3.2
_HALF_LINE_T = (-4.5, 4.0)
# Levels 0 to _MAX_LEVEL, h = 1 to 2^-_MAX_LEVEL: 513 nodes on a line,
# 409 x 409 on a region.
_MAX_LEVEL = 6


def _new_steps(lo: float, hi: float, level: int) -> np.ndarray:
    """The points t = j h of [lo, hi], h = 2^-level, that level adds:
    every j at level 0, odd j after, so the levels nest."""
    scale = 2.0 ** level
    j = np.arange(math.ceil(lo * scale), math.floor(hi * scale) + 1)
    return (j if level == 0 else j[j % 2 == 1]) / scale


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _weighted_t(weight: tuple[float, float]) -> float:
    """The |t| to which tanh-sinh runs under the weight (alpha, beta): at
    least _LINE_T, and in steps of 1/2 far enough that the tail left out at
    an end whose exponent e = min(alpha, beta) is nearer -1, about
    p^(1+e)/(1+e) at the last node's distance p = e^(-2u) to that end, is
    below 2^-56."""
    lowest = 1.0 + min(weight)
    if not lowest > 0.0:
        raise DomainError(f"weight exponents must exceed -1, got {weight}")
    u = (56.0 * math.log(2.0) - math.log(lowest)) / (2.0 * lowest)
    return max(_LINE_T, math.ceil(2.0 * math.asinh(u / HALF_PI)) / 2.0)


@functools.lru_cache(maxsize=64)
def _tanh_sinh(t_max: float, level: int, alpha: float = 0.0,
               beta: float = 0.0):
    """The tanh-sinh nodes that a level adds, |t| <= t_max: each node's
    distances p and q to the two ends and its weight w times the algebraic
    weight p^alpha q^beta, all per unit length of the interval and w
    without the step h.

    With u = (pi/2) sinh(t), p = (1 + tanh u)/2 = 1/(1 + e^(-2u)) and
    q = (1 - tanh u)/2 = 1/(1 + e^(2u)), each from its own exponential, so
    neither is formed as 1 minus the other; dx/dt = pi cosh(t) p q, and
    w = pi cosh(t) p^(1+alpha) q^(1+beta) is formed from
    log p = -log(1 + e^(-2u)) and log q = -log(1 + e^(2u)), so that no
    power of a distance below the smallest double under- or overflows.
    """
    t = _new_steps(-t_max, t_max, level)
    u = HALF_PI * np.sinh(t)
    log_p, log_q = -np.logaddexp(0.0, -2.0 * u), -np.logaddexp(0.0, 2.0 * u)
    w = PI * np.cosh(t) * np.exp((1.0 + alpha) * log_p
                                 + (1.0 + beta) * log_q)
    return _frozen(np.exp(log_p), np.exp(log_q), w)


@functools.cache
def _exp_sinh(level: int):
    """The exp-sinh nodes that a level adds: each node's distance
    e = exp((pi/2) sinh t) from the finite end and its weight de/dt."""
    t = _new_steps(*_HALF_LINE_T, level)
    e = np.exp(HALF_PI * np.sinh(t))
    return _frozen(e, HALF_PI * np.cosh(t) * e)


def _place(nodes, a, b):
    """A tanh-sinh table on [a, b] (arrays broadcast): the nodes, each
    measured from its nearer end, and their weights."""
    p, q, w = nodes
    length = b - a
    return np.where(p <= q, a + length * p, b - length * q), length * w


def _line(a: float, b: float, weight: tuple[float, float]):
    """The nodes that each level adds on (a, b), b finite or +inf, as one
    block ((x,), w); on a finite (a, b), w carries the algebraic weight
    (x - a)^alpha (b - x)^beta, weight = (alpha, beta), formed from the
    exact distances (`_tanh_sinh`)."""
    t_max = _weighted_t(weight)
    for level in range(_MAX_LEVEL + 1):
        if b == math.inf:
            e, w = _exp_sinh(level)
            yield [((a + e,), w)]
            continue
        x, w = _place(_tanh_sinh(t_max, level, *weight), a, b)
        yield [((x,), (b - a) ** sum(weight) * w)]


def _grid(y, wy, nodes, inner):
    """The block ((x, y), w) of the inner table `nodes` placed on the
    inner range at each outer node y: y is a column, and x a row when the
    inner range is fixed, so that what depends on one variable alone is
    computed once per node of that variable."""
    y = y[:, None]
    lo, hi = inner(y) if callable(inner) else inner
    x, wx = _place(nodes, lo, hi)
    return (np.atleast_2d(x), y), wy[:, None] * wx


def _region(inner, outer):
    """The nodes that each level adds to the tensor grid, as two blocks:
    the new outer nodes against every inner node, and the old outer nodes
    against the new inner ones."""
    empty = np.empty(0)
    ys, wys, old = empty, empty, (empty,) * 3
    for level in range(_MAX_LEVEL + 1):
        new = _tanh_sinh(_BOX_T, level)
        y, wy = _place(new, *outer)
        every = tuple(map(np.concatenate, zip(old, new)))
        yield [_grid(y, wy, every, inner), _grid(ys, wys, new, inner)]
        ys, wys = np.concatenate((ys, y)), np.concatenate((wys, wy))
        old = every


def _converge(f, levels, dims: int, tol: float, epsabs: float,
              what: str) -> tuple[QuadResult, ...]:
    """The integrals of the k components of f, which returns a tuple of k
    arrays, on one set of nodes: each block of each level is evaluated
    once, for every component.

    Each component sums the rule level by level, I_k = h^dims times the sum
    of f_i w over every node so far, until |I_k - I_(k-1)| is within the
    accuracy asked, max(epsabs, tol |I_k|); that difference is its error
    estimate, and its result is certified (see `_certified`) after the last
    level.  A component that stops keeps its value, error estimate and
    evaluation count while the others go on, so each result is that of the
    integral of f_i alone (k = 1).  A sum that is not finite (f infinite or
    undefined at a node, such as one that rounded to a singular end) ends
    its component's levels at once.
    """
    total = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for level, blocks in enumerate(levels):
            for args, w in blocks:
                parts = f(*args)
                if total is None:
                    k = len(parts)
                    total, evaluations = [0.0] * k, [0] * k
                    value, err = [math.nan] * k, [math.nan] * k
                    going = list(range(k))
                for i in going:
                    total[i] = total[i] + np.sum(parts[i] * w)
                    evaluations[i] += w.size
            for i in list(going):
                previous = value[i]
                value[i] = float(total[i] * 0.5 ** (dims * level))
                err[i] = abs(value[i] - previous)
                if (not math.isfinite(value[i])
                        or err[i] <= max(epsabs, tol * abs(value[i]))):
                    going.remove(i)
            if not going:
                break
    return tuple(_certified(QuadResult(value=v, error_estimate=e,
                                       evaluations=n), tol, epsabs, what)
                 for v, e, n in zip(value, err, evaluations))


def integrate_1d(f, a: float, b: float, tol: float = 1e-10,
                 weight: tuple[float, float] | None = None,
                 epsabs: float | None = None) -> QuadResult:
    """Integral of f over (a, b), a finite and b finite or +inf.  f takes
    and returns arrays.

    With weight = (alpha, beta), alpha, beta > -1 and a < b finite, integrates
    f(x) (x - a)^alpha (b - x)^beta with the weight formed from each node's
    exact distances to the ends.  tol > 0 is the relative accuracy asked and
    epsabs the absolute one (tol if None).  A bound, a tol or a weight
    outside these ranges raises `DomainError`.  Returns the estimate with
    its error estimate and evaluation count; raises ConvergenceError
    (carrying the best estimate) when the requested accuracy is not
    certified (see `_certified`).

    The nodes nearest a finite end other than 0 round to it, so a
    singularity of f there makes the sum infinite, and ConvergenceError is
    raised at the first level: an algebraic singularity belongs in the
    weight, which is exact at any distance from the end.
    """
    if not tol > 0:  # NaN included
        raise DomainError("tol must be positive")
    if not (math.isfinite(a) and -math.inf < b <= math.inf):
        raise DomainError(f"need a finite a and a finite or +inf b, "
                          f"got ({a}, {b})")
    if weight is not None and b == math.inf:
        raise DomainError("an algebraic weight needs a finite interval")
    if weight is not None and not a < b:  # (b - a)^(alpha + beta) is complex
        raise DomainError(f"an algebraic weight needs a < b, got ({a}, {b})")
    return _line_pass(lambda x: (f(x),), a, b, tol,
                      (0.0, 0.0) if weight is None else weight, epsabs)[0]


def _line_pass(f, a: float, b: float, tol: float,
               weight: tuple[float, float] = (0.0, 0.0),
               epsabs: float | None = None) -> tuple[QuadResult, ...]:
    """The integrals over (a, b) of the components of f(x), which takes an
    array and returns a tuple of arrays, each asked tol and epsabs (tol if
    None) as by `integrate_1d`: one pass over the nodes serves every
    component (`_converge`), and each component's result is that of its
    own `integrate_1d` call.  Raises ConvergenceError when tol is not
    certified for a component (see `_certified`).
    """
    return _converge(f, _line(a, b, weight), 1, tol,
                     tol if epsabs is None else epsabs, "quadrature")


def _nested(f, ranges, tol: float) -> tuple[QuadResult, ...]:
    """The integrals of the components of f(x, y), which takes arrays and
    returns a tuple of arrays, over y in ranges[1] = (lo, hi) and x in
    ranges[0], either (lo, hi) or a function of the array of outer nodes y
    that returns the arrays of their limits; one pass over the grid serves
    every component (`_converge`).  Raises ConvergenceError when tol is not
    certified for a component (see `_certified`).
    """
    return _converge(f, _region(*ranges), 2, tol, tol, "nested quadrature")


def _certified(result: QuadResult, tol: float, epsabs: float,
               what: str) -> QuadResult:
    """Return result, or raise ConvergenceError, whose `best` is result,
    when its value is not finite (f infinite or undefined at a node) or its
    error estimate exceeds ten times the accuracy asked,
    max(epsabs, tol*|value|)."""
    if not math.isfinite(result.value):
        raise ConvergenceError(f"{what} sum is not finite ({result.value}):"
                               " f is infinite or undefined at a node",
                               best=result)
    requested = max(epsabs, tol * abs(result.value))
    if not result.error_estimate <= 10.0 * requested:
        raise ConvergenceError(f"{what} error estimate "
                               f"{result.error_estimate:.3g} exceeds "
                               f"10 x {requested:.3g}", best=result)
    return result


def _scaled(r: QuadResult, factor: float) -> QuadResult:
    return QuadResult(value=factor * r.value,
                      error_estimate=factor * r.error_estimate,
                      evaluations=r.evaluations)


def _total(*pieces: QuadResult) -> QuadResult:
    """An integral as the sum of its pieces: values, error estimates and
    evaluation counts add."""
    return QuadResult(value=sum(p.value for p in pieces),
                      error_estimate=sum(p.error_estimate for p in pieces),
                      evaluations=sum(p.evaluations for p in pieces))


# ---------------------------------------------------------------------------
# elliptic-integral constants

@dataclass(frozen=True)
class PiIdentitySuite:
    """The three scaled integrals whose combination telescopes to pi/128.

    Each component carries the 1/(12*pi) prefactor, so the targets are
    pi/96, pi/256 and pi/192, and first - 2*second + third = pi/128.
    """

    first: QuadResult
    second: QuadResult
    third: QuadResult

    @property
    def combination(self) -> float:
        return self.first.value - 2.0 * self.second.value + self.third.value


def _pi128_terms(t):
    """The integrands of the three, E(it) t/(1+t^2)^2, E(it) t/(1+t^2)^3
    and K(it) t/(1+t^2)^2, on one evaluation of K(it) and E(it)."""
    k, e = elliptic_imag(t)
    square = 1.0 + t * t
    return e * t / square ** 2, e * t / square ** 3, k * t / square ** 2


def pi_over_128_suite() -> PiIdentitySuite:
    return PiIdentitySuite(*(_scaled(r, 1.0 / (12.0 * PI)) for r in
                             _line_pass(_pi128_terms, 0.0, math.inf, 1e-12)))


def zeta3_quadrature() -> float:
    """zeta_3 from the single-integral form 96/(4*pi) int t^2 E(it)/(1+t^2)^{5/2}."""
    r = integrate_1d(
        lambda t: t * t * elliptic_imag(t)[1] / (1.0 + t * t) ** 2.5,
        0.0, math.inf, tol=1e-12)
    return 96.0 * r.value / (4.0 * PI)


def zeta3_3f2() -> float:
    """zeta_3 as 3 pi 3F2(-1/2, 1/2, 3/2; 1, 2; 1), the hypergeometric form
    of its S^2 average (see `moments.ZETA`)."""
    return 3.0 * PI * hyp3f2_unit(-0.5, 0.5, 1.5, 1.0, 2.0)


def _zeta4_integrand(t):
    k, e = elliptic_imag(t)
    t2 = t * t
    t4 = t2 * t2
    num = ((8.0 * t4 + 8.0 * t2 - 1.0) * e * e
           - 2.0 * (4.0 * t4 + 3.0 * t2 - 1.0) * e * k
           + (2.0 * t4 + t2 - 1.0) * k * k)
    return num / (2.0 * t2 + 1.0) ** 5 * t


def zeta4_quadrature() -> float:
    """zeta_4 = 256 * (4/(3*pi^2)) * the E/K product integral over (0, inf)."""
    r = integrate_1d(_zeta4_integrand, 0.0, math.inf, tol=1e-13)
    return 256.0 * 4.0 / (3.0 * PI**2) * r.value


def _zeta5_terms(t):
    """The E^2, EK and K^2 integrands of the zeta_5 reduction, on one
    evaluation of K(it), E(it), (1 + 2t^2)^2 - 1 and (1 + 2t^2)^5."""
    k, e = elliptic_imag(t)
    q = 1.0 + 2.0 * t * t
    poly, q5 = q ** 2 - 1.0, q ** 5
    return ((-2.0 + 4.0 * poly) * e * e / q5 * t,
            (1.0 - 2.0 * poly + q) * e * k / q5 * t,
            (-1.0 + poly - q) * k * k / q5 * t)


def zeta5_reduction_check() -> float:
    """zeta_5 as 640 times the reduced three-integral combination.

    Evaluates the E^2, EK and K^2 integrals, the components of one pass
    (coefficients 4/(15 pi^2), 8/(15 pi^2), 4/(15 pi^2)); equals zeta_4
    analytically.
    """
    e2, ek, k2 = (r.value for r in
                  _line_pass(_zeta5_terms, 0.0, math.inf, 1e-13))
    total = (4.0 / (15.0 * PI**2) * e2
             + 8.0 / (15.0 * PI**2) * ek
             + 4.0 / (15.0 * PI**2) * k2)
    return 640.0 * total


# ---------------------------------------------------------------------------
# defining moment integrals over the spherical angle boxes

TWO_PI2 = 2.0 * PI**2


def _theta_sqrt_integral(a, b):
    """int_0^{pi/2} sqrt(a sin^2(theta) + b) dtheta for arrays a, b >= 0.

    a sin^2 + b = (a+b)(1 - m cos^2) with m = a/(a+b), so the integral is
    sqrt(a+b) E(k), and `ellipe` takes the parameter m = k^2; at b = 0 that
    is sqrt(a) E(1) = sqrt(a), and at a = b = 0 it is 0.
    """
    total = a + b
    m = a / np.where(total > 0.0, total, 1.0)
    return np.sqrt(total) * special.ellipe(m)


# The integrands over the angle box, f(phi, psi) on arrays, each the
# density _dens4 times its functional, in three groups, one for each grid
# on which they are integrated.  Each group is one function that returns
# its integrands as a tuple, the components of one `_nested` pass, and
# computes what they share once per node: the sines and cosines of phi and
# psi, the density, cos^2(phi) sin^2(psi) and the cone.  Each component
# keeps the operation order of the integrand it stands for, so it is that
# integrand to the bit.
#
# The theta-integrated integrands of the three entries that hold the cone
# and depend on theta are split into terms by kind: a cone term, a
# theta-term sqrt(a+b) E(k) and e_ar2's smooth term.  Each entry's triple
# integral over (theta, phi, psi) is the sum of the double integrals of its
# terms over (phi, psi).  The cone terms, and e_ar2's theta-term, go to
# `_corner_polar`.

def _box_terms(ph, ps):
    """The integrands that stay Cartesian (`_double`): those of the
    theta-free entries e_vl, e_vl2, e_mw, e_mw2 and e_vl_mw, whose triple
    integrals are HALF_PI times these; e_ar2's smooth term; and the 5-cube's
    E(mw^2) = 32 (4/(3 pi))^2 (5I + 20J), a quadruple integral over
    (theta, p1, p2, p3) = (theta, p1, phi, psi) whose integrand is free of
    theta and depends on p1 only through the density factor sin(p1), which
    integrates to 1."""
    sph, cph, sps, cps = np.sin(ph), np.cos(ph), np.sin(ps), np.cos(ps)
    dens = _dens4(sph, sps)
    sps2 = 1.0 - cps ** 2
    root = np.sqrt(sps2)
    c2s2 = cph ** 2 * sps ** 2
    j = np.sqrt(1.0 - c2s2)
    return (64.0 * cps * dens,
            (64.0 * cps ** 2 + 192.0 * cph * sps * cps) * dens,
            32.0 * root * dens,
            (16.0 * sps2 + 48.0 * j * root) * dens,
            (32.0 * cps + 96.0 * cph * sps) * root * dens,
            HALF_PI * 384.0 * (c2s2 + cps ** 2) * dens,
            ((5.0 * sps2 + 20.0 * (j * root))
             * 3.0 / (8.0 * PI**2) * sph ** 2 * sps ** 3))


# The weights of psi, as functions of cos(psi), of e_vl_ar and e_ar_mw:
# each entry's integrand is its weight times the two area terms, the cone
# and the theta-term.

def _vl_ar_weight(cps):
    return 384.0 * cps


def _ar_mw_weight(cps):
    return 192.0 * np.sqrt(1.0 - cps ** 2)


def _cone_terms(ph, ps):
    """The integrands that hold the cone sqrt(cos^2(phi) sin^2(psi) +
    cos^2(psi)), integrated about the corner (pi/2, pi/2): that of e_ar,
    whose triple integral is HALF_PI times it, and the cone terms of e_ar2,
    e_vl_ar and e_ar_mw.

    The cone vanishes only at that corner, where it is sqrt(x^2 + y^2) to
    first order in x = pi/2 - phi and y = pi/2 - psi.
    """
    sph, sps, cps = np.sin(ph), np.sin(ps), np.cos(ps)
    cone = np.sqrt(np.cos(ph) ** 2 * sps ** 2 + cps ** 2)
    dens = _dens4(sph, sps)
    return (192.0 * cone * dens,
            HALF_PI * 384.0 * sph * sps * cone * dens,
            _vl_ar_weight(cps) * HALF_PI * cone * dens,
            _ar_mw_weight(cps) * HALF_PI * cone * dens)


def _ar2_theta(ph, ps):
    """e_ar2's theta-term, one component.  With a = sin^2(phi) sin^2(psi)
    and b = cos^2(psi), sqrt(a+b) is a cone that vanishes only at the
    corner (0, pi/2)."""
    sph, sps = np.sin(ph), np.sin(ps)
    return (1536.0 * sph * sps
            * _theta_sqrt_integral(sph ** 2 * sps ** 2, np.cos(ps) ** 2)
            * _dens4(sph, sps),)


def _line_terms(x):
    """The suite's one-dimensional integrands on [0, pi/2], x = phi or psi,
    the components of one `_line_pass`: the phi-factor sin(phi) E(sin(phi))
    of the theta-terms of e_vl_ar and e_ar_mw, their two psi-factors, and
    the 3-cube's E(mw^2).

    The theta-term of e_vl_ar or e_ar_mw is its weight of psi (a function
    of cos(psi)) times the theta-integral of sqrt(a sin^2(theta) + b),
    a = sin^2(phi) sin^2(psi) and b = cos^2(phi) sin^2(psi), times the
    density.  As a + b = sin^2(psi), that theta-integral is
    sin(psi) E(sin(phi)), so the term is the psi-factor
    weight sin^3(psi) / TWO_PI2 times the phi-factor.

    The 3-cube's E(mw^2), the 2D analog (shadow of the 3-cube onto a
    plane), is a double integral over (theta, phi) whose theta-integral is
    int sqrt(1 - cos^2(theta) sin^2(phi)) = E(sin(phi)).
    """
    s, c = np.sin(x), np.cos(x)
    area = _theta_sqrt_integral(s ** 2, c ** 2)
    return (s * area,
            _vl_ar_weight(c) * s ** 3 / TWO_PI2,
            _ar_mw_weight(c) * s ** 3 / TWO_PI2,
            (24.0 * (1.0 - c ** 2) * HALF_PI
             + 48.0 * area * np.sqrt(1.0 - c ** 2))
            * ((2.0 / PI) ** 2 * s / (4.0 * PI)))


# The accuracy asked of the one-dimensional factors and of the double
# integrals.
_BOX_TOLS = (1e-12, 1e-11)


def _double(f) -> tuple[QuadResult, ...]:
    """The integrals over [0, pi/2]^2 of the components of f(phi, psi)."""
    return _nested(f, [(0.0, HALF_PI)] * 2, _BOX_TOLS[1])


# The corners at which the suite's cones vanish: that of `_cone_terms`, and
# that of sqrt(a+b) in `_ar2_theta`.
_CONE_CORNER = (HALF_PI, HALF_PI)
_AR2_THETA_CORNER = (0.0, HALF_PI)


def _polar(f, corner):
    """f(phi, psi) times the Jacobian r in polar coordinates (r, alpha)
    about a corner (phi0, psi0) of the box, as a function of (r, alpha),
    component by component: phi = phi0 +- r cos(alpha) and
    psi = psi0 +- r sin(alpha), each sign pointing into the box (- from
    pi/2, + from 0)."""
    (ph0, dph), (ps0, dps) = ((c, -1.0 if c else 1.0) for c in corner)

    def integrand(r, al):
        return tuple(r * part for part in f(ph0 + r * (dph * np.cos(al)),
                                            ps0 + r * (dps * np.sin(al))))
    return integrand


def _edge(al):
    """The range of r at the angles alpha: out to the far edge of the box."""
    return 0.0, HALF_PI / np.maximum(np.cos(al), np.sin(al))


def _corner_polar(f, corner) -> tuple[QuadResult, ...]:
    """The integrals of the components of f(phi, psi) over [0, pi/2]^2 in
    polar coordinates about one of its corners (see `_polar`).

    r is innermost, from 0 to the far edge (`_edge`), and alpha is split at
    pi/4 into the two triangles whose far edges are the two sides of the box
    away from the corner, so that the edge is smooth in alpha on each piece.
    """
    quarter = 0.25 * PI
    halves = [_nested(_polar(f, corner), [_edge, span], _BOX_TOLS[1])
              for span in ((0.0, quarter), (quarter, HALF_PI))]
    return tuple(map(_total, *halves))


def _product(a: QuadResult, b: QuadResult) -> QuadResult:
    """An integral that factors into the integrals a and b: values multiply,
    the error estimate is |A| e_B + |B| e_A (to first order) and evaluation
    counts add."""
    return QuadResult(value=a.value * b.value,
                      error_estimate=(abs(a.value) * b.error_estimate
                                      + abs(b.value) * a.error_estimate),
                      evaluations=a.evaluations + b.evaluations)


def moment_integral_suite() -> dict[str, QuadResult]:
    """Evaluate each displayed defining moment integral.

    Entries cover E(vl), E(vl^2), E(ar), E(ar^2), E(mw), E(mw^2) for the
    4-cube, the joint moments, and the 2D/4D-analog E(mw^2) integrals
    (the latter via the quadruple I and J integrals).  The theta (and
    phi_1) integrations are done analytically; see the module docstring.
    Its 17 double integrals take five passes, one per grid: the box, each
    half of the polar grid about (pi/2, pi/2), and each half of that about
    (0, pi/2); its four one-dimensional integrals take one.  The closed
    forms these integrals equal live in `moments` only.
    """
    area_phi, vl_ar_psi, ar_mw_psi, mw2_3cube = _line_pass(
        _line_terms, 0.0, HALF_PI, _BOX_TOLS[0])
    vl, vl2, mw, mw2, vl_mw, ar2_smooth, ij = _double(_box_terms)
    ar, ar2_cone, vl_ar_cone, ar_mw_cone = _corner_polar(_cone_terms,
                                                         _CONE_CORNER)
    (ar2_theta,) = _corner_polar(_ar2_theta, _AR2_THETA_CORNER)
    return {
        "e_vl": _scaled(vl, HALF_PI),
        "e_vl2": _scaled(vl2, HALF_PI),
        "e_ar": _scaled(ar, HALF_PI),
        "e_ar2": _total(ar2_smooth, ar2_cone, ar2_theta),
        "e_mw": _scaled(mw, HALF_PI),
        "e_mw2": _scaled(mw2, HALF_PI),
        "e_vl_ar": _total(vl_ar_cone, _product(vl_ar_psi, area_phi)),
        "e_vl_mw": _scaled(vl_mw, HALF_PI),
        "e_ar_mw": _total(ar_mw_cone, _product(ar_mw_psi, area_phi)),
        "e_mw2_3cube": mw2_3cube,
        "e_mw2_5cube": _scaled(ij, HALF_PI * 32.0 * (4.0 / (3.0 * PI)) ** 2),
    }
