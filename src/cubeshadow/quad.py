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
  follow the outer node (`_nested`);
- near a finite end other than 0, where the nodes round to the end and an
  integrable singularity of f makes the sum infinite, pieces that shrink
  geometrically toward each end, each by tanh-sinh, whose partial sums are
  extrapolated to the end by Wynn's epsilon algorithm (`_end_pieces`).
The substitution turns the endpoint singularities of these integrands --
the logarithms of the elliptic integrals, their polynomial decay at
infinity and the algebraic weight of the Euler integral of
`specfun.hyp3f2_unit` -- into smooth, rapidly decaying ones, so each level
roughly doubles the correct digits.  Each level evaluates the integrand,
vectorized, on the nodes new to it (on a region, two blocks of the grid,
each by one call), and the levels stop when two successive ones agree to
the tolerance asked (`_converge`).  The node tables are built on first
use.

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
  one phi-integral, both by `integrate_1d` (see `_area_terms`);
- the smooth terms stay Cartesian (`_double`).

The suites return integrals only and hold no target: each value is checked
against its row's target in `moments.CONSTANT_TARGETS`, which takes the
closed forms of `moments.CORANK1_TARGETS` that `moments` and `verify`
print.  Every zeta route here is checked against `moments.ZETA`, which
uses none of them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import density4 as _dens4
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
        raise ValueError(f"weight exponents must exceed -1, got {weight}")
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


# The pieces into which `integrate_1d` cuts each half of an interval with a
# singular end that the nodes round to: at the distances [d/2, d] from the
# end, d = 2^-(k+1) of the interval for k < _PIECES, so that the nearest
# node lies 2^-21 of the interval from the end, and its rounding moves it by
# about 2e-10 of that distance when the end is as large as the interval.
_PIECES = 20


def _end_pieces(a: float, b: float, weight: tuple[float, float]):
    """The nodes that each level adds on the pieces of the two halves of
    [a, b], as one block ((x,), w) of shape (2, _PIECES, n): row 0 holds the
    pieces toward a, row 1 those toward b.  Each piece, clear of the ends,
    takes the tanh-sinh nodes of a bounded integrand (|t| <= _BOX_T), and
    the weight (x - a)^alpha (b - x)^beta is formed from each node's
    distance s to its end and b - a - s."""
    alpha, beta = weight
    length = b - a
    d = length * 0.5 ** np.arange(1, _PIECES + 1)[:, None]
    for level in range(_MAX_LEVEL + 1):
        p, _, w = _tanh_sinh(_BOX_T, level)
        s = 0.5 * d * (1.0 + p)
        ws, far = 0.5 * d * w, length - s
        yield [((np.stack((a + s, b - s)),),
                np.stack((ws * s ** alpha * far ** beta,
                          ws * far ** alpha * s ** beta)))]


def _wynn(partial: np.ndarray) -> tuple[float, float]:
    """The limit of the partial sums by Wynn's epsilon algorithm (Wynn,
    MTAC 10, 1956; the extrapolation of QUADPACK's QAGS), with its spread:
    of the even columns of the table, the last entry of the one whose last
    three entries lie closest together, and their two distances summed; the
    last sum and the last term when no column does better."""
    value, spread = partial[-1], abs(partial[-1] - partial[-2])
    before, column = np.zeros(len(partial) + 1), partial
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, len(partial) - 2):
            before, column = (column,
                              before[1:len(column)] + 1.0 / np.diff(column))
            if k % 2 == 0:
                near = np.sum(np.abs(np.diff(column[-3:])))
                if near < spread:
                    value, spread = column[-1], near
    return float(value), float(spread)


def _extrapolated(sums: np.ndarray) -> tuple[float, float]:
    """The integral whose pieces toward each end sum to the rows of sums,
    each row's partial sums extrapolated to its end (`_wynn`), and the sum
    of the two spreads."""
    limits = [_wynn(np.cumsum(row)) for row in sums]
    return sum(v for v, _ in limits), sum(e for _, e in limits)


def _converge(f, levels, dims: int, tol: float, epsabs: float, what: str,
              extrapolate=None) -> QuadResult:
    """Sum the rule level by level, I_k = h^dims times the sum of f w over
    every node so far, until |I_k - I_(k-1)| is within the accuracy asked,
    max(epsabs, tol |I_k|); that difference is the error estimate, and the
    result is certified (see `_certified`) after the last level.

    With `extrapolate`, the sums run over the last axis of each block only,
    and extrapolate maps them to I_k and a spread that the error estimate
    takes if it is larger.  A sum that is not finite (f infinite or
    undefined at a node that rounded to an end) ends the levels at once.
    """
    total, evaluations, value, err = 0.0, 0, math.nan, math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        for level, blocks in enumerate(levels):
            for args, w in blocks:
                terms = f(*args) * w
                total = total + (np.sum(terms) if extrapolate is None
                                 else np.sum(terms, axis=-1))
                evaluations += w.size
            previous, value = value, total * 0.5 ** (dims * level)
            spread = 0.0
            if extrapolate is not None:
                value, spread = extrapolate(value)
            value = float(value)
            err = max(abs(value - previous), spread)
            if (not math.isfinite(value)
                    or err <= max(epsabs, tol * abs(value))):
                break
    return _certified(QuadResult(value=value, error_estimate=err,
                                 evaluations=evaluations), tol, epsabs, what)


def integrate_1d(f, a: float, b: float, tol: float = 1e-10,
                 weight: tuple[float, float] | None = None,
                 epsabs: float | None = None) -> QuadResult:
    """Integral of f over (a, b); b may be +inf.  f takes and returns
    arrays.

    With weight = (alpha, beta), alpha, beta > -1 and b finite, integrates
    f(x) (x - a)^alpha (b - x)^beta with the weight formed from each node's
    exact distances to the ends.  tol is the relative accuracy asked and
    epsabs the absolute one (tol if None).  Returns the estimate with its
    error estimate and evaluation count; raises ConvergenceError (carrying
    the best estimate) when the requested accuracy is not certified (see
    `_certified`).

    The nodes nearest a finite end other than 0 round to it, so an
    integrable singularity of f there makes the sum infinite: then each
    half of (a, b) is cut into pieces that shrink geometrically toward its
    end (`_end_pieces`), and their sums are extrapolated to the end
    (`_wynn`), the evaluations of both attempts counted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if weight is not None and b == math.inf:
        raise ValueError("an algebraic weight needs a finite interval")
    weight = (0.0, 0.0) if weight is None else weight
    epsabs = tol if epsabs is None else epsabs
    try:
        return _converge(f, _line(a, b, weight), 1, tol, epsabs, "quadrature")
    except ConvergenceError as error:
        first = error.best
        if b == math.inf or math.isfinite(first.value):
            raise
    try:
        r = _converge(f, _end_pieces(a, b, weight), 1, tol, epsabs,
                      "quadrature", extrapolate=_extrapolated)
    except ConvergenceError as error:
        error.best = _counted(error.best, first.evaluations)
        raise
    return _counted(r, first.evaluations)


def _counted(r: QuadResult, evaluations: int) -> QuadResult:
    return dataclasses.replace(r, evaluations=r.evaluations + evaluations)


def _nested(f, ranges, tol: float) -> QuadResult:
    """Integral of f(x, y), which takes and returns arrays, over y in
    ranges[1] = (lo, hi) and x in ranges[0], either (lo, hi) or a function
    of the array of outer nodes y that returns the arrays of their limits.
    Raises ConvergenceError when tol is not certified (see `_certified`).
    """
    return _converge(f, _region(*ranges), 2, tol, tol, "nested quadrature")


def _certified(result: QuadResult, tol: float, epsabs: float,
               what: str) -> QuadResult:
    """Return result, or raise ConvergenceError, whose `best` is result,
    when its error estimate exceeds ten times the accuracy asked,
    max(epsabs, tol*|value|)."""
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


def pi_over_128_suite() -> PiIdentitySuite:
    scale = 1.0 / (12.0 * PI)

    def scaled(f) -> QuadResult:
        return _scaled(integrate_1d(f, 0.0, math.inf, tol=1e-12), scale)

    first = scaled(lambda t: elliptic_imag(t)[1] * t / (1.0 + t * t) ** 2)
    second = scaled(lambda t: elliptic_imag(t)[1] * t / (1.0 + t * t) ** 3)
    third = scaled(lambda t: elliptic_imag(t)[0] * t / (1.0 + t * t) ** 2)
    return PiIdentitySuite(first=first, second=second, third=third)


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


def zeta5_reduction_check() -> float:
    """zeta_5 as 640 times the reduced three-integral combination.

    Evaluates the E^2, EK and K^2 integrals separately (coefficients
    4/(15 pi^2), 8/(15 pi^2), 4/(15 pi^2)); equals zeta_4 analytically.
    """
    def poly(t):
        return (1.0 + 2.0 * t * t) ** 2 - 1.0

    def f_e2(t):
        _, e = elliptic_imag(t)
        return (-2.0 + 4.0 * poly(t)) * e * e / (1.0 + 2.0 * t * t) ** 5 * t

    def f_ek(t):
        k, e = elliptic_imag(t)
        return ((1.0 - 2.0 * poly(t) + (1.0 + 2.0 * t * t)) * e * k
                / (1.0 + 2.0 * t * t) ** 5 * t)

    def f_k2(t):
        k, _ = elliptic_imag(t)
        return ((-1.0 + poly(t) - (1.0 + 2.0 * t * t)) * k * k
                / (1.0 + 2.0 * t * t) ** 5 * t)

    def integral(f) -> float:
        return integrate_1d(f, 0.0, math.inf, tol=1e-13).value

    total = (4.0 / (15.0 * PI**2) * integral(f_e2)
             + 8.0 / (15.0 * PI**2) * integral(f_ek)
             + 4.0 / (15.0 * PI**2) * integral(f_k2))
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


def _cone(ph, ps):
    """sqrt(cos^2(phi) sin^2(psi) + cos^2(psi)), the first area term.

    It vanishes only at the corner (pi/2, pi/2), where it is sqrt(x^2 + y^2)
    to first order in x = pi/2 - phi and y = pi/2 - psi.
    """
    return np.sqrt(np.cos(ph) ** 2 * np.sin(ps) ** 2 + np.cos(ps) ** 2)


# The integrands over the angle box, f(phi, psi) on arrays, each the
# density _dens4(phi, psi) times its functional.  The theta-free entries:
# their triple integrals are HALF_PI times these.

def _vl(ph, ps):
    return 64.0 * np.cos(ps) * _dens4(ph, ps)


def _vl2(ph, ps):
    cps = np.cos(ps)
    return ((64.0 * cps ** 2 + 192.0 * np.cos(ph) * np.sin(ps) * cps)
            * _dens4(ph, ps))


def _mw(ph, ps):
    return 32.0 * np.sqrt(1.0 - np.cos(ps) ** 2) * _dens4(ph, ps)


def _mw2(ph, ps):
    sps2 = 1.0 - np.cos(ps) ** 2
    return (16.0 * sps2
            + 48.0 * np.sqrt(1.0 - np.cos(ph) ** 2 * np.sin(ps) ** 2)
            * np.sqrt(sps2)) * _dens4(ph, ps)


def _vl_mw(ph, ps):
    return ((32.0 * np.cos(ps) + 96.0 * np.cos(ph) * np.sin(ps))
            * np.sqrt(1.0 - np.cos(ps) ** 2) * _dens4(ph, ps))


# The theta-integrated integrands of the three entries that hold the cone
# and depend on theta, split into terms by kind: a cone term, a theta-term
# sqrt(a+b) E(k) and e_ar2's smooth term.  Each entry's triple integral over
# (theta, phi, psi) is the sum of the double integrals of its terms over
# (phi, psi).  The cone terms, and e_ar2's theta-term, go to `_corner_polar`.

def _ar2_smooth(ph, ps):
    return (HALF_PI * 384.0 * (np.cos(ph) ** 2 * np.sin(ps) ** 2
                               + np.cos(ps) ** 2) * _dens4(ph, ps))


def _ar2_cone(ph, ps):
    return (HALF_PI * 384.0 * np.sin(ph) * np.sin(ps) * _cone(ph, ps)
            * _dens4(ph, ps))


def _ar2_theta(ph, ps):
    """With a = sin^2(phi) sin^2(psi) and b = cos^2(psi), sqrt(a+b) is a
    cone that vanishes only at the corner (0, pi/2)."""
    sph, sps = np.sin(ph), np.sin(ps)
    return (1536.0 * sph * sps
            * _theta_sqrt_integral(sph ** 2 * sps ** 2, np.cos(ps) ** 2)
            * _dens4(ph, ps))


def _area_terms(weight):
    """The cone term, and the psi-factor of the theta-term, of an entry
    whose integrand is weight(psi) times the two area terms.

    The theta-term is weight(psi) times the theta-integral of
    sqrt(a sin^2(theta) + b), a = sin^2(phi) sin^2(psi) and
    b = cos^2(phi) sin^2(psi), times the density.  As a + b = sin^2(psi),
    that theta-integral is sin(psi) E(sin(phi)), so the term is
    weight(psi) sin^3(psi) / TWO_PI2 times `_area_phi`.
    """
    def cone(ph, ps):
        return weight(ps) * HALF_PI * _cone(ph, ps) * _dens4(ph, ps)

    def psi_factor(ps):
        return weight(ps) * np.sin(ps) ** 3 / TWO_PI2
    return cone, psi_factor


def _area_phi(ph):
    """sin(phi) E(sin(phi)), the phi-factor of the theta-terms of e_vl_ar
    and e_ar_mw (see `_area_terms`)."""
    sph = np.sin(ph)
    return sph * _theta_sqrt_integral(sph ** 2, np.cos(ph) ** 2)


_vl_ar_cone, _vl_ar_psi = _area_terms(lambda ps: 384.0 * np.cos(ps))
_ar_mw_cone, _ar_mw_psi = _area_terms(
    lambda ps: 192.0 * np.sqrt(1.0 - np.cos(ps) ** 2))


def _mw2_3cube(ph):
    """2D analog (shadow of the 3-cube onto a plane): E(mw^2), a double
    integral over (theta, phi) whose theta-integral is
    int sqrt(1 - cos^2(th) sin^2(ph)) = E(sin(ph))."""
    cph, sph = np.cos(ph), np.sin(ph)
    pref = (2.0 / PI) ** 2 * sph / (4.0 * PI)
    return (24.0 * (1.0 - cph ** 2) * HALF_PI
            + 48.0 * _theta_sqrt_integral(sph ** 2, cph ** 2)
            * np.sqrt(1.0 - cph ** 2)) * pref


def _ij(p2, p3):
    """4D analog (shadow of the 5-cube): E(mw^2) = 32 (4/(3 pi))^2 (5I + 20J),
    a quadruple integral over (theta, p1, p2, p3) whose integrand is free of
    theta and depends on p1 only through the density factor sin(p1), which
    integrates to 1."""
    sp3_2 = 1.0 - np.cos(p3) ** 2
    j_part = np.sqrt(1.0 - np.cos(p2) ** 2 * np.sin(p3) ** 2) * np.sqrt(sp3_2)
    return ((5.0 * sp3_2 + 20.0 * j_part)
            * 3.0 / (8.0 * PI**2) * np.sin(p2) ** 2 * np.sin(p3) ** 3)


# The accuracy asked of the one-dimensional factors and of the double
# integrals.
_BOX_TOLS = (1e-12, 1e-11)


def _double(f) -> QuadResult:
    """Integral over [0, pi/2]^2 of f(phi, psi)."""
    return _nested(f, [(0.0, HALF_PI)] * 2, _BOX_TOLS[1])


# The corners at which the suite's cones vanish: that of `_cone`, and that
# of sqrt(a+b) in `_ar2_theta`.
_CONE_CORNER = (HALF_PI, HALF_PI)
_AR2_THETA_CORNER = (0.0, HALF_PI)


def _polar(f, corner):
    """f(phi, psi) times the Jacobian r in polar coordinates (r, alpha)
    about a corner (phi0, psi0) of the box, as a function of (r, alpha):
    phi = phi0 +- r cos(alpha) and psi = psi0 +- r sin(alpha), each sign
    pointing into the box (- from pi/2, + from 0)."""
    (ph0, dph), (ps0, dps) = ((c, -1.0 if c else 1.0) for c in corner)

    def integrand(r, al):
        return r * f(ph0 + r * (dph * np.cos(al)),
                     ps0 + r * (dps * np.sin(al)))
    return integrand


def _edge(al):
    """The range of r at the angles alpha: out to the far edge of the box."""
    return 0.0, HALF_PI / np.maximum(np.cos(al), np.sin(al))


def _corner_polar(f, corner) -> QuadResult:
    """Integral of f(phi, psi) over [0, pi/2]^2 in polar coordinates about
    one of its corners (see `_polar`).

    r is innermost, from 0 to the far edge (`_edge`), and alpha is split at
    pi/4 into the two triangles whose far edges are the two sides of the box
    away from the corner, so that the edge is smooth in alpha on each piece.
    """
    quarter = 0.25 * PI
    return _total(*(_nested(_polar(f, corner), [_edge, span], _BOX_TOLS[1])
                    for span in ((0.0, quarter), (quarter, HALF_PI))))


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
    The closed forms these integrals equal live in `moments` only.
    """
    def theta_free(f) -> QuadResult:
        """Triple integral of an integrand f(phi, psi) free of theta."""
        return _scaled(_double(f), HALF_PI)

    def factor(f) -> QuadResult:
        return integrate_1d(f, 0.0, HALF_PI, tol=_BOX_TOLS[0])

    area_phi = factor(_area_phi)

    def area(cone, psi_factor) -> QuadResult:
        """e_vl_ar or e_ar_mw: the cone term plus the theta-term, a
        psi-integral times the phi-integral of `_area_phi`."""
        return _total(_corner_polar(cone, _CONE_CORNER),
                      _product(factor(psi_factor), area_phi))

    return {
        "e_vl": theta_free(_vl),
        "e_vl2": theta_free(_vl2),
        "e_ar": _scaled(_corner_polar(lambda ph, ps: 192.0 * _cone(ph, ps)
                                      * _dens4(ph, ps), _CONE_CORNER),
                        HALF_PI),
        "e_ar2": _total(_double(_ar2_smooth),
                        _corner_polar(_ar2_cone, _CONE_CORNER),
                        _corner_polar(_ar2_theta, _AR2_THETA_CORNER)),
        "e_mw": theta_free(_mw),
        "e_mw2": theta_free(_mw2),
        "e_vl_ar": area(_vl_ar_cone, _vl_ar_psi),
        "e_vl_mw": theta_free(_vl_mw),
        "e_ar_mw": area(_ar_mw_cone, _ar_mw_psi),
        "e_mw2_3cube": integrate_1d(_mw2_3cube, 0.0, HALF_PI, tol=1e-12),
        "e_mw2_5cube": _scaled(_double(_ij),
                               HALF_PI * 32.0 * (4.0 / (3.0 * PI)) ** 2),
    }
