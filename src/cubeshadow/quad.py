"""Adaptive quadrature and the analytic-constant reproduction suite.

Reproduces every displayed integral identity: the pi/128 identity, the
zeta_3 and zeta_4 quadratures, the zeta_5 reduction to zeta_4, and the
defining triple/quadruple moment integrals over the spherical angle
boxes.  All integrals are evaluated in double precision with error
estimates; the elliptic-product integrands decay polynomially (with log^2
factors), well within reach of adaptive Gauss-Kronrod rules.

The moment integrals are reduced before they are integrated: the angle
theta enters only through sqrt(a sin^2 theta + b), whose integral over
[0, pi/2] is the complete elliptic integral sqrt(a+b) E(sqrt(a/(a+b)))
(E from the compiled `scipy.special.ellipe`, at the parameter a/(a+b)),
and an integrand free of theta (or of the 5-cube's phi_1) integrates to a
constant factor.  Each triple integral becomes a double one over
(phi, psi), and the quadruple one a double one.  The integrands of these
double integrals are curried, f(psi)(phi): what depends on psi alone is
computed once per inner integral over phi, in the floating-point order of
the two-argument form, so the values keep their bits.  `_nested` nests
`integrate.quad` as `integrate.nquad` does, with the same calls.

The four double integrals that hold a cone are split into terms by the
kind of singularity each has, and each term is integrated in the
coordinates that need fewer evaluations:
- the cone sqrt(cos^2(phi) sin^2(psi) + cos^2(psi)) of e_ar, e_ar2, e_vl_ar
  and e_ar_mw vanishes only at the corner (pi/2, pi/2), like the distance
  to it.  With phi innermost, every inner integral near psi = pi/2 has a
  kink about cos(psi) wide at phi = pi/2, which the adaptive rule bisects
  down to again and again.  In polar coordinates (r, alpha) about the
  corner (`_corner_polar`) the cone is r times a smooth positive function,
  so these terms take a fifteenth to a thirtieth of the evaluations;
- e_ar2's theta-term sqrt(a+b) E(k), a = sin^2(phi) sin^2(psi) and
  b = cos^2(psi), holds a cone too: sqrt(a+b) vanishes only at the corner
  (0, pi/2), and it goes to `_corner_polar` about that corner.  There its
  logarithmic edge, where k -> 1, lies at alpha = 0, an end of the range
  of alpha, and the term takes 5,334 evaluations, against 19,215 in
  Cartesian coordinates and 37,128 in polar ones about (pi/2, pi/2);
- the theta-terms of e_vl_ar and e_ar_mw factor exactly: with
  a = sin^2(phi) sin^2(psi) and b = cos^2(phi) sin^2(psi),
  sqrt(a+b) E(k) = sin(psi) E(sin(phi)), so each is a psi-integral times
  one phi-integral, both by `integrate_1d` (see `_area_terms`);
- the smooth terms stay Cartesian (`_double`), where one 21 x 21 rule does.

The suites return integrals only and hold no target: each value is checked
against its row's target in `moments.CONSTANT_TARGETS`, which takes the
closed forms of `moments.CORANK1_TARGETS` that `moments` and `verify`
print.  Every zeta route here is checked against `moments.ZETA`, which
uses none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, special

from .geometry import density4 as _dens4
from .specfun import ConvergenceError, elliptic_imag, hyp3f2_unit

HALF_PI = 0.5 * math.pi
PI = math.pi


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


def integrate_1d(f, a: float, b: float, tol: float = 1e-10,
                 limit: int = 300) -> QuadResult:
    """Adaptive integral of f over (a, b); b may be +inf.

    Returns the estimate with its error bound and evaluation count; raises
    ConvergenceError (carrying the best estimate) when the requested
    tolerance is not certified (see `_certified`).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    out = integrate.quad(f, a, b, epsabs=tol, epsrel=tol,
                         limit=limit, full_output=True)
    value, err, info = out[0], out[1], out[2]
    return _certified(QuadResult(value=value, error_estimate=err,
                                 evaluations=int(info["neval"])),
                      tol, "quadrature")


def _nested(f, ranges, tols) -> QuadResult:
    """Two-level adaptive integral of the curried f(y)(x).

    ranges[0] is the range of the inner variable x, either (lo, hi) or a
    function of y that returns it, and ranges[1] that of y; tols[0] and
    tols[1] are their epsabs = epsrel.  Each level makes the QUADPACK calls
    `integrate.nquad` would, with its default limit, and reports what it
    reports: the largest error estimate of all the calls and the sum of the
    inner calls' evaluations.  Raises ConvergenceError when that error
    estimate is not certified (see `_certified`) for t = tols[1].
    """
    inner_range, outer_range = ranges
    inner_tol, outer_tol = tols
    err, evaluations = 0.0, 0

    def outer(y: float) -> float:
        nonlocal err, evaluations
        lo, hi = inner_range(y) if callable(inner_range) else inner_range
        value, inner_err, info, *_ = integrate.quad(
            f(y), lo, hi, epsabs=inner_tol, epsrel=inner_tol, full_output=True)
        err = max(err, inner_err)
        evaluations += info["neval"]
        return value

    value, outer_err, *_ = integrate.quad(
        outer, *outer_range, epsabs=outer_tol, epsrel=outer_tol,
        full_output=True)
    return _certified(QuadResult(value=value,
                                 error_estimate=max(err, outer_err),
                                 evaluations=int(evaluations)),
                      outer_tol, "nested quadrature")


def _certified(result: QuadResult, tol: float, what: str) -> QuadResult:
    """Return result, or raise ConvergenceError, whose `best` is result,
    when its error estimate exceeds ten times the accuracy asked of QUADPACK
    with epsabs = epsrel = tol, which is max(tol, tol*|value|)."""
    requested = tol * max(1.0, abs(result.value))
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


def _zeta4_integrand(t: float) -> float:
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


def zeta4_quadrature_psi_form() -> float:
    """zeta_4 from the pre-substitution integral over psi in (0, pi/2).

    Numerically validates the change of variables t = sqrt((sec(psi)-1)/2)
    used to reach the (0, inf) form.
    """
    def integrand(psi: float) -> float:
        sec = 1.0 / math.cos(psi)
        t = math.sqrt(0.5 * (sec - 1.0))
        k, e = elliptic_imag(t)
        tan2 = math.tan(psi) ** 2
        f = (-2.0 + 4.0 * tan2) * e * e
        g = 2.0 * (1.0 - 2.0 * tan2 + sec) * e * k
        h = (-1.0 + tan2 - sec) * k * k
        return math.cos(psi) * math.sin(psi) ** 3 * (f + g + h) / (3.0 * tan2)

    r = integrate_1d(integrand, 0.0, HALF_PI, tol=1e-11)
    return 256.0 / (2.0 * PI**2) * r.value


def zeta5_inner_v_identity(u: float) -> tuple[float, float]:
    """Both sides of the inner v-integral identity in the zeta_5 reduction.

    LHS: int_0^1 v^5 / ([4u^2(1+u^2)+v^2]^{7/2} sqrt(1-v^2)) dv.
    RHS: (4/15) / ((1+2u^2)^6 u sqrt(1+u^2)).
    """
    a = 4.0 * u * u * (1.0 + u * u)

    def f(v: float) -> float:
        return v**5 / ((a + v * v) ** 3.5 * math.sqrt((1.0 - v) * (1.0 + v)))

    lhs = integrate_1d(f, 0.0, 1.0, tol=1e-13).value
    rhs = (4.0 / 15.0) / ((1.0 + 2.0 * u * u) ** 6 * u * math.sqrt(1.0 + u * u))
    return lhs, rhs


def zeta5_reduction_check() -> float:
    """zeta_5 as 640 times the reduced three-integral combination.

    Evaluates the E^2, EK and K^2 integrals separately (coefficients
    4/(15 pi^2), 8/(15 pi^2), 4/(15 pi^2)); equals zeta_4 analytically.
    """
    def poly(t: float) -> float:
        return (1.0 + 2.0 * t * t) ** 2 - 1.0

    def f_e2(t: float) -> float:
        _, e = elliptic_imag(t)
        return (-2.0 + 4.0 * poly(t)) * e * e / (1.0 + 2.0 * t * t) ** 5 * t

    def f_ek(t: float) -> float:
        k, e = elliptic_imag(t)
        return ((1.0 - 2.0 * poly(t) + (1.0 + 2.0 * t * t)) * e * k
                / (1.0 + 2.0 * t * t) ** 5 * t)

    def f_k2(t: float) -> float:
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


def _theta_sqrt_integral(a: float, b: float) -> float:
    """int_0^{pi/2} sqrt(a sin^2(theta) + b) dtheta for a, b >= 0.

    a sin^2 + b = (a+b)(1 - m cos^2) with m = a/(a+b), so the integral is
    sqrt(a+b) E(k), and `ellipe` takes the parameter m = k^2.
    """
    if b == 0.0:
        return math.sqrt(a)  # E(1) = 1
    total = a + b
    return math.sqrt(total) * float(special.ellipe(a / total))


def _cone(ph: float, ps: float) -> float:
    """sqrt(cos^2(phi) sin^2(psi) + cos^2(psi)), the first area term.

    It vanishes only at the corner (pi/2, pi/2), where it is sqrt(x^2 + y^2)
    to first order in x = pi/2 - phi and y = pi/2 - psi.
    """
    c, s = math.cos, math.sin
    return math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)


# The integrands over the angle box that `_double` takes are curried:
# f(psi) computes what depends on psi alone once per inner integral and
# returns the integrand in phi.  Each performs the floating-point operations
# of the two-argument form f(phi, psi) in its order, so its values keep
# their bits; the density _dens4(phi, psi) appears as
# (sin(phi) * sin^2(psi) / TWO_PI2).
#
# The theta-free entries: their triple integrals are HALF_PI times these.

def _vl(ps: float):
    w, sps2 = 64.0 * math.cos(ps), math.sin(ps) ** 2
    return lambda ph: w * (math.sin(ph) * sps2 / TWO_PI2)


def _vl2(ps: float):
    cps, sps = math.cos(ps), math.sin(ps)
    a, sps2 = 64.0 * cps ** 2, sps ** 2
    return lambda ph: ((a + 192.0 * math.cos(ph) * sps * cps)
                       * (math.sin(ph) * sps2 / TWO_PI2))


def _mw(ps: float):
    w, sps2 = 32.0 * math.sqrt(1.0 - math.cos(ps) ** 2), math.sin(ps) ** 2
    return lambda ph: w * (math.sin(ph) * sps2 / TWO_PI2)


def _mw2(ps: float):
    cps2, sps2 = math.cos(ps) ** 2, math.sin(ps) ** 2
    a, root = 16.0 * (1.0 - cps2), math.sqrt(1.0 - cps2)
    return lambda ph: ((a + 48.0 * math.sqrt(1.0 - math.cos(ph) ** 2 * sps2)
                        * root) * (math.sin(ph) * sps2 / TWO_PI2))


def _vl_mw(ps: float):
    cps, sps = math.cos(ps), math.sin(ps)
    a, root, sps2 = 32.0 * cps, math.sqrt(1.0 - cps ** 2), sps ** 2
    return lambda ph: ((a + 96.0 * math.cos(ph) * sps) * root
                       * (math.sin(ph) * sps2 / TWO_PI2))


# The theta-integrated integrands of the three entries that hold the cone
# and depend on theta, split into terms by kind: a cone term, a theta-term
# sqrt(a+b) E(k) and e_ar2's smooth term.  Each entry's triple integral over
# (theta, phi, psi) is the sum of the double integrals of its terms over
# (phi, psi).  The cone terms, and e_ar2's theta-term, go to `_corner_polar`
# and keep two arguments.

def _ar2_smooth(ps: float):
    cps2, sps2 = math.cos(ps) ** 2, math.sin(ps) ** 2
    return lambda ph: (HALF_PI * 384.0 * (math.cos(ph) ** 2 * sps2 + cps2)
                       * (math.sin(ph) * sps2 / TWO_PI2))


def _ar2_cone(ph: float, ps: float) -> float:
    return (HALF_PI * 384.0 * math.sin(ph) * math.sin(ps) * _cone(ph, ps)
            * _dens4(ph, ps))


def _ar2_theta(ph: float, ps: float) -> float:
    """With a = sin^2(phi) sin^2(psi) and b = cos^2(psi), sqrt(a+b) is a
    cone that vanishes only at the corner (0, pi/2)."""
    sph, sps = math.sin(ph), math.sin(ps)
    return (1536.0 * sph * sps
            * _theta_sqrt_integral(sph ** 2 * sps ** 2, math.cos(ps) ** 2)
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
    def cone(ph: float, ps: float) -> float:
        return weight(ps) * HALF_PI * _cone(ph, ps) * _dens4(ph, ps)

    def psi_factor(ps: float) -> float:
        return weight(ps) * math.sin(ps) ** 3 / TWO_PI2
    return cone, psi_factor


def _area_phi(ph: float) -> float:
    """sin(phi) E(sin(phi)), the phi-factor of the theta-terms of e_vl_ar
    and e_ar_mw (see `_area_terms`)."""
    sph = math.sin(ph)
    return sph * _theta_sqrt_integral(sph ** 2, math.cos(ph) ** 2)


_vl_ar_cone, _vl_ar_psi = _area_terms(lambda ps: 384.0 * math.cos(ps))
_ar_mw_cone, _ar_mw_psi = _area_terms(
    lambda ps: 192.0 * math.sqrt(1.0 - math.cos(ps) ** 2))


def _mw2_3cube(ph: float) -> float:
    """2D analog (shadow of the 3-cube onto a plane): E(mw^2), a double
    integral over (theta, phi) whose theta-integral is
    int sqrt(1 - cos^2(th) sin^2(ph)) = E(sin(ph))."""
    cph, sph = math.cos(ph), math.sin(ph)
    pref = (2.0 / PI) ** 2 * sph / (4.0 * PI)
    return (24.0 * (1.0 - cph ** 2) * HALF_PI
            + 48.0 * _theta_sqrt_integral(sph ** 2, cph ** 2)
            * math.sqrt(1.0 - cph ** 2)) * pref


def _ij(p3: float):
    """4D analog (shadow of the 5-cube): E(mw^2) = 32 (4/(3 pi))^2 (5I + 20J),
    a quadruple integral over (theta, p1, p2, p3) whose integrand is free of
    theta and depends on p1 only through the density factor sin(p1), which
    integrates to 1.  Curried in p3, with p2 innermost."""
    cp3_2, sp3 = math.cos(p3) ** 2, math.sin(p3)
    i_part, root = 5.0 * (1.0 - cp3_2), math.sqrt(1.0 - cp3_2)
    sp3_2, sp3_3 = sp3 ** 2, sp3 ** 3
    return lambda p2: ((i_part + 20.0 * (math.sqrt(1.0 - math.cos(p2) ** 2
                                                   * sp3_2) * root))
                       * 3.0 / (8.0 * PI**2) * math.sin(p2) ** 2 * sp3_3)


_BOX_TOLS = (1e-12, 1e-11)


def _double(f) -> QuadResult:
    """Integral over [0, pi/2]^2 of the curried f(psi)(phi), phi innermost."""
    return _nested(f, [(0.0, HALF_PI)] * 2, _BOX_TOLS)


# The corners at which the suite's cones vanish: that of `_cone`, and that
# of sqrt(a+b) in `_ar2_theta`.
_CONE_CORNER = (HALF_PI, HALF_PI)
_AR2_THETA_CORNER = (0.0, HALF_PI)


def _polar(f, corner):
    """f(phi, psi) times the Jacobian r in polar coordinates (r, alpha)
    about a corner (phi0, psi0) of the box, curried in alpha:
    phi = phi0 +- r cos(alpha) and psi = psi0 +- r sin(alpha), each sign
    pointing into the box (- from pi/2, + from 0)."""
    (ph0, dph), (ps0, dps) = ((c, -1.0 if c else 1.0) for c in corner)

    def outer(al: float):
        ca, sa = dph * math.cos(al), dps * math.sin(al)
        return lambda r: r * f(ph0 + r * ca, ps0 + r * sa)
    return outer


def _edge(al: float) -> tuple[float, float]:
    """The range of r at alpha: out to the far edge of the box."""
    return (0.0, HALF_PI / max(math.cos(al), math.sin(al)))


def _corner_polar(f, corner) -> QuadResult:
    """Integral of f(phi, psi) over [0, pi/2]^2 in polar coordinates about
    one of its corners (see `_polar`).

    r is innermost, from 0 to the far edge (`_edge`), and alpha is split at
    pi/4 into the two triangles whose far edges are the two sides of the box
    away from the corner, so that the edge is smooth in alpha on each piece.
    """
    quarter = 0.25 * PI
    return _total(*(_nested(_polar(f, corner), [_edge, span], _BOX_TOLS)
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
        """Triple integral of a curried integrand f(psi)(phi) free of theta."""
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
