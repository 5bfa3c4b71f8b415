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
(evaluated by the AGM), and an integrand free of theta (or of the 5-cube's
phi_1) integrates to a constant factor.  Each triple integral becomes a
double one over (phi, psi), and the quadruple one a double one.

The moment suite returns integrals only and holds no closed forms: the
values they are checked against are those of `moments.closed_form_table`
and `moments.joint_moment_table`, which `moments` and `verify` print.
Likewise every zeta route here is checked against the closed form
`moments.ZETA`, which uses none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .specfun import _agm_ke, elliptic_imag

HALF_PI = 0.5 * math.pi
PI = math.pi


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int


class BudgetError(RuntimeError):
    """Integrator failed to converge within its evaluation budget."""

    def __init__(self, best: QuadResult, message: str):
        self.best = best
        super().__init__(message)


def integrate_1d(f, a: float, b: float, tol: float = 1e-10,
                 limit: int = 300) -> QuadResult:
    """Adaptive integral of f over (a, b); b may be +inf.

    Returns the estimate with its error bound and evaluation count; raises
    BudgetError (carrying the best estimate) when the requested tolerance
    is not certified (see `_certified`).
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
    """Iterated adaptive 1D integration; ranges[0] is the innermost variable.

    Raises BudgetError when the outermost error estimate is not certified
    (see `_certified`) for t = tols[-1].
    """
    opts = [{"epsabs": t, "epsrel": t} for t in tols]
    value, err, info = integrate.nquad(f, ranges, opts=opts, full_output=True)
    return _certified(QuadResult(value=value, error_estimate=err,
                                 evaluations=int(info["neval"])),
                      tols[-1], "nested quadrature")


def _certified(result: QuadResult, tol: float, what: str) -> QuadResult:
    """Return result, or raise BudgetError when its error estimate exceeds
    ten times the accuracy asked of QUADPACK with epsabs = epsrel = tol,
    which is max(tol, tol*|value|)."""
    requested = tol * max(1.0, abs(result.value))
    if not result.error_estimate <= 10.0 * requested:
        raise BudgetError(result, f"{what} error estimate "
                                  f"{result.error_estimate:.3g} exceeds "
                                  f"10 x {requested:.3g}")
    return result


def _scaled(r: QuadResult, factor: float) -> QuadResult:
    return QuadResult(value=factor * r.value,
                      error_estimate=factor * r.error_estimate,
                      evaluations=r.evaluations)


# ---------------------------------------------------------------------------
# elliptic-integral constants

def _ek(t: float) -> tuple[float, float]:
    pair = elliptic_imag(t)
    return pair.e_value, pair.k_value


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


def pi_over_128_suite(tol: float = 1e-12) -> PiIdentitySuite:
    scale = 1.0 / (12.0 * PI)

    def scaled(f) -> QuadResult:
        return _scaled(integrate_1d(f, 0.0, math.inf, tol=tol), scale)

    first = scaled(lambda t: _ek(t)[0] * t / (1.0 + t * t) ** 2)
    second = scaled(lambda t: _ek(t)[0] * t / (1.0 + t * t) ** 3)
    third = scaled(lambda t: _ek(t)[1] * t / (1.0 + t * t) ** 2)
    return PiIdentitySuite(first=first, second=second, third=third)


def zeta3_quadrature(tol: float = 1e-12) -> float:
    """zeta_3 from the single-integral form 96/(4*pi) int t^2 E(it)/(1+t^2)^{5/2}."""
    r = integrate_1d(lambda t: t * t * _ek(t)[0] / (1.0 + t * t) ** 2.5,
                     0.0, math.inf, tol=tol)
    return 96.0 * r.value / (4.0 * PI)


def _zeta4_integrand(t: float) -> float:
    e, k = _ek(t)
    t2 = t * t
    t4 = t2 * t2
    num = ((8.0 * t4 + 8.0 * t2 - 1.0) * e * e
           - 2.0 * (4.0 * t4 + 3.0 * t2 - 1.0) * e * k
           + (2.0 * t4 + t2 - 1.0) * k * k)
    return num / (2.0 * t2 + 1.0) ** 5 * t


def zeta4_quadrature(tol: float = 1e-13) -> float:
    """zeta_4 = 256 * (4/(3*pi^2)) * the E/K product integral over (0, inf)."""
    r = integrate_1d(_zeta4_integrand, 0.0, math.inf, tol=tol)
    return 256.0 * 4.0 / (3.0 * PI**2) * r.value


def zeta4_quadrature_psi_form(tol: float = 1e-11) -> float:
    """zeta_4 from the pre-substitution integral over psi in (0, pi/2).

    Numerically validates the change of variables t = sqrt((sec(psi)-1)/2)
    used to reach the (0, inf) form.
    """
    def integrand(psi: float) -> float:
        sec = 1.0 / math.cos(psi)
        t = math.sqrt(0.5 * (sec - 1.0))
        e, k = _ek(t)
        tan2 = math.tan(psi) ** 2
        f = (-2.0 + 4.0 * tan2) * e * e
        g = 2.0 * (1.0 - 2.0 * tan2 + sec) * e * k
        h = (-1.0 + tan2 - sec) * k * k
        return math.cos(psi) * math.sin(psi) ** 3 * (f + g + h) / (3.0 * tan2)

    r = integrate_1d(integrand, 0.0, HALF_PI, tol=tol)
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


def zeta5_reduction_check(tol: float = 1e-13) -> float:
    """zeta_5 as 640 times the reduced three-integral combination.

    Evaluates the E^2, EK and K^2 integrals separately (coefficients
    4/(15 pi^2), 8/(15 pi^2), 4/(15 pi^2)); equals zeta_4 analytically.
    """
    def poly(t: float) -> float:
        return (1.0 + 2.0 * t * t) ** 2 - 1.0

    def f_e2(t: float) -> float:
        e, _ = _ek(t)
        return (-2.0 + 4.0 * poly(t)) * e * e / (1.0 + 2.0 * t * t) ** 5 * t

    def f_ek(t: float) -> float:
        e, k = _ek(t)
        return ((1.0 - 2.0 * poly(t) + (1.0 + 2.0 * t * t)) * e * k
                / (1.0 + 2.0 * t * t) ** 5 * t)

    def f_k2(t: float) -> float:
        _, k = _ek(t)
        return ((-1.0 + poly(t) - (1.0 + 2.0 * t * t)) * k * k
                / (1.0 + 2.0 * t * t) ** 5 * t)

    total = (4.0 / (15.0 * PI**2) * integrate_1d(f_e2, 0.0, math.inf, tol=tol).value
             + 8.0 / (15.0 * PI**2) * integrate_1d(f_ek, 0.0, math.inf, tol=tol).value
             + 4.0 / (15.0 * PI**2) * integrate_1d(f_k2, 0.0, math.inf, tol=tol).value)
    return 640.0 * total


# ---------------------------------------------------------------------------
# defining moment integrals over the spherical angle boxes

def _dens4(phi: float, psi: float) -> float:
    return math.sin(phi) * math.sin(psi) ** 2 / (2.0 * PI**2)


def _theta_sqrt_integral(a: float, b: float) -> float:
    """int_0^{pi/2} sqrt(a sin^2(theta) + b) dtheta for a, b >= 0.

    a sin^2 + b = (a+b)(1 - k^2 cos^2) with k^2 = a/(a+b), so the integral
    is sqrt(a+b) E(k); k and k' = sqrt(b/(a+b)) carry no cancellation.
    """
    if b == 0.0:
        return math.sqrt(a)  # E(1) = 1; the AGM needs k' > 0
    total = a + b
    return math.sqrt(total) * _agm_ke(math.sqrt(a / total),
                                      math.sqrt(b / total))[1]


# The theta-integrated integrands of the three entries whose defining
# integrand depends on theta; the triple integral over (theta, phi, psi)
# is the double integral of these over (phi, psi).

def _ar2_reduced(ph: float, ps: float) -> float:
    c, s = math.cos, math.sin
    first = 384.0 * (c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
    second = 1536.0 * s(ph) * s(ps) * _theta_sqrt_integral(
        s(ph) ** 2 * s(ps) ** 2, c(ps) ** 2)
    third = (384.0 * s(ph) * s(ps)
             * math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2))
    return (HALF_PI * (first + third) + second) * _dens4(ph, ps)


def _area_terms_reduced(ph: float, ps: float) -> float:
    """theta-integral of sqrt(c^2(ph)s^2(ps) + c^2(ps))
    + sqrt(s^2(th)s^2(ph)s^2(ps) + c^2(ph)s^2(ps))."""
    c, s = math.cos, math.sin
    return (HALF_PI * math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
            + _theta_sqrt_integral(s(ph) ** 2 * s(ps) ** 2,
                                   c(ph) ** 2 * s(ps) ** 2))


def _vl_ar_reduced(ph: float, ps: float) -> float:
    return 384.0 * math.cos(ps) * _area_terms_reduced(ph, ps) * _dens4(ph, ps)


def _ar_mw_reduced(ph: float, ps: float) -> float:
    return (192.0 * math.sqrt(1.0 - math.cos(ps) ** 2)
            * _area_terms_reduced(ph, ps) * _dens4(ph, ps))


def _double(f) -> QuadResult:
    """Integral of f(phi, psi) over [0, pi/2]^2, phi innermost."""
    return _nested(f, [(0.0, HALF_PI)] * 2, (1e-12, 1e-11))


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

    c = math.cos
    s = math.sin

    # 2D analog (shadow of the 3-cube onto a plane): E(mw^2), a double
    # integral over (theta, phi) whose theta-integral is
    # int sqrt(1 - cos^2(th) sin^2(ph)) = E(sin(ph)).
    def mw2_3cube(ph):
        pref = (2.0 / PI) ** 2 * s(ph) / (4.0 * PI)
        return (24.0 * (1.0 - c(ph) ** 2) * HALF_PI
                + 48.0 * _theta_sqrt_integral(s(ph) ** 2, c(ph) ** 2)
                * math.sqrt(1.0 - c(ph) ** 2)) * pref

    # 4D analog (shadow of the 5-cube): E(mw^2) = 32 (4/(3 pi))^2 (5I + 20J),
    # a quadruple integral over (theta, p1, p2, p3) whose integrand is free
    # of theta and depends on p1 only through the density factor sin(p1),
    # which integrates to 1.
    def ij_integrand(p2, p3):
        i_part = 5.0 * (1.0 - c(p3) ** 2)
        j_part = 20.0 * (math.sqrt(1.0 - c(p2) ** 2 * s(p3) ** 2)
                         * math.sqrt(1.0 - c(p3) ** 2))
        return (i_part + j_part) * 3.0 / (8.0 * PI**2) * s(p2) ** 2 * s(p3) ** 3

    return {
        "e_vl": theta_free(lambda ph, ps: 64.0 * c(ps) * _dens4(ph, ps)),
        "e_vl2": theta_free(lambda ph, ps: (64.0 * c(ps) ** 2
                                            + 192.0 * c(ph) * s(ps) * c(ps))
                            * _dens4(ph, ps)),
        "e_ar": theta_free(lambda ph, ps: 192.0
                           * math.sqrt(c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
                           * _dens4(ph, ps)),
        "e_ar2": _double(_ar2_reduced),
        "e_mw": theta_free(lambda ph, ps: 32.0 * math.sqrt(1.0 - c(ps) ** 2)
                           * _dens4(ph, ps)),
        "e_mw2": theta_free(lambda ph, ps: (
            16.0 * (1.0 - c(ps) ** 2)
            + 48.0 * math.sqrt(1.0 - c(ph) ** 2 * s(ps) ** 2)
            * math.sqrt(1.0 - c(ps) ** 2)) * _dens4(ph, ps)),
        "e_vl_ar": _double(_vl_ar_reduced),
        "e_vl_mw": theta_free(lambda ph, ps: (32.0 * c(ps)
                                              + 96.0 * c(ph) * s(ps))
                              * math.sqrt(1.0 - c(ps) ** 2) * _dens4(ph, ps)),
        "e_ar_mw": _double(_ar_mw_reduced),
        "e_mw2_3cube": integrate_1d(mw2_3cube, 0.0, HALF_PI, tol=1e-12),
        "e_mw2_5cube": _scaled(_double(ij_integrand),
                               HALF_PI * 32.0 * (4.0 / (3.0 * PI)) ** 2),
    }
