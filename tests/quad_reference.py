"""Scalar references and a second quadrature route for `quad`.

The two-argument scalar integrands of the moment suite, written with
`math` at every call as they were before the suite was vectorized: each
is f(phi, psi) (or, for the 5-cube, f(p2, p3)).  The vectorized integrands
of `quad` must agree with them elementwise.  They call the live
`quad._theta_sqrt_integral`, so that only the integrands are compared.
`_ar2_theta` is the reference of `quad._ar2_theta`, which
`quad._corner_polar` integrates, and `polar` and `edge` that of its polar
coordinates.

`spherical_density` is the density of the spherical angles at n = 3, 4
and 5, whose n = 4 case `geometry.density4` must equal.
`zeta4_quadrature_psi_form` and `zeta5_inner_v_identity` are two displayed
steps of the paper's zeta reductions that no command runs: the integral
over psi before the substitution that gives `quad.zeta4_quadrature`, and
the inner v-integral of `quad.zeta5_reduction_check`.

`quadpack_twin` is the second route of every integral that `quad` and
`specfun.hyp3f2_unit` compute: QUADPACK, through `scipy.integrate`, which
the library no longer imports.
"""

import math

import numpy as np
from scipy import integrate

from cubeshadow import quad
from cubeshadow.geometry import DimensionError
from cubeshadow.quad import HALF_PI, PI, _theta_sqrt_integral, integrate_1d
from cubeshadow.specfun import elliptic_imag

c, s = math.cos, math.sin


def _dens4(phi: float, psi: float) -> float:
    return math.sin(phi) * math.sin(psi) ** 2 / (2.0 * PI**2)


def _ar2_smooth(ph: float, ps: float) -> float:
    c, s = math.cos, math.sin
    return (HALF_PI * 384.0 * (c(ph) ** 2 * s(ps) ** 2 + c(ps) ** 2)
            * _dens4(ph, ps))


def _ar2_theta(ph: float, ps: float) -> float:
    c, s = math.cos, math.sin
    return (1536.0 * s(ph) * s(ps)
            * _theta_sqrt_integral(s(ph) ** 2 * s(ps) ** 2, c(ps) ** 2)
            * _dens4(ph, ps))


# the theta-free entries, as the lambdas of moment_integral_suite

def _vl(ph, ps):
    return 64.0 * c(ps) * _dens4(ph, ps)


def _vl2(ph, ps):
    return (64.0 * c(ps) ** 2 + 192.0 * c(ph) * s(ps) * c(ps)) * _dens4(ph, ps)


def _mw(ph, ps):
    return 32.0 * math.sqrt(1.0 - c(ps) ** 2) * _dens4(ph, ps)


def _mw2(ph, ps):
    return (16.0 * (1.0 - c(ps) ** 2)
            + 48.0 * math.sqrt(1.0 - c(ph) ** 2 * s(ps) ** 2)
            * math.sqrt(1.0 - c(ps) ** 2)) * _dens4(ph, ps)


def _vl_mw(ph, ps):
    return ((32.0 * c(ps) + 96.0 * c(ph) * s(ps))
            * math.sqrt(1.0 - c(ps) ** 2) * _dens4(ph, ps))


def _mw2_3cube(ph):
    pref = (2.0 / PI) ** 2 * s(ph) / (4.0 * PI)
    return (24.0 * (1.0 - c(ph) ** 2) * HALF_PI
            + 48.0 * _theta_sqrt_integral(s(ph) ** 2, c(ph) ** 2)
            * math.sqrt(1.0 - c(ph) ** 2)) * pref


def _ij(p2, p3):
    i_part = 5.0 * (1.0 - c(p3) ** 2)
    j_part = 20.0 * (math.sqrt(1.0 - c(p2) ** 2 * s(p3) ** 2)
                     * math.sqrt(1.0 - c(p3) ** 2))
    return (i_part + j_part) * 3.0 / (8.0 * PI**2) * s(p2) ** 2 * s(p3) ** 3


def polar(f, corner):
    """`_corner_polar`'s integrand of (r, alpha) about corner, r innermost:
    each coordinate moves from its side of the box to the other."""
    def inward(c, step):
        return c - step if c else step

    def integrand(r, al):
        return r * f(inward(corner[0], r * math.cos(al)),
                     inward(corner[1], r * math.sin(al)))
    return integrand


def edge(al):
    return (0.0, HALF_PI / max(math.cos(al), math.sin(al)))


def spherical_density(n: int, angles) -> float:
    """Joint density of the spherical angles of a uniform direction.

    Angles are (theta, phi_1, ..., phi_{n-2}) with theta in [0, 2*pi) and
    each polar angle in [0, pi].  Supported n: 3, 4, 5.
    """
    angles = tuple(float(a) for a in angles)
    if n == 3:
        (_, phi) = angles
        return math.sin(phi) / (4.0 * math.pi)
    if n == 4:
        (_, phi, psi) = angles
        return math.sin(phi) * math.sin(psi) ** 2 / (2.0 * math.pi**2)
    if n == 5:
        (_, p1, p2, p3) = angles
        return (3.0 / (8.0 * math.pi**2)
                * math.sin(p1) * math.sin(p2) ** 2 * math.sin(p3) ** 3)
    raise DimensionError(f"spherical_density supports n in {{3,4,5}}, got {n}")


def zeta4_quadrature_psi_form() -> float:
    """zeta_4 from the pre-substitution integral over psi in (0, pi/2).

    Numerically validates the change of variables t = sqrt((sec(psi)-1)/2)
    used to reach the (0, inf) form.
    """
    def integrand(psi):
        sec = 1.0 / np.cos(psi)
        t = np.sqrt(0.5 * (sec - 1.0))
        k, e = elliptic_imag(t)
        tan2 = np.tan(psi) ** 2
        f = (-2.0 + 4.0 * tan2) * e * e
        g = 2.0 * (1.0 - 2.0 * tan2 + sec) * e * k
        h = (-1.0 + tan2 - sec) * k * k
        return np.cos(psi) * np.sin(psi) ** 3 * (f + g + h) / (3.0 * tan2)

    r = integrate_1d(integrand, 0.0, HALF_PI, tol=1e-11)
    return 256.0 / (2.0 * PI**2) * r.value


def zeta5_inner_v_identity(u: float) -> tuple[float, float]:
    """Both sides of the inner v-integral identity in the zeta_5 reduction.

    LHS: int_0^1 v^5 / ([4u^2(1+u^2)+v^2]^{7/2} sqrt(1-v^2)) dv, with its
    singular factor (1-v)^(-1/2) as the rule's algebraic weight.
    RHS: (4/15) / ((1+2u^2)^6 u sqrt(1+u^2)).
    """
    a = 4.0 * u * u * (1.0 + u * u)

    def f(v):
        return v**5 / ((a + v * v) ** 3.5 * np.sqrt(1.0 + v))

    lhs = integrate_1d(f, 0.0, 1.0, tol=1e-13, weight=(0.0, -0.5)).value
    rhs = (4.0 / 15.0) / ((1.0 + 2.0 * u * u) ** 6 * u * math.sqrt(1.0 + u * u))
    return lhs, rhs


def quadpack_twin(monkeypatch) -> list:
    """Integrate by QUADPACK beside the rule of `quad`, call for call.

    Wraps `quad.integrate_1d` and `quad._nested`, through which every
    integral of `quad` and of `specfun.hyp3f2_unit` goes, so that each call
    also integrates its integrand over its range with `integrate.quad`
    (QAWS for an algebraic weight) or `integrate.nquad`, asked the same
    accuracy.  Returns the list to which each call appends (the rule's
    QuadResult, QUADPACK's value, the accuracy asked of both).
    """
    pairs = []
    line, nested = quad.integrate_1d, quad._nested

    def integrate_1d(f, a, b, tol=1e-10, weight=None, epsabs=None):
        result = line(f, a, b, tol, weight, epsabs)
        epsabs = tol if epsabs is None else epsabs
        alg = {} if weight is None else {"weight": "alg", "wvar": weight}
        value = integrate.quad(f, a, b, epsabs=epsabs, epsrel=tol, limit=200,
                               **alg)[0]
        pairs.append((result, value, max(epsabs, tol * abs(value))))
        return result

    def _nested(f, ranges, tol):
        result = nested(f, ranges, tol)
        value = integrate.nquad(f, ranges,
                                opts={"epsabs": tol, "epsrel": tol})[0]
        pairs.append((result, value, tol * max(1.0, abs(value))))
        return result

    monkeypatch.setattr(quad, "integrate_1d", integrate_1d)
    monkeypatch.setattr(quad, "_nested", _nested)
    return pairs
