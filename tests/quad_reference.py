"""The two-argument integrands of the moment suite that the curried ones of
`quad` replaced, kept as the reference: each is f(phi, psi) (or, for the
5-cube, f(p2, p3)) and computes every factor at every call.

The curried integrands must give the same bytes: quad.X(psi)(phi) equals,
under ==, X(phi, psi) below.  The functions are copied unchanged from the
last revision before the currying, except that they call the live
`quad._theta_sqrt_integral` and `quad._cone`, so that only the hoisting is
compared.  `_ar2_theta` is the reference of the two-argument
`quad._ar2_theta`, which `quad._corner_polar` integrates, and `polar` and
`edge` that of its polar coordinates.
"""

import math

from cubeshadow.quad import HALF_PI, PI, _cone, _theta_sqrt_integral

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
