"""Closed-form per-direction shadow functionals.

Corank-1 shadows of the centered unit n-cube are zonotopes, so their
volume, surface area and mean width are explicit in the coordinates of
the projection direction u:

    volume      = sum_j |u_j|
    area        = 2 sum_{j<k} sqrt(u_j^2 + u_k^2)
    mean width  = c_{n-1} sum_j sqrt(1 - u_j^2)

where c_d is the mean width of a unit segment in R^d.  Rank-2 shadows of
the 4-cube are octagons; their perimeter and area are explicit in the six
minors p_jk = u_j v_k - u_k v_j of the orthonormal pair (u, v), and the
area is also given locally by six rational branch formulas in seven
scalars built from (u, v).

This module holds the closed forms only.  Their independent check, the
explicit hulls of the projected vertices, is `hull`, and the two modules do
not import each other; `moments` compares them.

Each formula has one implementation, a batch kernel; the scalar
functions are batches of one.  A batch of m directions is coordinate-major,
(n, m), one direction per column, so that each coordinate is one contiguous
row and every operation runs along m contiguous elements.  A sum over the
coordinates is `geometry.coordinate_sum`, which adds the rows in the order
np.add.reduce uses along a row: the same bits as the row-major sums.

`shadow_batch` takes vl as the coordinate sum of |x| and squares the
directions once, into s = x**2.  The area is 2 sum_{j<k} sqrt(s_j + s_k),
one add and one sqrt per pair into a preallocated buffer; the mean width
takes 1 - u_j^2 as prefix plus suffix sums of s (the other squares), which,
unlike 1 - s_j, does not cancel as |u_j| -> 1.

Both batch kernels take `out`: None, or the arrays the call would
allocate, so that a caller can reuse one set for every batch and allocate
nothing.  The same in-place code runs either way, and gives the same
bytes.  For `shadow_batch` it is (rows, s, rest): rows (5, m) receives
vl, ar and mw, and its last two rows are scratch; s and rest, (n, m),
hold the squares and their suffix sums.  |x| is formed and summed in s
before s = x**2.  x is last read then, so rest may share its memory.  For
`octagon_batch` it is (p, rows): p (6, m) holds the minors, and rows
(3, m) receives perimeter and area, with one scratch row.

Error of sqrt(s_j + s_k) against sqrt(u_j^2 + u_k^2): for unit vectors
s_j <= 1, so nothing overflows.  When both squares are normal numbers, the
squares, the sum and the sqrt round once each, and a term is within 2
units of roundoff (2.2e-16) relative.  A square is subnormal only for a
coordinate below 1.5e-154; its absolute error is then at most 2^-1075, and
the term is off by at most sqrt(2 * 2^-1075) < 3e-162 more, far below
1e-154.

`octagon_batch` fills the six minors into one (6, m) buffer.  The
octagon is the zonogon of the projected edge directions, so its area is
sum_{j<k} |p_jk|.  Its perimeter is 2 sum_j sqrt(1 - u_j^2 - v_j^2), the
projected edge lengths.  For an orthonormal pair Lagrange's identity gives
sum_k p_jk^2 = u_j^2 + v_j^2, and the six p_jk^2 sum to 1, so
1 - u_j^2 - v_j^2 is the sum of p^2 over the three pairs without j: a sum
of squares, which does not cancel as u_j^2 + v_j^2 -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DimensionError, checked_pair, coordinate_sum
from .specfun import gamma_fn

PLANE_TOL = 1e-10


class DegeneratePlaneError(ValueError):
    """Branch coefficient c too close to zero for the rational formulas."""


@dataclass(frozen=True)
class ShadowFunctionals:
    vl: float
    ar: float
    mw: float


@dataclass(frozen=True)
class OctagonCoeffs:
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c: float


def shadow_batch(x: np.ndarray, out=None) -> dict:
    """Per-direction vl, ar, mw arrays for a batch of unit directions x
    (n, m), one per column.

    c_{n-1} comes from the shape, so n >= 3 (`DimensionError` otherwise).
    Layout, buffers and error bound are in the module docstring.
    """
    n, m = x.shape
    coeff = segment_mw_coeff(n - 1)
    if out is None:
        rows, s, rest = np.empty((5, m)), np.empty((n, m)), np.empty((n, m))
    else:
        rows, s, rest = out
    vl, ar, mw, t, prefix = rows
    coordinate_sum(np.abs(x, out=s), vl)
    np.square(x, out=s)
    ar[...] = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            np.add(s[j], s[k], out=t)
            np.sqrt(t, out=t)
            ar += t
    ar *= 2.0
    # 1 - u_j^2 as the sum of the other squares: prefix (running) plus
    # suffix (rest[j] = s[j+1] + ... + s[n-1]), with no cancellation.
    rest[n - 1] = 0.0
    for j in range(n - 2, -1, -1):
        np.add(rest[j + 1], s[j + 1], out=rest[j])
    prefix[...] = 0.0
    mw[...] = 0.0
    for j in range(n):
        np.add(prefix, rest[j], out=t)
        np.sqrt(t, out=t)
        mw += t
        prefix += s[j]
    mw *= coeff
    return {"vl": vl, "ar": ar, "mw": mw}


def segment_mw_coeff(d: int) -> float:
    """Mean width of a unit segment in R^d: 2*kappa_{d-1} / (d*kappa_d).

    kappa_d is the unit-ball volume pi^{d/2} / Gamma(d/2 + 1).  Gives 2/pi,
    1/2, 4/(3*pi) for d = 2, 3, 4.
    """
    if d < 2:
        raise DimensionError(f"need d >= 2, got {d}")
    kappa_dm1 = math.pi ** ((d - 1) / 2.0) / gamma_fn((d - 1) / 2.0 + 1.0)
    kappa_d = math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0)
    return 2.0 * kappa_dm1 / (d * kappa_d)


def shadow_functionals(u) -> ShadowFunctionals:
    """All three corank-1 functionals at direction u, a batch of one."""
    q = shadow_batch(np.asarray(u, dtype=float)[:, None])
    return ShadowFunctionals(vl=float(q["vl"][0]), ar=float(q["ar"][0]),
                             mw=float(q["mw"][0]))


def shadow_volume(u) -> float:
    """Volume of the corank-1 shadow: sum of |u_j|."""
    return shadow_functionals(u).vl


def shadow_area(u) -> float:
    """Surface area of the corank-1 shadow: 2 sum_{j<k} sqrt(u_j^2 + u_k^2)."""
    return shadow_functionals(u).ar


def shadow_mean_width(u) -> float:
    """Mean width of the corank-1 shadow: c_{n-1} sum_j sqrt(1 - u_j^2)."""
    return shadow_functionals(u).mw


#: The six index pairs (j, k), j < k, in the order of the minors.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def octagon_batch(u: np.ndarray, v: np.ndarray,
                  out=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (perimeter, area) of the octagon for orthonormal pairs
    u, v (4, m), one pair per column.

    Both come from the minors p_jk = u_j v_k - u_k v_j; the buffers are in
    the module docstring.
    """
    m = u.shape[1]
    p, rows = (np.empty((6, m)), np.empty((3, m))) if out is None else out
    per, area, t = rows
    area[...] = 0.0
    for i, (j, k) in enumerate(PAIRS):
        np.multiply(u[j], v[k], out=p[i])
        np.multiply(u[k], v[j], out=t)
        p[i] -= t
        area += np.abs(p[i], out=t)
    np.square(p, out=p)
    per[...] = 0.0
    for j in range(4):
        a, b, c = (i for i, pair in enumerate(PAIRS) if j not in pair)
        np.add(p[a], p[b], out=t)
        t += p[c]
        per += np.sqrt(t, out=t)
    per *= 2.0
    return per, area


def octagon_perimeter(u, v) -> float:
    """Perimeter of the rank-2 octagonal shadow of the 4-cube.

    2 sum_j sqrt(1 - v_j^2 - u_j^2) for orthonormal u, v, a batch of one
    of `octagon_batch`; ranges over [4, 4*sqrt(2)].
    """
    u, v = checked_pair(u, v)
    return float(octagon_batch(u[:, None], v[:, None])[0][0])


def octagon_coefficients(u, v) -> OctagonCoeffs:
    """The seven scalars feeding the local octagon-area branch formulas."""
    u, v = checked_pair(u, v)
    x, y, z, w = u
    p, q, r, s = v
    return OctagonCoeffs(
        a1=r * y + s * y - q * z - s * z - q * w + r * w,
        a2=r * y - s * y - q * z - s * z + q * w + r * w,
        a3=r * y + s * y - q * z + s * z - q * w - r * w,
        b1=p * q - p * s + x * y - x * w,
        b2=p * q - p * r + x * y - x * z,
        b3=p * q + p * s + x * y + x * w,
        c=2.0 * (1.0 - p * p - x * x),
    )


#: Angle anchors (theta, phi, psi, kappa, lambda), radians, at which each
#: branch formula is known to hold on a neighborhood.
BRANCH_ANCHORS = {
    1: (1.0, 1.0, 1.0, 1.0, 1.0),
    2: (0.5, 0.5, 0.5, 0.5, 0.5),
    3: (0.75, 0.75, 0.75, 0.75, 0.75),
    4: (5 / 6, 5 / 6, 5 / 6, 5 / 6, 5 / 6),
    5: (7 / 8, 7 / 8, 7 / 8, 7 / 8, 7 / 8),
    6: (4 / 5, 1.0, 2 / 5, 3 / 5, 1 / 5),
}


def octagon_area_branch(branch: int, co: OctagonCoeffs) -> float:
    """Local octagon-area formula for the given branch index (1..6).

    Each branch is valid in a neighborhood of its anchor in BRANCH_ANCHORS;
    globally, branch selection is oracle-driven (see
    `hull.octagon_hull_measures`, whose area is the branch-free reference).
    """
    a1, a2, a3 = co.a1, co.a2, co.a3
    b1, b2 = co.b1, co.b2
    c = co.c
    if c <= PLANE_TOL:
        raise DegeneratePlaneError(f"c = {c} too small")
    if branch == 1:
        return (a1 * b2 + a2 * (c - b1 + b2) + a3 * b1) / c
    if branch == 2:
        return (a1 * b2 - a2 * (b1 - b2) + a3 * (c + b1)) / c
    if branch == 3:
        return (a1 * b2 - a2 * (c + b1 - b2) + a3 * b1) / c
    if branch == 4:
        return (-a1 * (c - b2) - a2 * (b1 - b2) + a3 * b1) / c
    if branch == 5:
        return (a1 * b2 - a2 * (b1 - b2) - a3 * (c - b1)) / c
    if branch == 6:
        return (a1 * (c + b2) - a2 * (b1 - b2) + a3 * b1) / c
    raise ValueError(f"branch index must be 1..6, got {branch}")
