"""Closed-form per-direction shadow functionals.

Corank-1 shadows of the centered unit n-cube are zonotopes, so their
volume, surface area and mean width are explicit in the coordinates of
the projection direction u:

    volume      = sum_j |u_j|
    area        = 2 sum_{j<k} sqrt(u_j^2 + u_k^2)
    mean width  = c_{n-1} sum_j sqrt(1 - u_j^2)

where c_d is the mean width of a unit segment in R^d.  Rank-2 shadows of
the 4-cube, along the plane of an orthonormal pair (u, v), are octagons;
their perimeter and area are explicit in the point (x, y) of S^2 x S^2
that this plane is.

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

`shadow_batch` and `octagon_xy` take `out`: None, or the arrays the call
would allocate, so that a caller can reuse one set for every batch and
allocate nothing.  The same in-place code runs either way, and gives the same
bytes.  For `shadow_batch` it is (rows, s, rest): rows (5, m) receives
vl, ar and mw, and its last two rows are scratch; s and rest, (n, m),
hold the squares and their suffix sums.  |x| is formed and summed in s
before s = x**2.  x is last read then, so rest may share its memory.  For
`octagon_xy` it is four rows of length m: the first two receive perimeter
and area, and the last two are scratch.

Error of sqrt(s_j + s_k) against sqrt(u_j^2 + u_k^2): for unit vectors
s_j <= 1, so nothing overflows.  When both squares are normal numbers, the
squares, the sum and the sqrt round once each, and a term is within 2
units of roundoff (2.2e-16) relative.  A square is subnormal only for a
coordinate below 1.5e-154; its absolute error is then at most 2^-1075, and
the term is off by at most sqrt(2 * 2^-1075) < 3e-162 more, far below
1e-154.

The octagon is the zonogon of the projected edge directions.  With the
minors p_jk = u_j v_k - u_k v_j, the plane of (u, v) is the point
x = (p_12 + p_34, p_13 - p_24, p_14 + p_23),
y = (p_12 - p_34, p_13 + p_24, p_14 - p_23) of S^2 x S^2 (G(2, 4) is
(S^2 x S^2)/+-1; the p_jk^2 sum to 1 and p_12 p_34 - p_13 p_24 + p_14 p_23
is 0, so |x| = |y| = 1).  The area, sum_{j<k} |p_jk|, is
sum_i max(|x_i|, |y_i|), since |a + b| + |a - b| = 2 max(|a|, |b|).  The
two edges parallel to axis j have length sqrt(1 - u_j^2 - v_j^2) each,
and 1 - u_j^2 - v_j^2 is the sum of p^2 over the three pairs without j
(Lagrange's identity), so together they are |x - s y| for the sign vector
s of axis j in `SIGNS`: the perimeter is sum_s |x - s y|.
`octagon_xy` is the one kernel and takes (x, y), each (3, m); each term is
sqrt(sum_i (x_i - s_i y_i)^2), a sum of squares, which does not cancel as
x -> s y, where sqrt(2 - 2 x . s y) would.  `octagon_batch` forms x and y
from the minors of (u, v) and calls it.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DomainError, checked_pair, coordinate_sum


def shadow_batch(x: np.ndarray, out=None) -> dict:
    """Per-direction vl, ar, mw arrays for a batch of unit directions x
    (n, m), one per column.

    c_{n-1} comes from the shape, so n >= 3: fewer rows raise
    `DomainError`, "need n >= 3, got <n>".  Layout, buffers and error bound
    are in the module docstring.
    """
    n, m = x.shape
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
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
        raise DomainError(f"need d >= 2, got {d}")
    kappa_dm1 = math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0 + 1.0)
    kappa_d = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return 2.0 * kappa_dm1 / (d * kappa_d)


def _one(u, name: str) -> float:
    """Row `name` of `shadow_batch` at the one direction u."""
    return float(shadow_batch(np.asarray(u, dtype=float)[:, None])[name][0])


def shadow_volume(u) -> float:
    """Volume of the corank-1 shadow: sum of |u_j|."""
    return _one(u, "vl")


def shadow_area(u) -> float:
    """Surface area of the corank-1 shadow: 2 sum_{j<k} sqrt(u_j^2 + u_k^2)."""
    return _one(u, "ar")


def shadow_mean_width(u) -> float:
    """Mean width of the corank-1 shadow: c_{n-1} sum_j sqrt(1 - u_j^2)."""
    return _one(u, "mw")


#: The six index pairs (j, k), j < k, in the order of the minors.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: The sign vectors s of the perimeter terms |x - s y|, one per axis of the
#: 4-cube, in axis order.
SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def octagon_xy(x: np.ndarray, y: np.ndarray,
               out=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-plane (perimeter, area) of the octagon at the points (x, y) of
    S^2 x S^2, x and y (3, m), one plane per column.

    The one octagon kernel; coordinates and buffers are in the module
    docstring.
    """
    per, area, t, d = np.empty((4, x.shape[1])) if out is None else out
    area[...] = 0.0
    for i in range(3):
        area += np.maximum(np.abs(x[i], out=t), np.abs(y[i], out=d), out=t)
    per[...] = 0.0
    for sign in SIGNS:
        t[...] = 0.0
        for i, s in enumerate(sign):
            combine = np.subtract if s > 0 else np.add
            t += np.square(combine(x[i], y[i], out=d), out=d)
        per += np.sqrt(t, out=t)
    return per, area


def octagon_batch(u: np.ndarray,
                  v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (perimeter, area) of the octagon for orthonormal pairs
    u, v (4, m), one pair per column: `octagon_xy` at the (x, y) of the
    minors p_jk = u_j v_k - u_k v_j.
    """
    p = np.empty((6, u.shape[1]))
    for i, (j, k) in enumerate(PAIRS):
        np.subtract(u[j] * v[k], u[k] * v[j], out=p[i])
    p12, p13, p14, p23, p24, p34 = p
    x = np.stack([p12 + p34, p13 - p24, p14 + p23])
    y = np.stack([p12 - p34, p13 + p24, p14 - p23])
    return octagon_xy(x, y)


def octagon_perimeter(u, v) -> float:
    """Perimeter of the rank-2 octagonal shadow of the 4-cube.

    2 sum_j sqrt(1 - v_j^2 - u_j^2) for orthonormal u, v, a batch of one
    of `octagon_batch`; ranges over [4, 4*sqrt(2)].
    """
    u, v = checked_pair(u, v)
    return float(octagon_batch(u[:, None], v[:, None])[0][0])
