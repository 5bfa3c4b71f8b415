"""Closed-form per-direction shadow functionals.

Corank-1 shadows of the centered unit n-cube are zonotopes, so their
volume, surface area and mean width are explicit in the coordinates of
the projection direction u:

    volume      = sum_j |u_j|
    area        = 2 sum_{j<k} sqrt(u_j^2 + u_k^2)
    mean width  = c_{n-1} sum_j sqrt(1 - u_j^2)

where c_d is the mean width of a unit segment in R^d.  Rank-2 shadows of
the 4-cube are octagons; their perimeter has a closed form and their area
is given locally by six rational branch formulas in seven scalars built
from the orthonormal pair (u, v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hull
from .geometry import cube_vertices
from .specfun import gamma_fn

ORTHO_TOL = 1e-10
PLANE_TOL = 1e-10


class OrthogonalityError(ValueError):
    """The rank-2 direction pair is not orthonormal."""


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


def shadow_volume(u) -> float:
    """Volume of the corank-1 shadow: sum of |u_j|."""
    return float(np.sum(np.abs(np.asarray(u, dtype=float))))


def shadow_area(u) -> float:
    """Surface area of the corank-1 shadow: 2 sum_{j<k} sqrt(u_j^2 + u_k^2)."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    total = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            total += math.hypot(u[j], u[k])
    return 2.0 * total


def segment_mw_coeff(d: int) -> float:
    """Mean width of a unit segment in R^d: 2*kappa_{d-1} / (d*kappa_d).

    kappa_d is the unit-ball volume pi^{d/2} / Gamma(d/2 + 1).  Gives 2/pi,
    1/2, 4/(3*pi) for d = 2, 3, 4.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    kappa_dm1 = math.pi ** ((d - 1) / 2.0) / gamma_fn((d - 1) / 2.0 + 1.0)
    kappa_d = math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0)
    return 2.0 * kappa_dm1 / (d * kappa_d)


def shadow_mean_width(u) -> float:
    """Mean width of the corank-1 shadow: c_{n-1} sum_j sqrt(1 - u_j^2).

    1 - u_j^2 is taken as the sum of the other squares, which for a unit u
    is the same number without the cancellation as |u_j| -> 1.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    coeff = segment_mw_coeff(n - 1)
    return coeff * float(np.sum(np.sqrt((1.0 - np.eye(n)) @ (u * u))))


def shadow_functionals(u) -> ShadowFunctionals:
    """All three corank-1 functionals at direction u."""
    return ShadowFunctionals(vl=shadow_volume(u), ar=shadow_area(u),
                             mw=shadow_mean_width(u))


def _check_pair(u: np.ndarray, v: np.ndarray) -> None:
    dot = abs(float(np.dot(u, v)))
    if dot > ORTHO_TOL:
        raise OrthogonalityError(f"|u.v| = {dot} exceeds {ORTHO_TOL}")


def octagon_perimeter(u, v) -> float:
    """Perimeter of the rank-2 octagonal shadow of the 4-cube.

    2 sum_j sqrt(1 - v_j^2 - u_j^2) for orthogonal unit vectors u, v;
    ranges over [4, 4*sqrt(2)].
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_pair(u, v)
    return 2.0 * float(np.sum(np.sqrt(np.clip(1.0 - u * u - v * v, 0.0, None))))


def octagon_coefficients(u, v) -> OctagonCoeffs:
    """The seven scalars feeding the local octagon-area branch formulas."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_pair(u, v)
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
    globally, branch selection is oracle-driven (see octagon_area_oracle).
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


def shadow_plane_basis(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (e, f) of the plane orthogonal to both u and v.

    Gram-Schmidt of the coordinate axes against {u, v}, keeping the two
    axes with the largest residual norms.  Any basis of the same plane
    yields identical shadow measures.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    resid = np.eye(4) - np.outer(u, u) - np.outer(v, v)
    norms = np.linalg.norm(resid, axis=0)
    j1 = int(norms.argmax())
    e = resid[:, j1] / norms[j1]
    resid2 = resid - np.outer(e, e @ resid)
    norms2 = np.linalg.norm(resid2, axis=0)
    j2 = int(norms2.argmax())
    f = resid2[:, j2] / norms2[j2]
    return e, f


def octagon_area_oracle(u, v) -> float:
    """Area of the rank-2 shadow by explicit projection and a 2D hull.

    Projects the 16 cube vertices onto an orthonormal basis of the plane
    orthogonal to span{u, v} and measures the hull; serves as the
    branch-independent reference.  Ranges over [1, 1 + sqrt(2)].
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_pair(u, v)
    e, f = shadow_plane_basis(u, v)
    pts = cube_vertices(4) @ np.column_stack([e, f])
    area, _ = hull.polygon_measures(hull.convex_hull_2d(pts))
    return area
