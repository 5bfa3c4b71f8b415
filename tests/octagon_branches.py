"""The paper's six local branch formulas for the area of the rank-2 octagon.

The plane of an orthonormal pair (u, v) of R^4 is parameterized by five
angles: u = `spherical_to_cartesian4(theta, phi, psi)` and
v = `build_rank2_pair(u, kappa, lambda)`.  Near each anchor of
BRANCH_ANCHORS, the octagon's area is a rational function of seven scalars
built from (u, v), `octagon_coefficients`; which branch holds where is
known only locally, so the formulas are checked against the branch-free
hull oracle `hull.octagon_hull_batch` near their anchors, here at one pair
by `hull_octagon`.  The package computes the area with
`functionals.octagon_xy`, which has no branches.
"""

import math
from dataclasses import dataclass

import numpy as np

from cubeshadow import hull
from cubeshadow.geometry import checked_pair

PLANE_TOL = 1e-10


class DegeneratePlaneError(ValueError):
    """Branch coefficient c too close to zero for the rational formulas."""


@dataclass(frozen=True)
class OctagonCoeffs:
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    b3: float
    c: float


def spherical_to_cartesian4(theta: float, phi: float, psi: float) -> np.ndarray:
    """Map (theta, phi, psi) to a unit vector in R^4.

    x = cos(theta) sin(phi) sin(psi), y = sin(theta) sin(phi) sin(psi),
    z = cos(phi) sin(psi), w = cos(psi).
    """
    sp = math.sin(psi)
    return np.array([
        math.cos(theta) * math.sin(phi) * sp,
        math.sin(theta) * math.sin(phi) * sp,
        math.cos(phi) * sp,
        math.cos(psi),
    ])


def build_rank2_pair(u: np.ndarray, kappa: float, lam: float) -> np.ndarray:
    """Unit vector V orthogonal to u, parameterized by angles (kappa, lambda).

    V = cos(kappa) sin(lambda) (-y, x, -w, z)
      + sin(kappa) sin(lambda) (-z, w, x, -y)
      + cos(lambda) (-w, -z, y, x)

    The three basis vectors are orthonormal and orthogonal to u = (x,y,z,w),
    so V is a unit vector in the orthogonal complement of u.
    """
    x, y, z, w = np.asarray(u, dtype=float)
    e1 = np.array([-y, x, -w, z])
    e2 = np.array([-z, w, x, -y])
    e3 = np.array([-w, -z, y, x])
    return (math.cos(kappa) * math.sin(lam) * e1
            + math.sin(kappa) * math.sin(lam) * e2
            + math.cos(lam) * e3)


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
    `hull.octagon_hull_batch`, whose area is the branch-free reference).
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


def hull_octagon(u, v) -> tuple[float, float]:
    """(area, perimeter) of the one pair (u, v) by the hull oracle
    `hull.octagon_hull_batch`."""
    (area,), (perimeter,) = hull.octagon_hull_batch(
        np.asarray(u, dtype=float)[None], np.asarray(v, dtype=float)[None])
    return area, perimeter
