"""Direction sampling, spherical coordinates and projection frames.

Conventions: the cube has unit edge and is centered at the origin
(vertex coordinates are +-1/2).  Directions are unit vectors in R^n.
A corank-1 frame is an (n-1) x n row-orthonormal matrix whose rows span
the hyperplane orthogonal to a given direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGENERACY_TOL = 1e-12
# The explicit 4D frame takes sqrt(1 - x^2), whose rounding error relative
# to |(y, z, w)| is about 2e-16 / (1 - x^2); below this bound the permuted
# frame, always well conditioned, is built instead, so every frame is
# orthonormal to about 3e-13.
CANCELLATION_TOL = 1e-3


class DimensionError(ValueError):
    """Ambient dimension outside the supported range."""


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, index).

    Streams for distinct indices are statistically independent, so results
    are reproducible regardless of worker count or scheduling.
    """
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on the unit sphere S^{n-1}.

    Normalizes a vector of n independent standard Gaussians, which is
    rotation-invariant by construction.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    while True:
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        if norm > 1e-100:
            return v / norm


def sample_unit_vectors(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of `count` uniform directions, shape (count, n).

    A row whose norm is at most 1e-100 is redrawn, after the batch, by
    `sample_unit_vector`; every other row is its Gaussian draw normalized.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    v = rng.standard_normal((count, n))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    for i in np.flatnonzero(norms[:, 0] <= 1e-100):
        v[i], norms[i] = sample_unit_vector(n, rng), 1.0
    return v / norms


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


@dataclass(frozen=True)
class ProjectionFrame:
    """Row-orthonormal (n-1) x n matrix annihilating `normal`."""

    rows: np.ndarray
    normal: np.ndarray

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def _corank1_rows_4d(u: np.ndarray) -> np.ndarray:
    """The explicit 3 x 4 frame for a non-degenerate direction u = (x,y,z,w)."""
    x, y, z, w = u
    s1 = math.sqrt(1.0 - x * x)
    szw = math.sqrt(z * z + w * w)
    return np.array([
        [s1, -x * y / s1, -x * z / s1, -x * w / s1],
        [0.0, szw / s1, -y * z / (s1 * szw), -y * w / (s1 * szw)],
        [0.0, 0.0, w / szw, -z / szw],
    ])


def build_frame(u: np.ndarray) -> ProjectionFrame:
    """Orthonormal frame of the hyperplane orthogonal to unit vector u.

    For n = 4 and generic u the rows are the explicit closed-form frame.
    Degenerate directions (1 - x^2 or z^2 + w^2 near zero) are handled by
    building the frame for a coordinate permutation of u and permuting the
    columns back; intrinsic shadow measures are unaffected.  Other n fall
    back to a QR completion of u.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if n != 4:
        if n < 2:
            raise DimensionError(f"need n >= 2, got {n}")
        q, _ = np.linalg.qr(np.column_stack([u, np.eye(n)]))
        # first column of q is +-u; the remaining n-1 span the complement
        return ProjectionFrame(rows=q[:, 1:n].T, normal=u)
    x = u[0]
    if 1.0 - x * x >= CANCELLATION_TOL and u[2] ** 2 + u[3] ** 2 >= DEGENERACY_TOL:
        return ProjectionFrame(rows=_corank1_rows_4d(u), normal=u)
    perm = np.argsort(np.abs(u))  # smallest |coord| first; two largest last
    rows_p = _corank1_rows_4d(u[perm])
    rows = np.zeros((3, 4))
    rows[:, perm] = rows_p
    return ProjectionFrame(rows=rows, normal=u)


def cube_vertices(n: int) -> np.ndarray:
    """The 2^n vertices of the centered unit n-cube in canonical binary order.

    Vertex k has coordinate j equal to +1/2 when bit j of k is set.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return bits - 0.5


def project_vertices(frame: ProjectionFrame) -> np.ndarray:
    """Images of all cube vertices under the frame, shape (2^n, n-1)."""
    n = frame.n
    return cube_vertices(n) @ frame.rows.T


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
