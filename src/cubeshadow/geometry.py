"""Direction sampling, spherical coordinates and projection frames.

Conventions: the cube has unit edge and is centered at the origin
(vertex coordinates are +-1/2).  Directions are unit vectors in R^n.
A corank-1 frame is an (n-1) x n row-orthonormal matrix whose rows span
the hyperplane orthogonal to a given direction.

`draw_blocks` is the one sampler, and it alone fixes the order in which a
stream is read: the Monte Carlo chunks of `moments` iterate it block by
block, and `sample_unit_vectors` is it with one block.  Each scalar entry
point is a batch of one: `sample_unit_vector` of `sample_unit_vectors`,
`build_frame` (at n = 4) of `build_frames`, and `project_vertices` takes
one frame or a stack of them.

`checked_pair` is the one check of a rank-2 pair, shared by the octagon's
closed forms and its hull oracle.
"""

from __future__ import annotations

import math

import numpy as np

DEGENERACY_TOL = 1e-12
# The explicit 4D frame takes sqrt(1 - x^2), whose rounding error relative
# to |(y, z, w)| is about 2e-16 / (1 - x^2); below this bound the permuted
# frame, always well conditioned, is built instead, so every frame is
# orthonormal to about 3e-13.
CANCELLATION_TOL = 1e-3
ORTHO_TOL = 1e-10


class DimensionError(ValueError):
    """A cube, ambient or segment dimension outside the supported range."""


class OrthogonalityError(ValueError):
    """The rank-2 direction pair is not orthonormal."""


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, index).

    Streams for distinct indices are statistically independent, so results
    are reproducible regardless of worker count or scheduling.
    """
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random point on the unit sphere S^{n-1}, a batch of one of
    `sample_unit_vectors`: m calls give the m columns of one m-direction
    batch drawn from the same stream, byte for byte."""
    return sample_unit_vectors(n, 1, rng)[:, 0]


def coordinate_sum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sum of the k rows of `rows` (k, m), into `out` (m,), which is
    returned; `rows` is scratch and is overwritten.

    The additions are those of np.add.reduce(rows.T, axis=1), so the bits
    are too: from +0.0, in order below 8 rows; from 8 to 128 rows, eight
    accumulators over blocks of 8, combined as
    ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), then the last k mod 8
    rows in order; above 128, the sum of the first h rows plus the sum of the
    rest, h = k // 2 rounded down to a multiple of 8.  numpy's pairwise
    summation does that for each short row; here every addition runs
    along m contiguous elements.
    """
    # Starting from the first row instead of +0.0 changes a partial sum at
    # most in the sign of a zero; adding +0.0 at the end removes that.
    return np.add(_pairwise(rows), 0.0, out=out)


def _pairwise(rows: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the rows, formed in place; returns the row
    that holds it."""
    k = len(rows)
    if k > 128:
        h = k // 2 - k // 2 % 8
        first = _pairwise(rows[:h])
        first += _pairwise(rows[h:])
        return first
    acc = rows[:8]
    if k >= 8:
        tail = k - k % 8
        for i in range(8, tail, 8):
            acc += rows[i:i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
    else:
        tail = 1
    for row in rows[tail:]:
        acc[0] += row
    return acc[0]


def _norms(v: np.ndarray, sq: np.ndarray, norms: np.ndarray) -> None:
    """The norms of the directions v (n, m), one per column, into `norms`;
    sq, the shape of v, is scratch.  The bits are those of
    np.linalg.norm(v.T, axis=1), whose steps these are."""
    np.multiply(v, v, out=sq)
    coordinate_sum(sq, norms)
    np.sqrt(norms, out=norms)


def sample_unit_vectors(n: int, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Batch of `count` uniform directions, one per column: shape (n, count).

    Normalizes vectors of n independent standard Gaussians, which is
    rotation-invariant by construction: `draw_blocks` with one block.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    v, norms = np.empty((n, count)), np.empty(count)
    for _ in draw_blocks(rng, count, max(count, 1),
                         lambda i, k: (v[:, i:i + k], None, norms[:k])):
        pass
    return v


def draw_blocks(rng: np.random.Generator, m: int, block: int, into):
    """The one sampler: m uniform directions drawn from rng in blocks of at
    most `block`, a generator that fixes the order in which the stream is
    read.

    into(i, k) returns the buffers (v, sq, norms) of `draw_directions` for
    directions i to i + k.  Each block is drawn and normalized into them,
    then (i, k) is yielded.  After the last draw, each direction whose norm
    was at most 1e-100 is drawn again, in index order, into into(i, 1)
    until its norm exceeds 1e-100, then (i, 1) is yielded.  Every other
    direction is its Gaussian draw normalized.  numpy fills consecutive
    draws from one stream as it fills one draw of them all, so the bytes do
    not depend on `block`.  The buffers may be reused once the caller
    resumes the generator.
    """
    short = []
    for i in range(0, m, block):
        k = min(block, m - i)
        short.extend(i + draw_directions(rng, into(i, k)))
        yield i, k
    for i in short:
        while len(draw_directions(rng, into(i, 1))):
            pass
        yield i, 1


def draw_directions(rng: np.random.Generator, out) -> np.ndarray:
    """The draw-and-normalize step of `draw_blocks`, into out = (v, sq, norms).

    v (n, k), any view, receives k directions, one per column; sq, n k
    elements, C-contiguous, and norms (k,) are scratch.  The Gaussian block
    is drawn as (k, n), one direction per row, which fixes the order in
    which the stream is read, into the memory of sq (a new array when sq is
    None), and transposed once.
    Returns the indices of the columns whose norm is at most 1e-100: those
    are left unnormalized, for `draw_blocks` to draw again.
    """
    v, sq, norms = out
    n, k = v.shape
    draw = (rng.standard_normal((k, n)) if sq is None
            else rng.standard_normal(out=sq.reshape(k, n)))
    np.copyto(v, draw.T)
    _norms(v, draw.reshape(n, k), norms)
    short = np.flatnonzero(norms <= 1e-100)
    norms[short] = 1.0  # no 0/0: the column waits for its redraw
    np.divide(v, norms, out=v)
    return short


def complete_pairs(u: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """Per column, the unit v orthogonal to u: g less its component along u,
    normalized.  u and g are (n, m), one direction per column.

    Computed in place in g, which is returned.  For unit u and independent
    uniform g, (u, v) is a uniformly random orthonormal pair.  `out` is None
    or the scratch the call would allocate, (work, col): an array the shape
    of g and one of length m.
    """
    work, col = ((np.empty(g.shape), np.empty(g.shape[1])) if out is None
                 else out)
    coordinate_sum(np.multiply(g, u, out=work), col)
    g -= np.multiply(col, u, out=work)
    _norms(g, work, col)
    return np.divide(g, col, out=g)


def checked_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v as float arrays, (4,) or (m, 4), each row pair orthonormal:
    |u.v|, ||u|^2 - 1| and ||v|^2 - 1| at most ORTHO_TOL, or
    `OrthogonalityError` names the first that is not (NaN included)."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    checks = {"|u.v|": u[..., None, :] @ v[..., :, None],
              "||u|^2 - 1|": np.sum(u * u, axis=-1) - 1.0,
              "||v|^2 - 1|": np.sum(v * v, axis=-1) - 1.0}
    for name, values in checks.items():
        errors = np.abs(values).ravel()
        bad = np.flatnonzero(~(errors <= ORTHO_TOL))
        if len(bad):
            raise OrthogonalityError(
                f"{name} = {float(errors[bad[0]])} exceeds {ORTHO_TOL}")
    return u, v


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


def _corank1_rows_4d(u: np.ndarray) -> np.ndarray:
    """The explicit 3 x 4 frames, (m, 3, 4), for non-degenerate rows
    u = (x, y, z, w) of (m, 4)."""
    x, y, z, w = u.T
    s1 = np.sqrt(1.0 - x * x)
    szw = np.sqrt(z * z + w * w)
    zero = np.zeros(len(u))
    return np.stack([
        [s1, -x * y / s1, -x * z / s1, -x * w / s1],
        [zero, szw / s1, -y * z / (s1 * szw), -y * w / (s1 * szw)],
        [zero, zero, w / szw, -z / szw],
    ]).transpose(2, 0, 1)


def build_frames(u: np.ndarray) -> np.ndarray:
    """The rows, (m, 3, 4), of the frames of unit directions u, (m, 4).

    Generic rows get the explicit closed-form frame.  Degenerate directions
    (1 - x^2 or z^2 + w^2 near zero) get the frame of a coordinate
    permutation of u, with its columns permuted back; intrinsic shadow
    measures are unaffected.
    """
    x, z, w = u[:, 0], u[:, 2], u[:, 3]
    generic = ((1.0 - x * x >= CANCELLATION_TOL)
               & (z * z + w * w >= DEGENERACY_TOL))
    rows = np.empty((len(u), 3, 4))
    rows[generic] = _corank1_rows_4d(u[generic])
    odd = u[~generic]
    perm = np.argsort(np.abs(odd), axis=1)  # smallest |coord| first
    permuted = _corank1_rows_4d(np.take_along_axis(odd, perm, axis=1))
    # column perm[c] of a frame is column c of its permuted frame
    back = np.empty_like(permuted)
    back.transpose(0, 2, 1)[np.arange(len(odd))[:, None], perm] = \
        permuted.transpose(0, 2, 1)
    rows[~generic] = back
    return rows


def build_frame(u: np.ndarray) -> np.ndarray:
    """The rows, (n - 1, n), of an orthonormal frame of the hyperplane
    orthogonal to the unit vector u.

    For n = 4 this is a batch of one of `build_frames`.  Other n take a QR
    completion of u, the only frame for those n.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if n == 4:
        return build_frames(u[None])[0]
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(n)]))
    # first column of q is +-u; the remaining n-1 span the complement
    return q[:, 1:n].T


def cube_vertices(n: int) -> np.ndarray:
    """The 2^n vertices of the centered unit n-cube in canonical binary order.

    Vertex k has coordinate j equal to +1/2 when bit j of k is set.
    """
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return bits - 0.5


def project_vertices(rows: np.ndarray) -> np.ndarray:
    """Images of all cube vertices under the frame rows (n - 1, n), shape
    (2^n, n - 1); a stack of frames (..., n - 1, n) gives (..., 2^n, n - 1),
    one matrix product per frame."""
    return cube_vertices(rows.shape[-1]) @ np.swapaxes(rows, -1, -2)


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
