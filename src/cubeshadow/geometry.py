"""Direction sampling, spherical coordinates and projection frames.

Conventions: the cube has unit edge and is centered at the origin
(vertex coordinates are +-1/2).  Directions are unit vectors in R^n.
A corank-1 frame is an (n-1) x n row-orthonormal matrix whose rows span
the hyperplane orthogonal to a given direction.

`draw_blocks` is the one sampler, and it alone fixes the order in which a
stream is read: the Monte Carlo chunks of `moments` iterate it block by
block, and `sample_unit_vectors` is it with one block.  The frames are
`build_frames`, one Householder formula at every n, and `project_vertices`
takes one frame or a stack of them.  The two scalar entry points are
batches of one: `sample_unit_vector` of `sample_unit_vectors` (hull-dump
draws its direction as a batch of one of `sample_unit_vectors`) and
`build_frame` of `build_frames`.
`density4` is the density of the spherical angles of a uniform direction
of R^4, which the moment integrals of `quad` integrate against.

`checked_pair` is the one check of a rank-2 pair, shared by the octagon's
closed forms and its hull oracle.

`DomainError` is the one error of an argument check, in every module of
the package; it lives here, in the module that imports numpy only, so that
every other module can import it.
"""

from __future__ import annotations

import math

import numpy as np

ORTHO_TOL = 1e-10


class DomainError(ValueError):
    """An argument outside the domain of the function it is passed to: a
    dimension, a direction pair that is not orthonormal, a sample or worker
    count, a quadrature tolerance or weight, a special-function argument.
    The one type of every argument check of the package."""


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """The random stream keyed by (seed, index): an SFC64 generator seeded
    from the SeedSequence of `seed` spawned with key (index,), both taken
    mod 2**64.

    That is numpy's way of making parallel streams: streams of distinct
    keys are independent with overwhelming probability, and a stream
    depends on its key alone, so results are reproducible regardless of
    worker count or scheduling.
    """
    seq = np.random.SeedSequence(seed % 2**64, spawn_key=(index % 2**64,))
    return np.random.Generator(np.random.SFC64(seq))


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
        raise DomainError(f"need n >= 2, got {n}")
    v, sq, norms = np.empty((n, count)), np.empty(n * count), np.empty(count)
    for _ in draw_blocks(rng, count, max(count, 1),
                         lambda i, k: (v[:, i:i + k], sq[:n * k], norms[:k])):
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
    which the stream is read, into the memory of sq, and transposed once.
    Returns the indices of the columns whose norm is at most 1e-100: those
    are left unnormalized, for `draw_blocks` to draw again.
    """
    v, sq, norms = out
    n, k = v.shape
    draw = rng.standard_normal(out=sq.reshape(k, n))
    np.copyto(v, draw.T)
    _norms(v, draw.reshape(n, k), norms)
    short = np.flatnonzero(norms <= 1e-100)
    norms[short] = 1.0  # no 0/0: the column waits for its redraw
    np.divide(v, norms, out=v)
    return short


def complete_pairs(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per column, the unit v orthogonal to u: g less its component along u,
    normalized.  u and g are (n, m), one direction per column.

    Computed in place in g, which is returned.  For unit u and independent
    uniform g, (u, v) is a uniformly random orthonormal pair.
    """
    work, col = np.empty(g.shape), np.empty(g.shape[1])
    coordinate_sum(np.multiply(g, u, out=work), col)
    g -= np.multiply(col, u, out=work)
    _norms(g, work, col)
    return np.divide(g, col, out=g)


def checked_pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    """u and v as float arrays, (4,) or (m, 4), each row pair orthonormal:
    |u.v|, ||u|^2 - 1| and ||v|^2 - 1| at most ORTHO_TOL, or `DomainError`
    names the first that is not (NaN included), "<check> = <value> exceeds
    <ORTHO_TOL>"."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    checks = {"|u.v|": u[..., None, :] @ v[..., :, None],
              "||u|^2 - 1|": np.sum(u * u, axis=-1) - 1.0,
              "||v|^2 - 1|": np.sum(v * v, axis=-1) - 1.0}
    for name, values in checks.items():
        errors = np.abs(values).ravel()
        bad = np.flatnonzero(~(errors <= ORTHO_TOL))
        if len(bad):
            raise DomainError(
                f"{name} = {float(errors[bad[0]])} exceeds {ORTHO_TOL}")
    return u, v


def density4(sin_phi, sin_psi):
    """Joint density of the spherical angles (theta, phi, psi) of a uniform
    direction of R^4, (cos(theta) sin(phi) sin(psi), sin(theta) sin(phi)
    sin(psi), cos(phi) sin(psi), cos(psi)) with theta in [0, 2*pi) and phi,
    psi in [0, pi], from the sines of phi and psi; it does not depend on
    theta.  Elementwise over arrays: the moment integrands of `quad` call
    it on every level's nodes, with the sines they compute anyway."""
    return sin_phi * sin_psi ** 2 / (2.0 * math.pi**2)


def build_frames(u: np.ndarray) -> np.ndarray:
    """The rows, (m, n - 1, n), of orthonormal frames of the hyperplanes
    orthogonal to the unit directions u, (m, n), one per row, n >= 2.

    The frame of u is the Householder reflection H = I - 2 w w^T / |w|^2
    less its row p, where p is the coordinate of largest |u_p| and
    w = u + sign(u_p) e_p.  H is orthogonal and symmetric, and
    H e_p = -sign(u_p) u, so its other rows span the complement of u.
    |w|^2 = 2 (1 + |u_p|) >= 2, so no step cancels, at any direction.
    """
    u = np.asarray(u, dtype=float)
    m, n = u.shape
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    rows, p = np.arange(m), np.abs(u).argmax(axis=1)
    up = u[rows, p]
    w = u.copy()
    w[rows, p] += np.copysign(1.0, up)
    scale = 1.0 + np.abs(up)  # |w|^2 / 2
    h = np.eye(n) - w[:, :, None] * w[:, None, :] / scale[:, None, None]
    return h[np.arange(n) != p[:, None]].reshape(m, n - 1, n)


def build_frame(u: np.ndarray) -> np.ndarray:
    """The rows, (n - 1, n), of an orthonormal frame of the hyperplane
    orthogonal to the unit vector u, a batch of one of `build_frames`."""
    return build_frames(np.asarray(u, dtype=float)[None])[0]


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
