"""The row-major Monte Carlo kernels that the coordinate-major ones of
`geometry` and `functionals` replaced, kept as the reference: directions are
rows of (m, n), and every sum over the coordinates is np.add.reduce(axis=1).

The live kernels must give the same bytes; `mc_estimate` and `mc_octagon`
must equal, under ==, the chunk pipeline built from these.  The functions
below are copied unchanged from the last row-major revision, except
`octagon_xy`, the row-major form of the octagon kernel on S^2 x S^2.
`octagon_batch`, the octagon kernel on the six minors that `octagon_xy`
replaced, is the reference that `functionals.octagon_batch` is held to
within a few ulps.
"""

import numpy as np

from cubeshadow.functionals import PAIRS, segment_mw_coeff
from cubeshadow.geometry import DomainError, sample_unit_vector


def _row_norms(v: np.ndarray, sq: np.ndarray, norms: np.ndarray) -> None:
    """The norms of the rows of v, into `norms`; sq, the shape of v, is
    scratch.  The steps are those of np.linalg.norm(v, axis=1), so the
    bits are too."""
    np.multiply(v, v, out=sq)
    np.add.reduce(sq, axis=1, out=norms)
    np.sqrt(norms, out=norms)


def sample_unit_vectors(n: int, count: int, rng: np.random.Generator,
                        out=None) -> np.ndarray:
    """Batch of `count` uniform directions, shape (count, n).

    A row whose norm is at most 1e-100 is redrawn, after the batch, by
    `sample_unit_vector`; every other row is its Gaussian draw normalized.

    `out` is None or the arrays the call would allocate, (v, sq, norms) of
    shapes (count, n), (count, n) and (count,): the directions are drawn
    into v and returned in it; sq and norms are scratch.  The bytes are the
    same either way.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if out is None:
        v = rng.standard_normal((count, n))
        sq, norms = np.empty((count, n)), np.empty(count)
    else:
        v, sq, norms = out
        rng.standard_normal(out=v)
    _row_norms(v, sq, norms)
    for i in np.flatnonzero(norms <= 1e-100):
        v[i], norms[i] = sample_unit_vector(n, rng), 1.0
    return np.divide(v, norms[:, None], out=v)


def complete_pairs(u: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """Row-wise unit v orthogonal to u: g less its component along u, normalized.

    Computed in place in g, which is returned.  For unit rows u and
    independent uniform rows g, (u, v) is a uniformly random orthonormal pair.
    `out` is None or the scratch the call would allocate, (work, col): an
    array the shape of g and one of length len(g).
    """
    work, col = (np.empty(g.shape), np.empty(len(g))) if out is None else out
    np.add.reduce(np.multiply(g, u, out=work), axis=1, out=col)
    g -= np.multiply(col[:, None], u, out=work)
    _row_norms(g, work, col)
    return np.divide(g, col[:, None], out=g)


def shadow_batch(x: np.ndarray, out=None) -> dict:
    """Per-row vl, ar, mw arrays for a batch of unit directions x (m, n).

    c_{n-1} comes from the shape, so n >= 3 (`DomainError` otherwise).
    Layout, buffers and error bound are in the module docstring.
    """
    m, n = x.shape
    coeff = segment_mw_coeff(n - 1)
    if out is None:
        rows, s, rest = np.empty((5, m)), np.empty((n, m)), np.empty((n, m))
    else:
        rows, s, rest = out
    vl, ar, mw, t, prefix = rows
    np.add.reduce(np.abs(x, out=s.reshape(m, n)), axis=1, out=vl)
    np.square(x.T, out=s)
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


def octagon_batch(u: np.ndarray, v: np.ndarray,
                  out=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (perimeter, area) of the octagon for orthonormal pairs (m, 4).

    Both come from the minors p_jk = u_j v_k - u_k v_j; the buffers are in
    the module docstring.
    """
    m = len(u)
    p, rows = (np.empty((6, m)), np.empty((3, m))) if out is None else out
    per, area, t = rows
    area[...] = 0.0
    for i, (j, k) in enumerate(PAIRS):
        np.multiply(u[:, j], v[:, k], out=p[i])
        np.multiply(u[:, k], v[:, j], out=t)
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


def octagon_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (perimeter, area) of the octagon at the points (x, y) of
    S^2 x S^2, rows (m, 3): sum_s |x - s y| over the four sign vectors s,
    and sum_i max(|x_i|, |y_i|)."""
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    terms = np.square(x[:, None, :] - signs * y[:, None, :])
    per = np.add.reduce(np.sqrt(np.add.reduce(terms, axis=2)), axis=1)
    return per, np.add.reduce(np.maximum(np.abs(x), np.abs(y)), axis=1)
