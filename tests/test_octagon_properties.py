"""Property tests of the octagon kernel on degenerate and near-degenerate
orthonormal pairs of the 4-cube's rank-2 shadow.

Each drawn pair (u, v) is checked three ways.  `octagon_batch`, the kernel
`octagon_xy` at the (x, y) of the minors, must be within MINORS_ULPS units
in the last place of the minors kernel it replaced, kept in `mc_reference`.
It must match the 2D hull of the projected vertices within HULL_TOL, and
both must lie in their ranges, [4, 4 sqrt(2)] and [1, 1 + sqrt(2)].  The
hull's measures must be those of the per-pair reference code, bit for bit,
both alone and second in a batch, and the plane it projects on must be the
plane of the Gram-Schmidt basis it replaced.

v is a combination of the orthonormal basis of u's complement
(-y, x, -w, z), (-z, w, x, -y), (-w, -z, y, x), so zeros and repeated
magnitudes of u carry over to v, and a u tilted from an axis gives a v
tilted from another axis.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hull_reference
import mc_reference
from cubeshadow import functionals, hull

HULL_TOL = 1e-12
RANGE_TOL = 1e-12
# Both kernels round each minor once.  x_i = p_a + p_b and y_i = p_a - p_b
# round once more, so a component of x - s y is off by a few 1e-16, and a
# perimeter term |x - s y| by about 4e-16 absolute, where the minors kernel
# had sqrt of a sum of squares of the minors; the area's max(|x_i|, |y_i|)
# is |p_a| + |p_b| rounded once, as the old sum rounds it.  Seen: at most 2
# on the pairs drawn here, and 3 on 2 10^5 uniform pairs.
MINORS_ULPS = 8

magnitudes = st.floats(min_value=-16.0, max_value=0.0).map(lambda t: 10.0 ** t)


def signed(n):
    return st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)


@st.composite
def repeated(draw, n):
    """n values from a pool of at most three magnitudes, zero included,
    not all zero."""
    pool = draw(st.lists(st.just(0.0) | magnitudes, min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)
                 .filter(lambda p: any(p)))
    return np.array(picks) * np.array(draw(signed(n)))


@st.composite
def tilted_axis(draw, n):
    """An axis e_j of R^n tilted by 10^-100 .. 10^-4."""
    eps = 10.0 ** draw(st.floats(min_value=-100.0, max_value=-4.0))
    tilt = draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))
    u = np.insert(eps * np.array(tilt), draw(st.integers(0, n - 1)), 1.0)
    return u * np.array(draw(signed(n)))


def pair(u, weights):
    u = u / np.linalg.norm(u)
    x, y, z, w = u
    basis = np.array([[-y, x, -w, z], [-z, w, x, -y], [-w, -z, y, x]])
    return u, weights @ basis / np.linalg.norm(weights)


# A generic pair that precedes each drawn pair in a batch of two.
NEIGHBOUR = pair(np.array([0.1, -0.4, 0.7, 0.2]), np.array([0.3, 0.5, -0.6]))


def check_pair(u, v):
    per, area = functionals.octagon_batch(u[:, None], v[:, None])
    old_per, old_area = mc_reference.octagon_batch(u[None], v[None])
    assert abs(per[0] - old_per[0]) <= MINORS_ULPS * np.spacing(old_per[0])
    assert abs(area[0] - old_area[0]) <= MINORS_ULPS * np.spacing(old_area[0])
    (hull_area,), (hull_per,) = hull.octagon_hull_batch(u[None], v[None])
    # the same bytes as the per-pair code, alone and behind a neighbour
    want = hull_reference.octagon_hull_measures(u, v)
    assert (hull_area, hull_per) == want
    batch = hull.octagon_hull_batch(np.stack([NEIGHBOUR[0], u]),
                                    np.stack([NEIGHBOUR[1], v]))
    assert (batch[0][1], batch[1][1]) == want
    # the composed frames span the plane of the Gram-Schmidt basis
    q = hull_reference.plane_rows(u, v) @ np.column_stack(
        hull_reference.shadow_plane_basis(u, v))
    assert np.abs(q @ q.T - np.eye(2)).max() < 1e-12
    assert abs(per[0] - hull_per) < HULL_TOL
    assert abs(area[0] - hull_area) < HULL_TOL
    assert 4.0 - RANGE_TOL <= per[0] <= 4.0 * math.sqrt(2.0) + RANGE_TOL
    assert 1.0 - RANGE_TOL <= area[0] <= 1.0 + math.sqrt(2.0) + RANGE_TOL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(repeated(4), repeated(3))
def test_zeros_and_repeated_coordinates(u, weights):
    check_pair(*pair(u, weights))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tilted_axis(4), repeated(3))
def test_tilted_from_an_axis(u, weights):
    check_pair(*pair(u, weights))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tilted_axis(4), tilted_axis(3))
# Edges 0, eps, 1 and about 1: an edge of 5.6e-13 is real and counts in the
# perimeter, 4 + 2 eps.
@example(np.array([-1.0, -0.0, -0.0, -0.0]),
         np.array([-1.0, -0.0, -5.62341325e-13]))
def test_both_tilted_from_axes(u, weights):
    # v is one complement vector of u tilted towards the other two
    check_pair(*pair(u, weights))
