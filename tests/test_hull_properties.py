"""Property tests of the hull oracle on degenerate and near-degenerate
directions of the 4-cube's corank-1 shadow.

Each drawn direction is checked four ways: the projection frame is
orthonormal and annihilates u, the mesh measures match the closed forms of
`functionals`, the mesh volume and area match Qhull's own
`ConvexHull.volume` / `.area` of the undeduplicated cloud, and frame, mesh
and measures are those of the per-mesh reference code, bit for bit, both
alone and second in a batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hull_reference
from cubeshadow import functionals, geometry, hull

# CLOSED_FORM_TOL is the criterion of `moments.hull_cross_check`.  The mesh
# is built from the deduplicated cloud and Qhull's measures from the whole
# one; merging points within DEDUP_TOL moves a measure by a small multiple
# of DEDUP_TOL.
CLOSED_FORM_TOL = 1e-9
QHULL_TOL = 1e-10
FRAME_TOL = 1e-15

# Combinatorics (V, E, F) by the number of zero coordinates: the generic
# rhombic dodecahedron, a hexagonal prism, then a box (two zeros) or the
# unit 3-cube itself (axis-aligned).
COMBINATORICS = {0: (14, 24, 12), 1: (12, 18, 8), 2: (8, 12, 6), 3: (8, 12, 6)}
RESOLVED = 1e-9
# A generic shadow that precedes each drawn cloud in a batch of two.
NEIGHBOUR = geometry.project_vertices(geometry.build_frame(
    geometry.sample_unit_vector(4, geometry.stream(21))))

magnitudes = st.floats(min_value=-16.0, max_value=0.0).map(lambda t: 10.0 ** t)
signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4)


@st.composite
def repeated_coordinates(draw):
    """Directions whose |coordinates| come from a pool of at most three
    values, zero included: axis-aligned, prisms, and equal magnitudes."""
    pool = draw(st.lists(st.just(0.0) | magnitudes, min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=4)
                 .filter(lambda p: any(p)))
    u = np.array(picks) * np.array(draw(signs))
    return u / np.linalg.norm(u)


@st.composite
def near_axis(draw):
    """|u_j| -> 1: the axis e_j tilted by 10^-16 .. 10^-1."""
    eps = 10.0 ** draw(st.floats(min_value=-16.0, max_value=-1.0))
    tilt = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    u = np.insert(eps * np.array(tilt), draw(st.integers(0, 3)), 1.0)
    u = u * np.array(draw(signs))
    return u / np.linalg.norm(u)


def check_direction(u):
    frame = geometry.build_frame(u)
    assert np.abs(frame @ frame.T - np.eye(3)).max() < FRAME_TOL
    assert np.abs(frame @ u).max() < FRAME_TOL

    pts = geometry.project_vertices(frame)
    mesh = hull.convex_hull_3d(pts)
    m = hull.mesh_measures(mesh)
    assert mesh.euler_characteristic == 2
    assert abs(m.volume - functionals.shadow_volume(u)) < CLOSED_FORM_TOL
    assert abs(m.area - functionals.shadow_area(u)) < CLOSED_FORM_TOL
    assert abs(m.mean_width - functionals.shadow_mean_width(u)) < CLOSED_FORM_TOL

    qhull = hull.ConvexHull(pts)
    assert abs(m.volume - qhull.volume) < QHULL_TOL
    assert abs(m.area - qhull.area) < QHULL_TOL

    # the same bytes as the per-mesh code, alone and behind a neighbour
    assert np.array_equal(frame, hull_reference.frame_rows(u))
    want = hull_reference.convex_hull_3d(pts)
    hull_reference.assert_same_mesh(mesh, want)
    assert m == hull_reference.mesh_measures(want)
    batch = hull.convex_hulls_3d(np.stack([NEIGHBOUR, pts]))
    hull_reference.assert_same_mesh(batch.mesh(1), want)
    assert tuple(np.array(batch.measures())[:, 1]) == (m.volume, m.area,
                                                      m.mean_width)
    return mesh


@settings(max_examples=300, deadline=None, derandomize=True)
@given(repeated_coordinates())
def test_repeated_coordinates(u):
    mesh = check_direction(u)
    nonzero = np.abs(u[u != 0.0])
    # Faces thinner than Qhull's round-off are merged into their neighbours,
    # so only coordinates well above it fix the combinatorics.
    if nonzero.min() >= RESOLVED:
        assert (mesh.vertex_count, mesh.edge_count,
                mesh.face_count) == COMBINATORICS[4 - len(nonzero)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.sampled_from([-1.0, 1.0]))
def test_axis_aligned_is_unit_cube(axis, sign):
    u = np.zeros(4)
    u[axis] = sign
    mesh = check_direction(u)
    m = hull.mesh_measures(mesh)
    assert (m.vertex_count, m.edge_count, m.face_count) == (8, 12, 6)
    assert abs(m.volume - 1.0) < 1e-14
    assert abs(m.area - 6.0) < 1e-14
    assert abs(m.mean_width - 1.5) < 1e-14


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_axis())
def test_near_axis(u):
    check_direction(u)
