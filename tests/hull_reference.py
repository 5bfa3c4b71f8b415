"""The per-mesh hull oracle that the batch code of `hull` replaced, kept as
the reference: one cloud, one mesh, one polygon or one pair per call.

The batch must give the same bytes: the same vertices, face loops, edges and
normals, and measures equal with `==`.  Shared by the hull, hull-property,
octagon-property, geometry and moments tests.
"""

import math

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial.distance import cdist

from cubeshadow import geometry, hull
from cubeshadow.geometry import cube_vertices


def dedup(points, tol):
    close = cdist(points, points) <= tol
    first = np.argmax(close, axis=0)
    keep = first == np.arange(len(points))
    for j in np.flatnonzero(~keep[first]):
        keep[j] = not np.any(close[:j, j] & keep[:j])
    return points[keep]


def cross(a, b):
    i, j = [1, 2, 0], [2, 0, 1]
    return a[:, i] * b[:, j] - a[:, j] * b[:, i]


def affine_rank(points, tol=1e-9):
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    return int(np.sum(s > tol * scale))


def qhull(points, dim):
    pts = dedup(np.asarray(points, dtype=float), hull.DEDUP_TOL)
    rank = affine_rank(pts)
    if len(pts) <= dim or rank < dim:
        raise hull.FlatInputError(rank)
    return pts, rank, ConvexHull(pts)


def convex_hull_3d(points):
    pts, rank, qh = qhull(points, 3)
    eq = qh.equations
    first = np.argmax(cdist(eq, eq, "chebyshev") == 0.0, axis=0)
    is_first = first == np.arange(len(eq))
    leaders = np.flatnonzero(is_first)
    simplex_face = (np.cumsum(is_first) - 1)[first]

    on_hull = np.zeros(len(pts), dtype=bool)
    on_hull[qh.simplices] = True
    vertices = pts[on_hull]
    nv = len(vertices)

    incidence = np.zeros((len(leaders), nv), dtype=bool)
    incidence[simplex_face[:, None],
              (np.cumsum(on_hull) - 1)[qh.simplices]] = True
    inc_face, inc_vert = np.nonzero(incidence)
    counts = incidence.sum(axis=1)
    starts = np.cumsum(counts) - counts

    normals = eq[leaders, :3]
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    face_pts = vertices[inc_vert]
    center = np.add.reduceat(face_pts, starts, axis=0) / counts[:, None]
    b1 = face_pts[starts + 1] - face_pts[starts]
    b2 = cross(normals, b1)
    rel = face_pts - center[inc_face]
    ang = np.arctan2(np.sum(rel * b2[inc_face], axis=1),
                     np.sum(rel * b1[inc_face], axis=1))
    loops = inc_vert[np.lexsort((ang, inc_face))]
    flat = loops.tolist()
    faces = [flat[s:s + c] for s, c in zip(starts.tolist(), counts.tolist())]

    nxt = np.arange(1, len(loops) + 1)
    nxt[starts + counts - 1] = starts
    key = np.minimum(loops, loops[nxt]) * nv + np.maximum(loops, loops[nxt])
    order = np.lexsort((inc_face, key))
    keys, key_counts = np.unique(key[order], return_counts=True)
    bad = np.flatnonzero(key_counts != 2)
    if len(bad):
        a, b = divmod(int(keys[bad[0]]), nv)
        raise hull.FlatInputError(
            rank, f"edge ({a},{b}) borders {key_counts[bad[0]]} faces")
    edge_faces = inc_face[order].reshape(-1, 2).T
    edges = list(zip((keys // nv).tolist(), (keys % nv).tolist(),
                     edge_faces[0].tolist(), edge_faces[1].tolist()))
    return hull.PolyMesh(vertices=vertices, faces=faces, edges=edges,
                         face_normals=normals)


def mesh_measures(mesh):
    verts = mesh.vertices
    centroid = verts.sum(axis=0) / len(verts)
    fan = np.array([(face[0], a, b) for face in mesh.faces
                    for a, b in zip(face[1:-1], face[2:])])
    p0 = verts[fan[:, 0]]
    c = cross(verts[fan[:, 1]] - p0, verts[fan[:, 2]] - p0)
    area = 0.5 * float(np.sum(np.linalg.norm(c, axis=1)))
    dets = np.sum(c * (p0 - centroid), axis=1)
    volume = float(np.sum(np.abs(dets))) / 6.0
    edges = np.array(mesh.edges)
    lengths = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    na = mesh.face_normals[edges[:, 2]]
    nb = mesh.face_normals[edges[:, 3]]
    angles = 2.0 * np.arctan2(np.linalg.norm(na - nb, axis=1),
                              np.linalg.norm(na + nb, axis=1))
    mw = float(np.sum(lengths * angles)) / (4.0 * math.pi)
    return hull.MeshMeasures(volume=volume, area=area, mean_width=mw,
                             vertex_count=mesh.vertex_count,
                             edge_count=mesh.edge_count,
                             face_count=mesh.face_count)


def convex_hull_2d(points):
    pts, _, qh = qhull(points, 2)
    v = pts[qh.vertices]
    return hull.PolygonBatch(vertices=v, start=np.array([0, len(v)]))


def polygon_measures(poly):
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    area = 0.5 * abs(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    perimeter = float(np.sum(np.linalg.norm(nxt - v, axis=1)))
    return float(area), perimeter


def shadow_plane_basis(u, v):
    """The Gram-Schmidt basis (e, f) of the plane orthogonal to u and v that
    the composed Householder frames replaced: the residuals of the
    coordinate axes against {u, v}, keeping the two largest.  A test-only
    check that `plane_rows` spans the same plane."""
    resid = np.eye(4) - np.outer(u, u) - np.outer(v, v)
    norms = np.linalg.norm(resid, axis=0)
    j1 = int(norms.argmax())
    e = resid[:, j1] / norms[j1]
    resid2 = resid - np.outer(e, e @ resid)
    norms2 = np.linalg.norm(resid2, axis=0)
    j2 = int(norms2.argmax())
    f = resid2[:, j2] / norms2[j2]
    return e, f


def plane_rows(u, v):
    """The 2 x 4 orthonormal rows of the plane orthogonal to the pair (u, v):
    the frame of F v in R^3 composed with F = frame_rows(u)."""
    rows = frame_rows(u)
    return frame_rows((rows @ v[:, None])[:, 0]) @ rows


def octagon_hull_measures(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    dot = abs(float(np.dot(u, v)))
    if dot > geometry.ORTHO_TOL:
        raise geometry.DomainError(dot)
    pts = cube_vertices(4) @ plane_rows(u, v).T
    return polygon_measures(convex_hull_2d(pts))


def frame_rows(u):
    """The (n - 1) x n Householder frame of one unit direction of R^n: the
    reflection I - w w^T / (1 + |u_p|), w = u + sign(u_p) e_p, less row p,
    where p is the coordinate of largest |u_p|."""
    u = np.asarray(u, dtype=float)
    p = int(np.abs(u).argmax())
    w = u.copy()
    w[p] += math.copysign(1.0, u[p])
    h = np.eye(len(u)) - np.outer(w, w) / (1.0 + abs(u[p]))
    return np.delete(h, p, axis=0)


# The explicit 4D frame that the Householder frame replaced.  It takes
# sqrt(1 - x^2), whose rounding error relative to |(y, z, w)| is about
# 2e-16 / (1 - x^2); when 1 - x^2 is below CANCELLATION_TOL, or z^2 + w^2
# below DEGENERACY_TOL, it is built on a coordinate permutation of u.
DEGENERACY_TOL = 1e-12
CANCELLATION_TOL = 1e-3


def _corank1_rows_4d(u):
    x, y, z, w = u
    s1 = math.sqrt(1.0 - x * x)
    szw = math.sqrt(z * z + w * w)
    return np.array([
        [s1, -x * y / s1, -x * z / s1, -x * w / s1],
        [0.0, szw / s1, -y * z / (s1 * szw), -y * w / (s1 * szw)],
        [0.0, 0.0, w / szw, -z / szw],
    ])


def explicit_frame_rows(u):
    """The explicit 3 x 4 frame of one unit direction of R^4."""
    u = np.asarray(u, dtype=float)
    x = u[0]
    if 1.0 - x * x >= CANCELLATION_TOL and u[2] ** 2 + u[3] ** 2 >= DEGENERACY_TOL:
        return _corank1_rows_4d(u)
    perm = np.argsort(np.abs(u))
    rows = np.zeros((3, 4))
    rows[:, perm] = _corank1_rows_4d(u[perm])
    return rows


def assert_same_mesh(got, want):
    """Vertices, face loops, edges and normals equal, bit for bit."""
    assert np.array_equal(got.vertices, want.vertices)
    assert got.faces == want.faces
    assert got.edges == want.edges
    assert np.array_equal(got.face_normals, want.face_normals)
