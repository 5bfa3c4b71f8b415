"""Convex hulls of projected vertex clouds and their intrinsic measures.

3D hulls are built with Qhull and post-processed: coplanar triangles are
merged back into polygonal faces (shadows of the 4-cube are zonotopes, so
generic faces are parallelograms), edges are recovered with their two
adjacent faces, and volume / surface area / mean width are extracted.

The post-processing is array code over one mesh at a time:

- Deduplication reads one pairwise-distance matrix: a point is dropped
  when it lies within DEDUP_TOL of an earlier kept point.
- Coplanar grouping reads one matrix of pairwise equality of Qhull's plane
  equations.  Qhull merges coplanar facets (its default pre-merge, C-0)
  and splits each merged facet into simplices that carry the facet's
  equation unchanged, so equal rows are exactly the faces.  A face is
  numbered by its first simplex, in Qhull's order.  A tolerance on normals
  and offsets would merge Qhull facets only in part for directions within
  about 1e-9 of a coordinate hyperplane.
- Each face's vertices are ordered by one lexsort over (face, angle about
  the face centre) incidences; edges are the loop edges keyed by their
  sorted ends, and np.unique must count every key exactly twice.
- Volume, area and mean width are sums over all fan triangles and all
  edges at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

DEDUP_TOL = 1e-12


class FlatInputError(ValueError):
    """Input point cloud is not full-dimensional."""

    def __init__(self, affine_rank: int, message: str | None = None):
        self.affine_rank = affine_rank
        super().__init__(message or f"flat input, affine rank {affine_rank}")


@dataclass(frozen=True)
class PolyMesh:
    """Closed convex polyhedral surface.

    faces are outward-oriented vertex-index loops; edges are
    (v0, v1, face_a, face_b) with v0 < v1.
    """

    vertices: np.ndarray
    faces: list
    edges: list
    face_normals: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count


@dataclass(frozen=True)
class MeshMeasures:
    volume: float
    area: float
    mean_width: float
    vertex_count: int
    edge_count: int
    face_count: int


@dataclass(frozen=True)
class Polygon2D:
    """Strictly convex polygon, vertices in counterclockwise order."""

    vertices: np.ndarray


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop each point within tol of an earlier kept point."""
    close = cdist(points, points) <= tol
    first = np.argmax(close, axis=0)  # earliest point within tol of each
    keep = first == np.arange(len(points))
    # A point is dropped when its earliest close point is kept.  When that
    # point was dropped itself (a chain a~b~c with a and c apart), the
    # greedy rule is applied in index order.
    for j in np.flatnonzero(~keep[first]):
        keep[j] = not np.any(close[:j, j] & keep[:j])
    return points[keep]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (m, 3) arrays, bit-identical to np.cross,
    whose axis handling costs more than the product for one mesh's rows."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[:, i] * b[:, j] - a[:, j] * b[:, i]


def _affine_rank(points: np.ndarray, tol: float = 1e-9) -> int:
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    return int(np.sum(s > tol * scale))


def convex_hull_3d(points) -> PolyMesh:
    """Convex hull of a 3D point cloud as a coplanar-merged polygonal mesh.

    Raises FlatInputError when the deduplicated cloud is not
    full-dimensional (degenerate projection direction upstream).
    """
    pts = np.asarray(points, dtype=float)
    pts = _dedup(pts, DEDUP_TOL)
    if len(pts) < 4:
        raise FlatInputError(_affine_rank(pts))
    rank = _affine_rank(pts)
    if rank < 3:
        raise FlatInputError(rank)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:  # pragma: no cover - rank check catches first
        raise FlatInputError(rank, str(exc)) from exc

    # A face is a set of equal rows of hull.equations (one Qhull facet),
    # numbered by its first simplex.
    eq = hull.equations
    first = np.argmax(cdist(eq, eq, "chebyshev") == 0.0, axis=0)
    is_first = first == np.arange(len(eq))
    leaders = np.flatnonzero(is_first)
    simplex_face = (np.cumsum(is_first) - 1)[first]

    on_hull = np.zeros(len(pts), dtype=bool)
    on_hull[hull.simplices] = True
    vertices = pts[on_hull]
    nv = len(vertices)

    # Face-vertex incidences, read out sorted by face and then by vertex.
    incidence = np.zeros((len(leaders), nv), dtype=bool)
    incidence[simplex_face[:, None],
              (np.cumsum(on_hull) - 1)[hull.simplices]] = True
    inc_face, inc_vert = np.nonzero(incidence)
    counts = incidence.sum(axis=1)
    starts = np.cumsum(counts) - counts

    # Order each face's vertices by the angle of (vertex - centre) from b1,
    # the direction of its first two vertices, towards n x b1.
    normals = eq[leaders, :3]
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    face_pts = vertices[inc_vert]
    center = np.add.reduceat(face_pts, starts, axis=0) / counts[:, None]
    b1 = face_pts[starts + 1] - face_pts[starts]
    b2 = _cross(normals, b1)
    rel = face_pts - center[inc_face]
    ang = np.arctan2(np.sum(rel * b2[inc_face], axis=1),
                     np.sum(rel * b1[inc_face], axis=1))
    loops = inc_vert[np.lexsort((ang, inc_face))]
    flat = loops.tolist()
    faces = [flat[s:s + c] for s, c in zip(starts.tolist(), counts.tolist())]

    # Each loop edge (v, next v) is keyed by its sorted ends; a closed
    # surface has every key exactly twice, once per adjacent face.
    nxt = np.arange(1, len(loops) + 1)
    nxt[starts + counts - 1] = starts
    key = np.minimum(loops, loops[nxt]) * nv + np.maximum(loops, loops[nxt])
    order = np.lexsort((inc_face, key))
    keys, key_counts = np.unique(key[order], return_counts=True)
    bad = np.flatnonzero(key_counts != 2)
    if len(bad):
        a, b = divmod(int(keys[bad[0]]), nv)
        raise FlatInputError(
            rank, f"edge ({a},{b}) borders {key_counts[bad[0]]} faces")
    edge_faces = inc_face[order].reshape(-1, 2).T
    edges = list(zip((keys // nv).tolist(), (keys % nv).tolist(),
                     edge_faces[0].tolist(), edge_faces[1].tolist()))

    return PolyMesh(vertices=vertices, faces=faces, edges=edges,
                    face_normals=normals)


def mesh_measures(mesh: PolyMesh) -> MeshMeasures:
    """Volume, surface area and mean width of a convex PolyMesh.

    Volume: signed tetrahedra fanned from the centroid.  Area: summed
    polygon areas.  Mean width: sum over edges of length times the angle
    between the adjacent outward face normals, divided by 4*pi (exact for
    convex polytopes; the unit cube gives 3/2).
    """
    verts = mesh.vertices
    centroid = verts.sum(axis=0) / len(verts)

    # Fan triangles (f[0], f[i], f[i+1]) of every face.
    fan = np.array([(face[0], a, b) for face in mesh.faces
                    for a, b in zip(face[1:-1], face[2:])])
    p0 = verts[fan[:, 0]]
    cross = _cross(verts[fan[:, 1]] - p0, verts[fan[:, 2]] - p0)
    area = 0.5 * float(np.sum(np.linalg.norm(cross, axis=1)))
    # det(p0 - c, a - c, b - c) = (p0 - c) . ((a - p0) x (b - p0))
    dets = np.sum(cross * (p0 - centroid), axis=1)
    volume = float(np.sum(np.abs(dets))) / 6.0

    edges = np.array(mesh.edges)
    lengths = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
    na = mesh.face_normals[edges[:, 2]]
    nb = mesh.face_normals[edges[:, 3]]
    # The angle between unit normals as 2 atan2(|na - nb|, |na + nb|) stays
    # accurate where arccos(na . nb) loses digits, between nearly coplanar
    # faces.
    angles = 2.0 * np.arctan2(np.linalg.norm(na - nb, axis=1),
                              np.linalg.norm(na + nb, axis=1))
    mw = float(np.sum(lengths * angles)) / (4.0 * math.pi)

    return MeshMeasures(volume=volume, area=area, mean_width=mw,
                        vertex_count=mesh.vertex_count,
                        edge_count=mesh.edge_count,
                        face_count=mesh.face_count)


def convex_hull_2d(points) -> Polygon2D:
    """Convex hull of a planar point cloud as a CCW polygon."""
    pts = np.asarray(points, dtype=float)
    pts = _dedup(pts, DEDUP_TOL)
    if len(pts) < 3:
        raise FlatInputError(_affine_rank(pts))
    rank = _affine_rank(pts)
    if rank < 2:
        raise FlatInputError(rank)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:  # pragma: no cover
        raise FlatInputError(rank, str(exc)) from exc
    return Polygon2D(vertices=pts[hull.vertices])  # already CCW


def polygon_measures(poly: Polygon2D) -> tuple[float, float]:
    """(area, perimeter) of a convex polygon by shoelace and edge sum."""
    v = poly.vertices
    nxt = np.roll(v, -1, axis=0)
    area = 0.5 * abs(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))
    perimeter = float(np.sum(np.linalg.norm(nxt - v, axis=1)))
    return float(area), perimeter


def to_off(mesh: PolyMesh) -> str:
    """OFF-format text dump of a PolyMesh for external viewers."""
    lines = ["OFF", f"{mesh.vertex_count} {mesh.face_count} {mesh.edge_count}"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for face in mesh.faces:
        lines.append(" ".join([str(len(face))] + [str(i) for i in face]))
    return "\n".join(lines) + "\n"
