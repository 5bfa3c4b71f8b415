"""Convex hulls of projected vertex clouds and their intrinsic measures.

This is the one hull oracle of the package: the shadows of the 4-cube
measured from explicit hulls of their projected vertices, independently of
the closed forms of `functionals`, which this module does not import.  It
has two pipelines.  `shadow_hulls` takes corank-1 directions through
`geometry`'s frames and projection to 3D hulls; `octagon_hull_batch` takes
rank-2 pairs through two composed frames and the same projection to 2D
hulls.

3D hulls are built with Qhull and post-processed: coplanar triangles are
merged back into polygonal faces (shadows of the 4-cube are zonotopes, so
generic faces are parallelograms), edges are recovered with their two
adjacent faces, and volume / surface area / mean width are extracted.

Hulls come in batches: the clouds of a batch are stacked, (m, k, dim).
Qhull runs once per cloud; every other step runs once over the whole
batch, on arrays that concatenate all clouds, meshes or polygons and are
keyed by hull index.  There is one type per kind of hull, `MeshBatch` in
3D and `PolygonBatch` in 2D, and a single hull is a batch of one:
`convex_hull_3d` and `convex_hull_2d` return one, and `mesh_measures`,
`PolygonBatch.measures` and `to_off` read any batch.

- Deduplication reads one pairwise-distance array: a point is dropped
  when it lies within DEDUP_TOL of an earlier kept point of its cloud.
  A dropped point is within DEDUP_TOL of a kept one, so by the triangle
  inequality its merge shortens the boundary by at most 2 DEDUP_TOL: a
  perimeter or an edge-length sum moves by at most 2 DEDUP_TOL per merged
  edge, and a real edge shorter than DEDUP_TOL vanishes.  The affine
  ranks of all clouds are one stacked SVD of the clouds as given, since
  duplicate points do not change an affine span.
- Coplanar grouping is one lexsort of Qhull's plane equations keyed by
  hull.  Qhull merges coplanar facets (its default pre-merge, C-0) and
  splits each merged facet into simplices that carry the facet's equation
  unchanged, so equal rows of one hull are exactly its faces.  A face is
  numbered by its first simplex, in Qhull's order.  A tolerance on normals
  and offsets would merge Qhull facets only in part for directions within
  about 1e-9 of a coordinate hyperplane.
- Each face's vertices are ordered by one lexsort over (face, angle about
  the face centre) incidences; edges are the loop edges keyed by their
  sorted ends, and np.unique must count every key exactly twice.
- Volume, area and mean width come from all fan triangles and all edges
  at once; the terms of the hulls with one count are summed together along
  their own axis, which adds in the order of the sum over one mesh.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import geometry

DEDUP_TOL = 1e-14


class FlatInputError(ValueError):
    """Input point cloud is not full-dimensional.

    `reason` says what failed and `index` is the position of the failing
    cloud in its batch.  The message is `reason`, then "in hull <index>"
    when the batch holds more than one cloud (`named`), then `handle`,
    what replays the failing cloud, when one is given.  It pickles as its
    constructor arguments, so it crosses from a pool worker unchanged.
    """

    def __init__(self, affine_rank: int, reason: str | None = None,
                 index: int | None = None, named: bool = False,
                 handle: str = ""):
        self.affine_rank = affine_rank
        self.reason = reason or f"flat input, affine rank {affine_rank}"
        self.index = index
        self._args = (affine_rank, reason, index, named, handle)
        message = self.reason + (f" in hull {index}" if named else "")
        super().__init__(f"{message}, {handle}" if handle else message)

    def __reduce__(self):
        return type(self), self._args

    def in_batch(self, start: int, handle: str) -> FlatInputError:
        """This error of a block that starts at cloud `start` of a larger
        batch: its index there, named, and `handle` added."""
        return FlatInputError(self.affine_rank, self.reason,
                              start + self.index, True, handle)


def _starts(counts) -> np.ndarray:
    """Offsets of consecutive segments of the given lengths, with the end."""
    return np.concatenate(([0], np.cumsum(counts)))


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum along axis 0 of each segment values[starts[h]:starts[h + 1]].

    Segments of one length are stacked and summed along their own axis,
    which adds in the order of np.sum over the segment alone: pairwise from
    eight terms on, where np.add.reduceat would add in another order.
    """
    lengths = np.diff(starts)
    out = np.zeros((len(lengths), *values.shape[1:]))
    for n in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == n)
        out[group] = values[starts[group, None] + np.arange(n)].sum(axis=1)
    return out


@dataclass(frozen=True)
class MeshBatch:
    """Closed convex polyhedral surfaces of one or more hulls in
    concatenated arrays; a single hull is a batch of one.

    Hull h has vertices[vertex_start[h]:vertex_start[h + 1]], faces
    face_start[h]..face_start[h + 1] - 1 and edges likewise.  Face f is the
    vertex loop loops[loop_start[f]:loop_start[f + 1]], counterclockwise
    about its unit outward normal normals[f]; edges rows are (v0, v1,
    face_a, face_b) with v0 < v1.  Indices into vertices and faces are
    global, over the whole batch, so those of a batch of one are its own.
    """

    vertices: np.ndarray
    normals: np.ndarray
    loops: np.ndarray
    loop_start: np.ndarray
    edges: np.ndarray
    vertex_start: np.ndarray
    face_start: np.ndarray
    edge_start: np.ndarray

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per hull (vertex count, edge count, face count)."""
        return (np.diff(self.vertex_start), np.diff(self.edge_start),
                np.diff(self.face_start))


@dataclass(frozen=True)
class PolygonBatch:
    """Convex polygons in one array: polygon h is
    vertices[start[h]:start[h + 1]], counterclockwise."""

    vertices: np.ndarray
    start: np.ndarray

    def measures(self) -> tuple[np.ndarray, np.ndarray]:
        """Per polygon (area, perimeter) by shoelace and edge sum."""
        v = self.vertices
        nxt = np.arange(1, len(v) + 1)
        nxt[self.start[1:] - 1] = self.start[:-1]
        nxt = v[nxt]
        area = 0.5 * np.abs(_segment_sums(
            v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1], self.start))
        perimeter = _segment_sums(np.linalg.norm(nxt - v, axis=1), self.start)
        return area, perimeter


def _dedup_mask(clouds: np.ndarray, tol: float) -> np.ndarray:
    """(m, k) mask of the points of stacked clouds (m, k, d) that are kept
    when each point within tol of an earlier kept point is dropped."""
    m, k, d = clouds.shape
    dist, diff = np.zeros((m, k, k)), np.empty((m, k, k))
    for j in range(d):  # coordinate by coordinate, as scipy's cdist adds
        np.subtract(clouds[:, :, None, j], clouds[:, None, :, j], out=diff)
        dist += np.square(diff, out=diff)
    close = np.sqrt(dist, out=dist) <= tol
    first = np.argmax(close, axis=1)  # earliest point within tol of each
    keep = first == np.arange(k)
    # A point is dropped when its earliest close point is kept.  When that
    # point was dropped itself (a chain a~b~c with a and c apart), the
    # greedy rule is applied in index order.
    for c, j in zip(*np.nonzero(~np.take_along_axis(keep, first, axis=1))):
        keep[c, j] = not np.any(close[c, :j, j] & keep[c, :j])
    return keep


def _affine_ranks(clouds: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Affine rank of each of the stacked clouds (g, k, d)."""
    centered = clouds - clouds.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    scale = np.where(s[:, 0] > 0, s[:, 0], 1.0)
    return np.sum(s > tol * scale[:, None], axis=1)


def _qhull(clouds, dim: int) -> tuple[list, np.ndarray, Iterator]:
    """Per cloud of the stack (m, k, dim): the deduplicated points, their
    affine rank and their Qhull hull.

    The hulls come from an iterator, one at a time, so that a caller keeps
    only the arrays it reads of each.  Raises FlatInputError, with the
    index of the first such cloud, when a deduplicated cloud is not
    full-dimensional in R^dim.  `ConvexHull` stays a module global looked
    up at call time, so a tracer that rebinds `hull.ConvexHull` sees every
    Qhull call.
    """
    clouds = np.asarray(clouds, dtype=float)
    keep = _dedup_mask(clouds, DEDUP_TOL)
    ranks = _affine_ranks(clouds)  # duplicates do not change a span
    flat = np.flatnonzero(ranks < dim)
    if len(flat):
        h = int(flat[0])
        raise FlatInputError(int(ranks[h]), index=h, named=len(clouds) > 1)
    pts = [cloud[mask] for cloud, mask in zip(clouds, keep)]

    def hulls():
        for h, p in enumerate(pts):
            try:
                yield ConvexHull(p)
            except QhullError as exc:  # pragma: no cover - rank check first
                raise FlatInputError(int(ranks[h]), str(exc), h,
                                     len(pts) > 1) from exc

    return pts, ranks, hulls()


def _face_groups(eq: np.ndarray, simplex_hull: np.ndarray) -> tuple:
    """(first simplex of each face, face of each simplex): a face is a set
    of equal rows of one hull's equations (one Qhull facet), numbered by
    its first simplex."""
    order = np.lexsort((*eq.T[::-1], simplex_hull))
    rows = np.column_stack((simplex_hull, eq))[order]
    new = np.ones(len(eq), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = np.empty(len(eq), dtype=int)
    first[order] = order[new][np.cumsum(new) - 1]
    is_first = first == np.arange(len(eq))
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first]


def _face_loops(vertices, normals, inc_face, inc_vert, counts) -> np.ndarray:
    """The incidences, sorted by face, reordered into vertex loops.

    Each face's vertices are ordered by the angle of (vertex - centre) from
    b1, the direction of its first two vertices, towards n x b1.
    """
    starts = np.cumsum(counts) - counts
    rel = vertices[inc_vert]
    center = np.add.reduceat(rel, starts, axis=0) / counts[:, None]
    b1 = rel[starts + 1] - rel[starts]
    b2 = np.cross(normals, b1)
    # Row gathers go into one (n, 3) buffer; mode="clip" (the indices are
    # in range) lets np.take write into it without a buffer of its own.
    per_row = np.take(center, inc_face, axis=0)
    rel -= per_row
    np.take(b2, inc_face, axis=0, out=per_row, mode="clip")
    sin = np.sum(np.multiply(rel, per_row, out=per_row), axis=1)
    np.take(b1, inc_face, axis=0, out=per_row, mode="clip")
    cos = np.sum(np.multiply(rel, per_row, out=per_row), axis=1)
    del rel, per_row
    return inc_vert[np.lexsort((np.arctan2(sin, cos), inc_face))]


def convex_hulls_3d(clouds) -> MeshBatch:
    """Convex hulls of stacked 3D clouds (m, k, 3) as coplanar-merged
    polygonal meshes.

    Raises FlatInputError, whose `index` is the failing cloud, when a
    deduplicated cloud is not full-dimensional (degenerate projection
    direction upstream) or its facets do not close up.
    """
    pts, ranks, hulls = _qhull(clouds, 3)
    eq, simplices = zip(*[(h.equations, h.simplices) for h in hulls])
    m = len(pts)
    simplex_hull = np.repeat(np.arange(m), [len(s) for s in simplices])
    eq, simplices = np.concatenate(eq), np.concatenate(simplices)
    simplices += _starts([len(p) for p in pts])[simplex_hull][:, None]
    leaders, simplex_face = _face_groups(eq, simplex_hull)
    normals = eq[leaders, :3]
    normals = normals / np.linalg.norm(normals, axis=1)[:, None]
    face_hull = simplex_hull[leaders]
    # Each step frees what later steps do not read, as these arrays hold
    # every hull of the batch.
    del eq, simplex_hull

    points = np.concatenate(pts)
    on_hull = np.zeros(len(points), dtype=bool)
    on_hull[simplices] = True
    vertices = points[on_hull]
    vertex_hull = np.repeat(np.arange(m), [len(p) for p in pts])[on_hull]
    nv = len(vertices)
    # Face-vertex incidences, sorted by face and then by vertex.
    inc_face, inc_vert = np.divmod(np.unique(
        simplex_face[:, None] * nv + (np.cumsum(on_hull) - 1)[simplices]), nv)
    del pts, points, on_hull, simplices, simplex_face
    counts = np.bincount(inc_face, minlength=len(leaders))
    loops = _face_loops(vertices, normals, inc_face, inc_vert, counts)

    # Each loop edge (v, next v) is keyed by its sorted ends; a closed
    # surface has every key exactly twice, once per adjacent face.
    ends = _starts(counts)
    nxt = np.arange(1, len(loops) + 1)
    nxt[ends[1:] - 1] = ends[:-1]
    key = np.minimum(loops, loops[nxt]) * nv + np.maximum(loops, loops[nxt])
    order = np.lexsort((inc_face, key))
    keys, key_counts = np.unique(key[order], return_counts=True)
    vertex_start = _starts(np.bincount(vertex_hull, minlength=m))
    bad = np.flatnonzero(key_counts != 2)
    if len(bad):
        a, b = divmod(int(keys[bad[0]]), nv)
        h = int(vertex_hull[a])
        a, b = a - vertex_start[h], b - vertex_start[h]
        raise FlatInputError(int(ranks[h]), f"edge ({a},{b}) borders "
                             f"{key_counts[bad[0]]} faces", h, m > 1)
    v0, v1 = np.divmod(keys, nv)
    return MeshBatch(
        vertices=vertices, normals=normals, loops=loops, loop_start=ends,
        edges=np.column_stack((v0, v1, inc_face[order].reshape(-1, 2))),
        vertex_start=vertex_start,
        face_start=_starts(np.bincount(face_hull, minlength=m)),
        edge_start=_starts(np.bincount(vertex_hull[v0], minlength=m)))


def convex_hull_3d(points) -> MeshBatch:
    """Convex hull of a 3D point cloud as a coplanar-merged polygonal mesh,
    a MeshBatch of one of `convex_hulls_3d`.

    Raises FlatInputError when the deduplicated cloud is not
    full-dimensional (degenerate projection direction upstream).
    """
    return convex_hulls_3d(np.asarray(points, dtype=float)[None])


def mesh_measures(meshes: MeshBatch) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Per hull of a MeshBatch (volume, surface area, mean width).

    Volume: signed tetrahedra fanned from the centroid.  Area: summed
    polygon areas.  Mean width: sum over edges of length times the angle
    between the adjacent outward face normals, divided by 4*pi (exact for
    convex polytopes; the unit cube gives 3/2).  The fan and the edge terms
    of all hulls are formed by two functions, so that the temporaries of
    one are freed before the other runs.
    """
    return (*_fan_measures(meshes), _mean_widths(meshes))


def _fan_measures(meshes: MeshBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per hull (volume, area) from the fan triangles (f[0], f[i], f[i+1])
    of every face, face by face."""
    verts, loops, loop_start = meshes.vertices, meshes.loops, meshes.loop_start
    nv = np.diff(meshes.vertex_start)
    centroid = _segment_sums(verts, meshes.vertex_start) / nv[:, None]
    face_hull = np.repeat(np.arange(len(nv)), np.diff(meshes.face_start))
    fans = np.diff(loop_start) - 2
    fan_face = np.repeat(np.arange(len(fans)), fans)
    fan_start = _starts(fans)
    corner = loop_start[fan_face] + np.arange(fan_start[-1])
    corner -= fan_start[fan_face]
    p0 = verts[loops[loop_start[fan_face]]]
    cross = np.cross(verts[loops[corner + 1]] - p0,
                     verts[loops[corner + 2]] - p0)
    # each hull's fan triangles are those of its faces
    hull_fans = fan_start[meshes.face_start]
    area = 0.5 * _segment_sums(np.linalg.norm(cross, axis=1), hull_fans)
    # det(p0 - c, a - c, b - c) = (p0 - c) . ((a - p0) x (b - p0))
    p0 -= centroid[face_hull[fan_face]]
    dets = np.sum(np.multiply(cross, p0, out=cross), axis=1)
    return _segment_sums(np.abs(dets), hull_fans) / 6.0, area


def _mean_widths(meshes: MeshBatch) -> np.ndarray:
    """Per hull the sum over edges of length times the angle between the
    adjacent outward face normals, over 4 pi."""
    e, verts = meshes.edges, meshes.vertices
    lengths = np.linalg.norm(verts[e[:, 0]] - verts[e[:, 1]], axis=1)
    na, nb = meshes.normals[e[:, 2]], meshes.normals[e[:, 3]]
    # The angle between unit normals as 2 atan2(|na - nb|, |na + nb|)
    # stays accurate where arccos(na . nb) loses digits, between nearly
    # coplanar faces.
    gap = np.linalg.norm(na - nb, axis=1)
    angles = 2.0 * np.arctan2(
        gap, np.linalg.norm(np.add(na, nb, out=nb), axis=1))
    return _segment_sums(lengths * angles, meshes.edge_start) / (4.0 * math.pi)


def convex_hulls_2d(clouds) -> PolygonBatch:
    """Convex hulls of stacked planar clouds (m, k, 2) as CCW polygons."""
    pts, _, hulls = _qhull(clouds, 2)
    polygons = [p[h.vertices] for p, h in zip(pts, hulls)]  # already CCW
    return PolygonBatch(vertices=np.concatenate(polygons),
                        start=_starts([len(p) for p in polygons]))


def convex_hull_2d(points) -> PolygonBatch:
    """Convex hull of a planar point cloud as a CCW polygon, a batch of one
    of `convex_hulls_2d`."""
    return convex_hulls_2d(np.asarray(points, dtype=float)[None])


def to_off(meshes: MeshBatch) -> str:
    """OFF-format text of a MeshBatch for external viewers: "OFF", the
    vertex, face and edge counts, one line per vertex, then one line per
    face loop.  Its indices are those of the batch, so a batch of one, as
    `hull-dump` writes, is one polyhedron numbered from 0."""
    nv, ne, nf = (int(c.sum()) for c in meshes.counts())
    lines = ["OFF", f"{nv} {nf} {ne}"]
    for v in meshes.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    loops, ends = meshes.loops.tolist(), meshes.loop_start.tolist()
    for a, b in zip(ends, ends[1:]):
        lines.append(" ".join(map(str, [b - a, *loops[a:b]])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the shadows of the 4-cube

def shadow_hulls(u: np.ndarray) -> MeshBatch:
    """The corank-1 shadows of the 4-cube along unit directions u (m, 4),
    one per row, as one batch of hulls of their projected vertices.

    `geometry` is called through the module, so a rebinding of its
    functions (a tracer, a test) reaches this pipeline too.
    """
    return convex_hulls_3d(geometry.project_vertices(geometry.build_frames(u)))


def octagon_hull_batch(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Per row (area, perimeter) of the rank-2 shadows of orthonormal pairs
    (m, 4), by projection and a 2D hull.

    The plane orthogonal to span{u, v} has the orthonormal rows
    build_frames(F v) F, F = build_frames(u): F v is v in the frame of u's
    complement, a unit vector of R^3, and the frame of its own complement
    there, mapped back by F, is orthogonal to u and to v.  The 16 cube
    vertices are projected on those rows and their hull measured: the
    branch-free reference for the closed forms.  `geometry` is called
    through the module, as in `shadow_hulls`.
    """
    u, v = geometry.checked_pair(u, v)
    frames = geometry.build_frames(u)
    planes = geometry.build_frames((frames @ v[:, :, None])[:, :, 0]) @ frames
    return convex_hulls_2d(geometry.project_vertices(planes)).measures()
