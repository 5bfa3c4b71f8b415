import math
import pickle
import re

import numpy as np
import pytest

import hull_reference
from octagon_branches import build_rank2_pair
from cubeshadow import functionals, geometry, hull

pytestmark = pytest.mark.oldest_numpy(
    reason=("the batch hull's _segment_sums relies on numpy's reduction order,"
            " as coordinate_sum does, and Qhull comes from scipy"))


def shadow_mesh(u):
    return hull.convex_hull_3d(
        geometry.project_vertices(geometry.build_frame(u)))


def test_cube_combinatorics():
    mesh = hull.convex_hull_3d(geometry.cube_vertices(3))
    assert hull_reference.counts(mesh) == (8, 12, 6)
    (volume,), (area,), (mean_width,) = hull.mesh_measures(mesh)
    assert volume == pytest.approx(1.0, abs=1e-12)
    assert area == pytest.approx(6.0, abs=1e-12)
    assert mean_width == pytest.approx(1.5, abs=1e-12)


def test_tetrahedron_combinatorics():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    v, e, f = hull_reference.counts(hull.convex_hull_3d(pts))
    assert (v, e, f) == (4, 6, 4)
    assert v - e + f == 2


def test_regular_tetrahedron_mean_width():
    # edge formula: (1/4pi) * sum of length * (pi - interior dihedral),
    # interior dihedral = arccos(1/3)
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    pts /= math.sqrt(8)  # edge length 1
    _, _, (mean_width,) = hull.mesh_measures(hull.convex_hull_3d(pts))
    expected = 6 * (math.pi - math.acos(1.0 / 3.0)) / (4 * math.pi)
    assert mean_width == pytest.approx(expected, abs=1e-12)


def test_generic_shadow_combinatorics():
    rng = geometry.stream(10)
    for _ in range(100):
        v, e, f = hull_reference.counts(
            shadow_mesh(geometry.sample_unit_vector(4, rng)))
        assert (v, e, f) == (14, 24, 12)
        assert v - e + f == 2


def test_shadow_faces_are_parallelograms():
    # zonotope faces: each face area equals a generator cross-product norm
    rng = geometry.stream(11)
    for _ in range(20):
        u = geometry.sample_unit_vector(4, rng)
        generators = geometry.build_frame(u).T  # images of the 4 axis segments
        gen_areas = sorted(
            np.linalg.norm(np.cross(generators[j], generators[k]))
            for j in range(4) for k in range(j + 1, 4))
        mesh = shadow_mesh(u)
        face_areas = []
        for face in hull_reference.faces(mesh):
            assert len(face) == 4
            v = mesh.vertices[face]
            face_areas.append(0.5 * np.linalg.norm(np.cross(v[2] - v[0], v[3] - v[1])))
        # 12 faces come in 6 opposite pairs, one per generator pair
        assert np.allclose(sorted(face_areas)[::2], gen_areas, atol=1e-12)
        assert np.allclose(sorted(face_areas)[1::2], gen_areas, atol=1e-12)


def test_measures_match_functionals():
    rng = geometry.stream(12)
    for _ in range(100):
        u = geometry.sample_unit_vector(4, rng)
        (volume,), (area,), (mean_width,) = hull.mesh_measures(shadow_mesh(u))
        assert volume == pytest.approx(functionals.shadow_volume(u), abs=1e-9)
        assert area == pytest.approx(functionals.shadow_area(u), abs=1e-9)
        assert mean_width == pytest.approx(functionals.shadow_mean_width(u), abs=1e-9)


def test_rigid_motion_invariance():
    rng = geometry.stream(13)
    u = geometry.sample_unit_vector(4, rng)
    pts = geometry.project_vertices(geometry.build_frame(u))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    (v0,), (a0,), (w0,) = hull.mesh_measures(hull.convex_hull_3d(pts))
    (v1,), (a1,), (w1,) = hull.mesh_measures(hull.convex_hull_3d(pts @ q.T))
    assert v1 == pytest.approx(v0, rel=1e-9)
    assert a1 == pytest.approx(a0, rel=1e-9)
    assert w1 == pytest.approx(w0, rel=1e-9)


def test_hull_idempotence():
    rng = geometry.stream(14)
    mesh = shadow_mesh(geometry.sample_unit_vector(4, rng))
    again = hull.convex_hull_3d(mesh.vertices)
    assert hull_reference.counts(again)[0] == hull_reference.counts(mesh)[0]
    a = np.sort(np.round(mesh.vertices, 10), axis=0)
    b = np.sort(np.round(again.vertices, 10), axis=0)
    assert np.allclose(a, b, atol=1e-9)


def test_all_points_inside_hull():
    rng = geometry.stream(15)
    u = geometry.sample_unit_vector(4, rng)
    pts = geometry.project_vertices(geometry.build_frame(u))
    mesh = hull.convex_hull_3d(pts)
    for face, normal in zip(hull_reference.faces(mesh), mesh.normals):
        offset = float(normal @ mesh.vertices[face[0]])
        assert (pts @ normal - offset).max() < 1e-9


def test_flat_input_raises():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], float)
    with pytest.raises(hull.FlatInputError) as exc:
        hull.convex_hull_3d(flat)
    assert exc.value.affine_rank == 2
    # a batch of one does not name its hull
    assert str(exc.value) == "flat input, affine rank 2"


def test_off_dump_format():
    mesh = hull.convex_hull_3d(geometry.cube_vertices(3))
    text = hull.to_off(mesh)
    lines = text.strip().split("\n")
    assert lines[0] == "OFF"
    counts = [int(t) for t in lines[1].split()]
    assert counts == [8, 6, 12]
    assert len(lines) == 2 + 8 + 6


def test_hull_2d_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], float)
    polys = hull.convex_hulls_2d(pts[None])
    assert len(polys.vertices) == 4
    (area,), (perimeter,) = polys.measures()
    assert area == pytest.approx(1.0, abs=1e-12)
    assert perimeter == pytest.approx(4.0, abs=1e-12)


def test_hull_2d_octagon_shadow():
    rng = geometry.stream(16)
    u = geometry.sample_unit_vector(4, rng)
    v = build_rank2_pair(u, 1.0, 1.0)
    e, f = hull_reference.shadow_plane_basis(u, v)
    pts = geometry.cube_vertices(4) @ np.column_stack([e, f])
    poly = hull.convex_hull_2d(pts)
    assert len(poly.vertices) == 8


def test_hull_2d_dedup_and_collinear():
    pts = np.array([[0, 0], [1, 0], [0, 1]], float)
    heavy = np.vstack([pts] * 5)
    poly = hull.convex_hull_2d(heavy)
    assert len(poly.vertices) == 3
    with pytest.raises(hull.FlatInputError):
        hull.convex_hull_2d(np.array([[0, 0], [1, 1], [2, 2], [3, 3]], float))


def test_polygon_rotation_invariance():
    rng = geometry.stream(17)
    pts = rng.standard_normal((12, 2))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    (a0, a1), (p0, p1) = hull.convex_hulls_2d(
        np.stack([pts, pts @ rot.T])).measures()
    assert a1 == pytest.approx(a0, abs=1e-12)
    assert p1 == pytest.approx(p0, abs=1e-12)


def test_dedup_chain_keeps_far_end():
    # a~b and b~c but a and c apart: b is dropped next to the kept a, and c
    # is kept because the only point near it (b) was dropped.
    tol = 1.0
    pts = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [0.1, 0.0]])
    keep = hull._dedup_mask(pts[None], tol)[0]
    assert np.array_equal(pts[keep], pts[[0, 2]])


# The per-simplex and per-face loops that the array code replaced, kept as
# the reference: they merged simplices whose Qhull planes agree within
# COPLANAR_TOL rather than exactly.  Faces and edges must match exactly on
# generic clouds.  The measures add in another order, so they may differ by
# rounding only; the dihedral angle is 2 atan2(|na - nb|, |na + nb|) in
# both, as arccos of the dot product is off by up to 1e-16 / sin(angle).

COPLANAR_TOL = 1e-9

def _reference_dedup(points, tol):
    kept = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _reference_hull(points):
    pts = _reference_dedup(np.asarray(points, dtype=float), hull.DEDUP_TOL)
    qh = hull.ConvexHull(pts)
    diameter = float(np.max(np.linalg.norm(pts - pts[0], axis=1))) or 1.0
    groups = []
    for simplex, eq in zip(qh.simplices, qh.equations):
        for g in groups:
            if (np.dot(g["normal"], eq[:3]) > 1.0 - COPLANAR_TOL
                    and abs(g["offset"] - eq[3]) <= COPLANAR_TOL * diameter):
                g["verts"].update(simplex)
                break
        else:
            groups.append({"normal": eq[:3].copy(), "offset": eq[3],
                           "verts": set(simplex)})
    used = sorted({v for g in groups for v in g["verts"]})
    remap = {old: new for new, old in enumerate(used)}
    vertices = pts[used]
    faces = []
    for g in groups:
        normal = g["normal"] / np.linalg.norm(g["normal"])
        idx = np.array(sorted(remap[v] for v in g["verts"]))
        face_pts = vertices[idx]
        center = face_pts.mean(axis=0)
        b1 = face_pts[1] - face_pts[0]
        b1 -= np.dot(b1, normal) * normal
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(normal, b1)
        ang = np.arctan2((face_pts - center) @ b2, (face_pts - center) @ b1)
        faces.append([int(i) for i in idx[np.argsort(ang)]])
    edge_faces = {}
    for fi, face in enumerate(faces):
        for a, b in zip(face, face[1:] + face[:1]):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(fi)
    edges = [(a, b, fs[0], fs[1]) for (a, b), fs in sorted(edge_faces.items())]
    return vertices, faces, edges


def _reference_measures(mesh):
    verts = mesh.vertices
    centroid = verts.mean(axis=0)
    volume = area = 0.0
    for face in hull_reference.faces(mesh):
        p0 = verts[face[0]]
        for a, b in zip(face[1:-1], face[2:]):
            area += 0.5 * np.linalg.norm(np.cross(verts[a] - p0, verts[b] - p0))
            volume += abs(np.dot(np.cross(verts[a] - centroid, verts[b] - centroid),
                                 p0 - centroid)) / 6.0
    mw = 0.0
    for a, b, fa, fb in mesh.edges:
        na, nb = mesh.normals[fa], mesh.normals[fb]
        angle = 2.0 * math.atan2(np.linalg.norm(na - nb), np.linalg.norm(na + nb))
        mw += np.linalg.norm(verts[a] - verts[b]) * angle
    return volume, area, mw / (4.0 * math.pi)


def test_matches_loop_reference():
    rng = geometry.stream(18)
    clouds = [geometry.cube_vertices(3),
              np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)]
    clouds += [geometry.project_vertices(geometry.build_frame(
        geometry.sample_unit_vector(4, rng))) for _ in range(200)]
    for pts in clouds:
        mesh = hull.convex_hull_3d(pts)
        vertices, faces, edges = _reference_hull(pts)
        assert np.array_equal(mesh.vertices, vertices)
        assert hull_reference.faces(mesh) == faces
        assert list(map(tuple, mesh.edges.tolist())) == edges
        for (got,), want in zip(hull.mesh_measures(mesh),
                                _reference_measures(mesh)):
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


# The batch against the per-mesh array code it replaced (hull_reference):
# the same bytes, cloud by cloud, wherever a cloud sits in its batch.

def sampled_clouds(count, seed=18):
    rng = geometry.stream(seed)
    return np.array([geometry.project_vertices(geometry.build_frame(
        geometry.sample_unit_vector(4, rng))) for _ in range(count)])


def special_clouds():
    """Axis-aligned (the unit cube, half the points repeated), prism, box,
    equal-magnitude and near-axis directions."""
    dirs = [[1, 0, 0, 0], [0, 0, 0, -1], [1, 1, 0, 0], [1, 2, 3, 0],
            [1, 1, 1, 1], [1, -1, 1e-9, 0], [1, 1e-12, 0, 0],
            [1, 1e-6, 2e-6, -3e-6], [0.3, 0.5, 1e-7, -1e-7]]
    return np.array([geometry.project_vertices(geometry.build_frame(
        np.array(u, float) / np.linalg.norm(u))) for u in dirs])


class TestBatch:
    def check(self, clouds):
        batch = hull.convex_hulls_3d(clouds)
        volume, area, mw = hull.mesh_measures(batch)
        v, e, f = batch.counts()
        for i, pts in enumerate(clouds):
            want = hull_reference.convex_hull_3d(pts)
            one = hull_reference.one_hull(batch, i)
            hull_reference.assert_same_mesh(one, want)
            hull_reference.assert_same_mesh(hull.convex_hull_3d(pts), want)
            m = hull_reference.mesh_measures(want)
            assert (volume[i], area[i], mw[i]) == m
            assert (v[i], e[i], f[i]) == hull_reference.counts(want)
            assert tuple(np.concatenate(hull.mesh_measures(one))) == m
        return batch

    def test_equals_mesh_reference(self):
        self.check(sampled_clouds(200))
        self.check(special_clouds())
        self.check(geometry.cube_vertices(3)[None])
        self.check(np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                            float))

    def test_result_independent_of_neighbours_and_position(self):
        clouds = np.concatenate([sampled_clouds(40, seed=19), special_clouds()])
        batch = self.check(clouds)
        order = np.random.default_rng(3).permutation(len(clouds))
        shuffled = hull.convex_hulls_3d(clouds[order])
        for got, want in zip(np.array(hull.mesh_measures(shuffled)).T,
                             np.array(hull.mesh_measures(batch)).T[order]):
            assert tuple(got) == tuple(want)
        for i, j in enumerate(order):
            hull_reference.assert_same_mesh(
                hull_reference.one_hull(shuffled, i),
                hull_reference.one_hull(batch, j))

    def test_polygons_equal_reference(self):
        rng = geometry.stream(20)
        clouds = []
        for _ in range(200):
            u = geometry.sample_unit_vector(4, rng)
            v = geometry.complete_pairs(u[:, None], geometry.sample_unit_vector(
                4, rng)[:, None])[:, 0]
            e, f = hull_reference.shadow_plane_basis(u, v)
            clouds.append(geometry.cube_vertices(4) @ np.column_stack([e, f]))
        clouds.append(geometry.cube_vertices(4)[:, :2])  # the unit square
        clouds = np.array(clouds)
        order = np.random.default_rng(4).permutation(len(clouds))
        for batch in (clouds, clouds[order]):
            polys = hull.convex_hulls_2d(batch)
            area, perimeter = polys.measures()
            for i, pts in enumerate(batch):
                want = hull_reference.convex_hull_2d(pts)
                got = polys.vertices[polys.start[i]:polys.start[i + 1]]
                assert np.array_equal(got, want.vertices)
                assert np.array_equal(hull.convex_hull_2d(pts).vertices,
                                      want.vertices)
                measures = hull_reference.polygon_measures(want)
                assert (area[i], perimeter[i]) == measures

    def test_flat_cloud_names_its_hull(self):
        clouds = sampled_clouds(6)
        clouds[3, :, 2] = 0.0
        with pytest.raises(hull.FlatInputError) as exc:
            hull.convex_hulls_3d(clouds)
        assert (exc.value.index, exc.value.affine_rank) == (3, 2)
        assert str(exc.value) == "flat input, affine rank 2 in hull 3"
        planar = clouds[:, :, :2].copy()
        planar[5] = planar[5, :, :1] * [1.0, 2.0]  # on a line
        with pytest.raises(hull.FlatInputError) as exc:
            hull.convex_hulls_2d(planar)
        assert (exc.value.index, exc.value.affine_rank) == (5, 1)

    def test_flat_input_error_survives_pickling(self):
        # a pool worker's error reaches the parent pickled
        plain = hull.FlatInputError(2, index=3, named=True)
        blocked = plain.in_batch(250, "direction u = [0.5, 0.5, 0.5, 0.5]")
        edge = hull.FlatInputError(3, "edge (1,2) borders 1 faces", 0)
        for err in (plain, blocked, edge):
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is hull.FlatInputError
            assert (str(back), back.index, back.affine_rank, back.reason) == \
                (str(err), err.index, err.affine_rank, err.reason)
        assert str(back) == "edge (1,2) borders 1 faces"
        assert str(pickle.loads(pickle.dumps(blocked))) == (
            "flat input, affine rank 2 in hull 253, "
            "direction u = [0.5, 0.5, 0.5, 0.5]")

    def test_open_surface_names_its_hull(self, monkeypatch):
        # Qhull's third hull loses a simplex: three of its edges then
        # border one face.
        calls = []

        class Dropped:
            def __init__(self, points):
                qh = hull_reference.ConvexHull(points)
                calls.append(1)
                keep = slice(0, -1) if len(calls) == 3 else slice(None)
                self.equations = qh.equations[keep]
                self.simplices = qh.simplices[keep]

        monkeypatch.setattr(hull, "ConvexHull", Dropped)
        with pytest.raises(hull.FlatInputError, match=r"^edge \((\d+),(\d+)\) "
                           r"borders 1 faces in hull 2$") as exc:
            hull.convex_hulls_3d(sampled_clouds(5))
        assert (exc.value.index, exc.value.affine_rank) == (2, 3)
        # the ends are numbered within hull 2, which has 14 vertices
        ends = re.match(r"edge \((\d+),(\d+)\)", str(exc.value)).groups()
        assert all(0 <= int(end) < 14 for end in ends)
