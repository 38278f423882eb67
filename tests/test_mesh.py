"""Mesh query tests.

Two layers of oracle: a scalar point-vs-triangle routine written
independently (plain if/elif region walk, book ordering) checks values to
1e-12, and a brute-force pass over all faces with the production kernel
checks that the hierarchy is exact to the bit, tie-breaks included. Rays
get an independent oracle via 3x3 linear solves instead of
Moller-Trumbore.
"""
import numpy as np
import pytest

from surfscan.mesh import (
    TriMesh,
    _moller_trumbore,
    closest_point_triangles,
    grid_surface_mesh,
    load_off,
    save_off,
)


def scalar_closest(p, a, b, c):
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ab @ ap
    d2 = ac @ ap
    if d1 <= 0.0 and d2 <= 0.0:
        return a
    bp = p - b
    d3 = ab @ bp
    d4 = ac @ bp
    if d3 >= 0.0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        return a + ab * (d1 / (d1 - d3))
    cp = p - c
    d5 = ab @ cp
    d6 = ac @ cp
    if d6 >= 0.0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        return a + ac * (d2 / (d2 - d6))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b)
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return a + ab * v + ac * w


def oracle_nearest(mesh, p):
    best = (np.inf, -1, None)
    for i, f in enumerate(mesh.faces):
        cp = scalar_closest(p, *mesh.vertices[f])
        d2 = float((p - cp) @ (p - cp))
        if d2 < best[0]:
            best = (d2, i, cp)
    return best


def bumpy_mesh(n=21, seed=0, extent=0.2):
    rng = np.random.default_rng(seed)
    xs = np.linspace(-extent / 2, extent / 2, n)
    ys = np.linspace(-extent / 2, extent / 2, n)
    h = 0.02 * rng.standard_normal((n, n))
    return grid_surface_mesh(
        np.zeros(3),
        np.array([1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([0, 0, 1.0]),
        xs,
        ys,
        h,
    )


FLAT = grid_surface_mesh(
    np.zeros(3),
    np.array([1.0, 0, 0]),
    np.array([0, 1.0, 0]),
    np.array([0, 0, 1.0]),
    np.linspace(-0.1, 0.1, 11),
    np.linspace(-0.1, 0.1, 11),
    np.zeros((11, 11)),
)
BUMPY = bumpy_mesh()


def test_closest_point_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for _ in range(250):
        p = rng.uniform(-0.15, 0.15, 3)
        p[2] = rng.uniform(-0.1, 0.1)
        hit = BUMPY.closest_point(p)
        d2, face, cp = oracle_nearest(BUMPY, p)
        assert abs(hit.distance**2 - d2) < 1e-12
        assert np.max(np.abs(hit.point - cp)) < 1e-9


def test_bvh_bitwise_equal_to_brute_same_kernel():
    mesh = bumpy_mesh(n=24, seed=5)
    acc = mesh._accel()
    rng = np.random.default_rng(2)
    all_faces = np.arange(mesh.n_faces)
    for _ in range(250):
        p = rng.uniform(-0.2, 0.2, 3)
        hit = mesh.closest_point(p)
        d2, cp, bary = closest_point_triangles(p, acc.A, acc.B, acc.C)
        k = int(np.lexsort((all_faces, d2))[0])
        assert hit.face == k
        assert abs(hit.distance) == float(np.sqrt(d2[k]))
        assert np.array_equal(hit.point, cp[k])
        assert np.array_equal(hit.barycentric, bary[k])


def test_bvh_bitwise_on_large_mesh():
    mesh = bumpy_mesh(n=72, seed=9)  # 10082 faces
    assert mesh.n_faces > 10000
    acc = mesh._accel()
    rng = np.random.default_rng(3)
    all_faces = np.arange(mesh.n_faces)
    for _ in range(60):
        p = rng.uniform(-0.25, 0.25, 3)
        hit = mesh.closest_point(p)
        d2, cp, _ = closest_point_triangles(p, acc.A, acc.B, acc.C)
        k = int(np.lexsort((all_faces, d2))[0])
        assert hit.face == k and abs(hit.distance) == float(np.sqrt(d2[k]))
        assert np.array_equal(hit.point, cp[k])


def test_closest_point_perpendicular_foot():
    # centroid of a face, offset along the normal
    f = FLAT.faces[30]
    centroid = FLAT.vertices[f].mean(axis=0)
    hit = FLAT.closest_point(centroid + np.array([0, 0, 0.05]))
    assert abs(hit.distance - 0.05) < 1e-12
    assert np.max(np.abs(hit.point - centroid)) < 1e-12
    assert hit.face == 30


def test_closest_point_on_surface_zero():
    rng = np.random.default_rng(4)
    pts = BUMPY.sample_surface(50, rng)
    for p in pts:
        assert abs(BUMPY.closest_point(p).distance) < 1e-12


def test_signed_distance_sides():
    above = FLAT.closest_point(np.array([0.03, -0.02, 0.07]))
    below = FLAT.closest_point(np.array([0.03, -0.02, -0.07]))
    assert abs(above.distance - 0.07) < 1e-12
    assert abs(below.distance + 0.07) < 1e-12


def oracle_ray(mesh, o, d):
    ab = mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]]
    ac = mesh.vertices[mesh.faces[:, 2]] - mesh.vertices[mesh.faces[:, 0]]
    n = mesh.n_faces
    M = np.empty((n, 3, 3))
    M[:, :, 0] = d
    M[:, :, 1] = -ab
    M[:, :, 2] = -ac
    rhs = mesh.vertices[mesh.faces[:, 0]] - o
    ok = np.abs(np.linalg.det(M)) > 1e-14
    sol = np.full((n, 3), np.inf)
    sol[ok] = np.linalg.solve(M[ok], rhs[ok][:, :, None])[:, :, 0]
    t, u, v = sol[:, 0], sol[:, 1], sol[:, 2]
    hit = ok & (t >= 0.0) & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
    t = np.where(hit, t, np.inf)
    k = int(np.argmin(t))
    return (t[k], k) if np.isfinite(t[k]) else (np.inf, -1)


def test_raycast_matches_solve_oracle():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(200):
        o = rng.uniform(-0.08, 0.08, 3)
        o[2] = 0.2
        d = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), -1.0])
        d /= np.linalg.norm(d)
        got = BUMPY.raycast(o, d)
        t_ref, f_ref = oracle_ray(BUMPY, o, d)
        if got is None:
            assert not np.isfinite(t_ref)
        else:
            hits += 1
            assert abs(got.t - t_ref) < 1e-9
            assert got.face == f_ref
    assert hits > 100  # the sweep must actually exercise hits


def test_raycast_batch_matches_single():
    rng = np.random.default_rng(6)
    n = 300
    O = np.column_stack(
        [rng.uniform(-0.12, 0.12, n), rng.uniform(-0.12, 0.12, n), np.full(n, 0.25)]
    )
    D = np.column_stack([rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n), -np.ones(n)])
    D /= np.linalg.norm(D, axis=1)[:, None]
    t, face = BUMPY.raycast_batch(O, D)
    for i in range(n):
        single = BUMPY.raycast(O[i], D[i])
        if single is None:
            assert not np.isfinite(t[i]) and face[i] == -1
        else:
            assert abs(t[i] - single.t) < 1e-12
            # batch keeps traversal-order ties; faces agree away from edges
            if abs(t[i] - single.t) == 0.0:
                assert np.isfinite(t[i])


def test_raycast_tie_on_shared_edge_picks_smallest_face():
    # a vertical ray through the midpoint of cell 0's diagonal hits faces 0
    # and 1 at the same t; batch and single must both return face 0
    i00, _, i11 = FLAT.faces[0]
    o = 0.5 * (FLAT.vertices[i00] + FLAT.vertices[i11]) + np.array([0.0, 0.0, 0.3])
    d = np.array([0.0, 0.0, -1.0])
    acc = FLAT._accel()
    t_all, _, _ = _moller_trumbore(o, d, acc.A, acc.eab, acc.eac, 0.0)
    tied = np.flatnonzero(t_all == t_all.min())
    assert len(tied) >= 2
    t, face = FLAT.raycast_batch(o[None, :], d[None, :])
    single = FLAT.raycast(o, d)
    assert face[0] == single.face == tied[0]
    assert t[0] == single.t == t_all.min()


def test_closest_points_rows_match_single_queries():
    rng = np.random.default_rng(8)
    pts = np.vstack([rng.uniform(-0.15, 0.15, (40, 3)), BUMPY.vertices[:10]])
    dist, face, point, bary = BUMPY.closest_points(pts)
    assert dist.shape == face.shape == (50,) and point.shape == bary.shape == (50, 3)
    for i, p in enumerate(pts):
        hit = BUMPY.closest_point(p)
        assert (hit.face, hit.distance) == (face[i], dist[i])
        assert np.array_equal(hit.point, point[i]) and np.array_equal(hit.barycentric, bary[i])
    assert len(BUMPY.closest_points(np.empty((0, 3)))[0]) == 0
    with pytest.raises(ValueError, match="finite"):
        BUMPY.closest_points(np.array([[0.0, np.nan, 0.0]]))


def test_raycast_axial_depth():
    hit = FLAT.raycast(np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, -1.0]))
    assert hit is not None and abs(hit.t - 0.3) < 1e-12


def test_raycast_miss():
    assert FLAT.raycast(np.array([0.0, 0.0, 0.3]), np.array([0.0, 0.0, 1.0])) is None


def test_grid_mesh_counts_and_orientation():
    # 3x3 nodes = 2x2 cells = 8 triangles
    xs = np.linspace(0, 0.1, 3)
    mesh = grid_surface_mesh(
        np.zeros(3),
        np.array([1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([0, 0, 1.0]),
        xs,
        xs,
        np.zeros((3, 3)),
    )
    assert mesh.n_faces == 8
    normals = mesh.face_normals()
    assert np.all(normals @ np.array([0, 0, 1.0]) > 0.999999)


def test_grid_mesh_mask_holes():
    xs = np.linspace(0, 0.1, 4)
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = False  # kills the 4 cells touching that node
    mesh = grid_surface_mesh(
        np.zeros(3),
        np.array([1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([0, 0, 1.0]),
        xs,
        xs,
        np.zeros((4, 4)),
        mask=mask,
    )
    assert mesh.n_faces == 2 * (9 - 4)


def test_vertex_normals_flat_and_curved():
    assert np.max(np.abs(FLAT.vertex_normals() - np.array([0, 0, 1.0]))) < 1e-12
    # paraboloid: analytic normal at (x, y) is (-2ax, -2ay, 1) normalised
    a = 2.0
    n = 41
    xs = np.linspace(-0.1, 0.1, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    mesh = grid_surface_mesh(
        np.zeros(3),
        np.array([1.0, 0, 0]),
        np.array([0, 1.0, 0]),
        np.array([0, 0, 1.0]),
        xs,
        xs,
        a * (X**2 + Y**2),
    )
    vn = mesh.vertex_normals()
    # interior vertices only; boundary normals are one-sided
    exact = np.stack([-2 * a * mesh.vertices[:, 0], -2 * a * mesh.vertices[:, 1], np.ones(len(vn))], axis=1)
    exact /= np.linalg.norm(exact, axis=1)[:, None]
    interior = (np.abs(mesh.vertices[:, 0]) < 0.095) & (np.abs(mesh.vertices[:, 1]) < 0.095)
    dots = np.einsum("ij,ij->i", vn[interior], exact[interior])
    assert np.min(dots) > 0.99999


def test_sample_surface_on_mesh():
    rng = np.random.default_rng(7)
    pts = BUMPY.sample_surface(200, rng)
    for p in pts[:40]:
        assert abs(BUMPY.closest_point(p).distance) < 1e-12


def test_validation_rejects_bad_meshes():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    TriMesh(v, np.array([[0, 1, 2], [1, 3, 2]]))  # fine
    with pytest.raises(ValueError, match="range"):
        TriMesh(v, np.array([[0, 1, 4]]))
    with pytest.raises(ValueError, match="repeated"):
        TriMesh(v, np.array([[0, 1, 1]]))
    with pytest.raises(ValueError, match="degenerate"):
        TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 1e-14]]), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match="winding"):
        TriMesh(v, np.array([[0, 1, 2], [1, 2, 3]]))  # second face flipped
    v5 = np.vstack([v, [0.5, 0.5, 1.0]])
    with pytest.raises(ValueError, match="manifold"):
        TriMesh(v5, np.array([[0, 1, 2], [1, 4, 2], [2, 1, 3]]))  # edge 1-2 used 3 times


def test_off_roundtrip_bytes(tmp_path):
    p1 = tmp_path / "a.off"
    p2 = tmp_path / "b.off"
    save_off(BUMPY, p1)
    mesh2 = load_off(p1)
    assert np.array_equal(mesh2.vertices, BUMPY.vertices)
    assert np.array_equal(mesh2.faces, BUMPY.faces)
    save_off(mesh2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_off_rejects_garbage(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("PLY\n")
    with pytest.raises(ValueError, match="OFF"):
        load_off(p)


def test_off_rejects_header_only(tmp_path):
    p = tmp_path / "header.off"
    p.write_text("OFF\n")
    with pytest.raises(ValueError, match="header.off"):
        load_off(p)


def test_off_rejects_truncated_face_block(tmp_path):
    p = tmp_path / "short.off"
    p.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0\n")
    with pytest.raises(ValueError, match="short.off: truncated face block"):
        load_off(p)
