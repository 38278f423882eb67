"""Property tests: accelerated mesh queries against brute force, bit for bit.

The oracle runs the production kernels over every face at once and takes
the lex-min over (value, face index), which is the documented tie-break.
The batched closest-point query, the unhinted single query and the single
query with an arbitrary valid hint must all return exactly that face,
distance, point and barycentric weights, and so must a coherent stream
of hinted queries, which the single query answers from its list entries,
at any skin. Query points include mesh
vertices and points on shared edges, where exact and near ties occur.
Rays include axis-parallel ones that run through vertices, and fans of
rays from one origin: through vertices, along edges, grazing the sheet,
of zero direction, from an origin on or just above a face, and wider than
90 degrees, which splits the fan into groups. The scalar
transcription that the single-point walk evaluates faces with must
reproduce the kernel's squared distance, weights and point bit for bit
on every face. The level-by-level tree build must equal the breadth-first
node-by-node reference build array for array.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import surfscan.mesh as mesh_module
from surfscan.mesh import (
    TriMesh,
    _moller_trumbore,
    closest_point_scalar,
    closest_point_triangles,
    grid_surface_mesh,
)
from test_mesh import assert_same_tree

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def meshes(draw):
    """Random height fields, some tilted, big enough for a multi-level tree."""
    n = draw(st.integers(4, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    amp = draw(st.sampled_from([0.0, 0.005, 0.03]))
    tilt = draw(st.floats(-0.6, 0.6))
    rng = np.random.default_rng(seed)
    xs = np.linspace(-0.1, 0.1, n)
    u = np.array([np.cos(tilt), 0.0, np.sin(tilt)])
    nrm = np.array([-np.sin(tilt), 0.0, np.cos(tilt)])
    return grid_surface_mesh(
        np.zeros(3), u, np.array([0.0, 1.0, 0.0]), nrm, xs, xs, amp * rng.standard_normal((n, n))
    )


@st.composite
def mesh_and_points(draw):
    mesh = draw(meshes())
    v, f = mesh.vertices, mesh.faces
    k = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fi = rng.integers(0, len(f), k)
    corner = rng.integers(0, 3, k)
    a = v[f[fi, corner]]
    b = v[f[fi, (corner + 1) % 3]]
    lift = rng.choice([0.01, -0.02], (k, 1)) * np.array([0.0, 0.0, 1.0])
    kinds = np.stack([
        a,  # exactly on a vertex
        a + rng.random((k, 1)) * (b - a),  # on an edge, usually shared
        a + lift,  # above or below a vertex
        rng.uniform(-0.15, 0.15, (k, 3)),  # anywhere
    ])
    return mesh, kinds[rng.integers(0, len(kinds), k), np.arange(k)]


def brute_nearest(mesh, p):
    acc = mesh._accel
    d2, cp, bary = closest_point_triangles(p, acc.A, acc.B, acc.C)
    k = int(np.lexsort((np.arange(mesh.n_faces), d2))[0])
    return k, d2[k], cp[k], bary[k]


def assert_is_brute(mesh, p, face, dist, point, bary):
    k, d2, cp, b = brute_nearest(mesh, p)
    assert face == k
    assert abs(dist) == np.sqrt(d2)
    assert np.array_equal(point, cp)
    assert np.array_equal(bary, b)


@SETTINGS
@given(meshes(), st.data())
def test_level_build_is_the_reference_tree_on_height_fields(mesh, data):
    assert_same_tree(mesh)
    # any subset of the faces in any order: runs of every size, ties between centroids
    order = data.draw(st.permutations(range(mesh.n_faces)))
    assert_same_tree(TriMesh(mesh.vertices, mesh.faces[order[: data.draw(st.integers(1, len(order)))]]))


@SETTINGS
@given(mesh_and_points())
def test_batched_nearest_is_brute_force(case):
    mesh, pts = case
    dist, face, point, bary = mesh.closest_points(pts)
    for i, p in enumerate(pts):
        assert_is_brute(mesh, p, face[i], dist[i], point[i], bary[i])


@SETTINGS
@given(mesh_and_points())
def test_unhinted_single_nearest_is_brute_force_and_batch(case):
    mesh, pts = case
    dist, face, point, bary = mesh.closest_points(pts)
    for i, p in enumerate(pts):
        hit = mesh.closest_point(p)
        assert_is_brute(mesh, p, hit.face, hit.distance, hit.point, np.array(hit.weights))
        assert hit.distance == dist[i]  # sign included


@SETTINGS
@given(mesh_and_points(), st.data())
def test_hinted_single_nearest_is_brute_force(case, data):
    mesh, pts = case
    for p in pts:
        hint = data.draw(st.integers(0, mesh.n_faces - 1))
        hit = mesh.closest_point(p, hint)
        assert_is_brute(mesh, p, hit.face, hit.distance, hit.point, np.array(hit.weights))
        assert hit.distance == mesh.closest_point(p).distance


@SETTINGS
@given(mesh_and_points(), st.sampled_from([0.0, 1e-4, 5e-4, 0.003, 1.0]), st.integers(0, 2**32 - 1))
def test_coherent_hinted_stream_is_brute_force(case, skin, seed):
    # from each drawn point, steps of 0 to 200 um, each hinted with the
    # previous winner; the drawn points themselves are jumps
    mesh, pts = case
    rng = np.random.default_rng(seed)
    steps = rng.uniform(-2e-4, 2e-4, (len(pts), 6, 3)) * rng.integers(0, 2, (len(pts), 6, 1))
    stream = (pts[:, None, :] + np.cumsum(steps, axis=1)).reshape(-1, 3)
    stream[::6] = pts  # on vertices and edges, where faces tie
    saved, mesh_module.SKIN = mesh_module.SKIN, skin
    try:
        hint = None
        for p in stream:
            hit = mesh.closest_point(p, hint)
            assert_is_brute(mesh, p, hit.face, hit.distance, hit.point, np.array(hit.weights))
            hint = hit.face
    finally:
        mesh_module.SKIN = saved


@SETTINGS
@given(meshes(), st.integers(0, 2**32 - 1))
def test_rays_are_brute_force(mesh, seed):
    rng = np.random.default_rng(seed)
    acc = mesh._accel
    n = 20
    # 8 rays aim straight down through vertices, where faces tie; 4 run
    # along +-x or +-y through a vertex, so two direction components are
    # exactly 0 (the slab test's parallel-axis branch) and the ray grazes
    # edges of a tilted or bumpy sheet; the rest are oblique
    O = np.column_stack([rng.uniform(-0.12, 0.12, (n, 2)), np.full(n, 0.3)])
    D = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), -np.ones(n)])
    vert = mesh.vertices[rng.integers(0, len(mesh.vertices), 12)]
    O[:8, :2], D[:8, :2] = vert[:8, :2], 0.0
    side = np.arange(8, 12)
    axis, sign = rng.integers(0, 2, 4), rng.choice([-1.0, 1.0], 4)
    O[side], D[side] = vert[8:], 0.0
    O[side, axis], D[side, axis] = -0.15 * sign, sign
    t, face = mesh.raycast_batch(O, D)
    for i in range(n):
        t_all, _, _ = _moller_trumbore(O[i], D[i], acc.A, acc.eab, acc.eac, acc.face_areas, 0.0)
        k = int(np.argmin(t_all))  # first minimum: smallest tied face
        single = mesh.raycast(O[i], D[i])
        if not np.isfinite(t_all[k]):
            assert face[i] == -1 and single is None
            continue
        assert (face[i], t[i]) == (k, t_all[k])
        assert (single.face, single.t) == (k, t_all[k])


def brute_rays(mesh, O, D, t_min):
    # every ray against every face; the first minimum is the smallest tied face
    acc = mesh._accel
    t_all, _, _ = _moller_trumbore(
        O[:, None, :], D[:, None, :], acc.A, acc.eab, acc.eac, acc.face_areas, t_min)
    k = np.argmin(t_all, axis=1)
    t = t_all[np.arange(len(k)), k]
    return t, np.where(np.isfinite(t), k, -1)


@st.composite
def shared_origin_rays(draw):
    """A mesh, one origin, a fan of rays from it and a t_min."""
    mesh = draw(meshes())
    acc = mesh._accel
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.integers(0, mesh.n_faces)
    where = draw(st.sampled_from(["above", "on_face", "just_above_face", "on_vertex"]))
    w = rng.dirichlet(np.ones(3))
    on_face = w[0] * acc.A[f] + w[1] * acc.B[f] + w[2] * acc.C[f]
    o = {
        "above": np.array([*rng.uniform(-0.12, 0.12, 2), rng.uniform(0.05, 0.3)]),
        "on_face": on_face,
        "just_above_face": on_face + 1e-6 * acc.face_normals[f],
        "on_vertex": acc.A[f],
    }[where]
    v, faces = mesh.vertices, mesh.faces
    e = faces[rng.integers(0, mesh.n_faces, 6)]
    D = np.concatenate([
        v[rng.integers(0, len(v), 8)] - o,  # through vertices
        0.5 * (v[e[:, 0]] + v[e[:, 1]]) - o,  # through edge midpoints, where faces tie
        v[e[:, 0]] + rng.random((6, 1)) * (v[e[:, 2]] - v[e[:, 0]]) - o,  # through diagonals
    ])
    if draw(st.booleans()):
        # a fan wider than 90 degrees, which splits: grazing rays along the
        # tilted sheet's tangent plane, and rays in every direction
        nrm = acc.face_normals.mean(axis=0)
        t1 = np.cross(nrm, [0.0, 1.0, 0.0])
        graze = rng.standard_normal((6, 2)) @ np.array([t1, np.cross(nrm, t1)])
        graze += rng.choice([1e-3, -1e-3, 1e-5, -1e-5], (6, 1)) * nrm
        D = np.concatenate([D, graze, rng.standard_normal((8, 3))])
    else:
        # a fan within 50 degrees of its mean, which stays one group
        u = D / np.linalg.norm(D, axis=1, keepdims=True).clip(1e-300)  # zero rows stay 0
        D = D[u @ u.mean(axis=0) >= np.cos(np.radians(50.0)) * np.linalg.norm(u.mean(axis=0))]
    # rays in the plane of a face (from an origin on a flat sheet through its
    # vertices, say) stay: the kernel rejects that face, as the oracle does
    D = np.concatenate([D, np.zeros((2, 3))])
    t_min = draw(st.sampled_from([0.0, 1e-9, 0.05]))
    return mesh, o, D, t_min


@SETTINGS
@given(shared_origin_rays())
def test_shared_origin_rays_are_brute_force(case):
    mesh, o, D, t_min = case
    O = np.broadcast_to(o, D.shape)
    t, face = mesh.raycast_batch(O, D, t_min)
    t_ref, face_ref = brute_rays(mesh, np.ascontiguousarray(O), D, t_min)
    assert np.array_equal(face, face_ref)
    assert t.tobytes() == t_ref.tobytes()


@SETTINGS
@given(mesh_and_points())
def test_scalar_kernel_is_the_vector_kernel(case):
    mesh, pts = case
    acc = mesh._accel
    A, B, C = acc.A.tolist(), acc.B.tolist(), acc.C.tolist()
    for p in pts:
        d2, cp, bary = closest_point_triangles(p, acc.A, acc.B, acc.C)
        for f in range(mesh.n_faces):
            s_d2, u, v, point = closest_point_scalar(p.tolist(), A[f], B[f], C[f])
            got = [s_d2, 1.0 - u - v, u, v, *point]
            want = [d2[f], *bary[f], *cp[f]]
            assert [x.hex() for x in got] == [float(x).hex() for x in want]
