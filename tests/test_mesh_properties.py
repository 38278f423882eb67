"""Property tests: accelerated mesh queries against brute force, bit for bit.

The oracle runs the production kernels over every face at once and takes
the lex-min over (value, face index), which is the documented tie-break.
The batched closest-point query, the unhinted single query and the single
query with an arbitrary valid hint must all return exactly that face,
distance, point and barycentric weights. Query points include mesh
vertices and points on shared edges, where exact and near ties occur.
Rays include axis-parallel ones that run through vertices. The scalar
transcription that the single-point walk evaluates faces with must
reproduce the kernel's squared distance, weights and point bit for bit
on every face.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfscan.mesh import (
    _moller_trumbore,
    closest_point_scalar,
    closest_point_triangles,
    grid_surface_mesh,
)

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
    acc = mesh._accel()
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
        assert_is_brute(mesh, p, hit.face, hit.distance, hit.point, hit.barycentric)
        assert hit.distance == dist[i]  # sign included


@SETTINGS
@given(mesh_and_points(), st.data())
def test_hinted_single_nearest_is_brute_force(case, data):
    mesh, pts = case
    for p in pts:
        hint = data.draw(st.integers(0, mesh.n_faces - 1))
        hit = mesh.closest_point(p, hint)
        assert_is_brute(mesh, p, hit.face, hit.distance, hit.point, hit.barycentric)
        assert hit.distance == mesh.closest_point(p).distance


@SETTINGS
@given(meshes(), st.integers(0, 2**32 - 1))
def test_rays_are_brute_force(mesh, seed):
    rng = np.random.default_rng(seed)
    acc = mesh._accel()
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
        t_all, _, _ = _moller_trumbore(O[i], D[i], acc.A, acc.eab, acc.eac, 0.0)
        k = int(np.argmin(t_all))  # first minimum: smallest tied face
        single = mesh.raycast(O[i], D[i])
        if not np.isfinite(t_all[k]):
            assert face[i] == -1 and single is None
            continue
        assert (face[i], t[i]) == (k, t_all[k])
        assert (single.face, single.t) == (k, t_all[k])


@SETTINGS
@given(mesh_and_points())
def test_scalar_kernel_is_the_vector_kernel(case):
    mesh, pts = case
    acc = mesh._accel()
    A, B, C = acc.A.tolist(), acc.B.tolist(), acc.C.tolist()
    for p in pts:
        d2, cp, bary = closest_point_triangles(p, acc.A, acc.B, acc.C)
        for f in range(mesh.n_faces):
            s_d2, u, v, point = closest_point_scalar(p.tolist(), A[f], B[f], C[f])
            got = [s_d2, 1.0 - u - v, u, v, *point]
            want = [d2[f], *bary[f], *cp[f]]
            assert [x.hex() for x in got] == [float(x).hex() for x in want]
