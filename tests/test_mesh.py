"""Mesh query tests.

Two layers of oracle: a scalar point-vs-triangle routine written
independently (plain if/elif region walk, book ordering) checks values to
1e-12, and a brute-force pass over all faces with the production kernel
checks that the hierarchy is exact to the bit, tie-breaks included. Rays
get an independent oracle via 3x3 linear solves instead of
Moller-Trumbore, and a bit-exact one in ray_oracle: Moller-Trumbore with
every term computed per (ray, face) lane, as the kernel's per-origin split
must reproduce.
"""
import collections
import gc
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import surfscan.mesh as mesh_module
from surfscan.mesh import (
    LEAF_SIZE,
    OFF_BLOCK,
    TriMesh,
    grid_surface_mesh,
    load_off,
    save_off,
)
from surfscan.arm import arm_snapshot, reference_arm
from surfscan.chart import SurfaceChart
from surfscan.controller import ImpedanceGains, Setpoint
from surfscan.localization import ScenePlane, orbit_trajectory
from surfscan.reconstruction import CameraIntrinsics, extract_mesh, fuse_views, render_depth
from surfscan.sim import PhantomModel, cap_phantom_mesh, flat_phantom_mesh, simulate
from nearest_oracle import closest_point_triangles, closest_points
from ray_oracle import brute_rays, mesh_rays


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
    acc = mesh._accel
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
        assert np.array_equal(np.array(hit.weights), bary[k])


def test_bvh_bitwise_on_large_mesh():
    mesh = bumpy_mesh(n=72, seed=9)  # 10082 faces
    assert mesh.n_faces > 10000
    acc = mesh._accel
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
    n = 50
    for o in np.column_stack([rng.uniform(-0.12, 0.12, (6, 2)), np.full(6, 0.25)]):
        D = np.column_stack([rng.uniform(-0.3, 0.3, (n, 2)), -np.ones(n)])
        D /= np.linalg.norm(D, axis=1)[:, None]
        t, face = BUMPY.raycast_batch(o, D)
        for i in range(n):
            single = BUMPY.raycast(o, D[i])
            if single is None:
                assert not np.isfinite(t[i]) and face[i] == -1
            else:
                # one traversal serves both, so ties resolve alike too
                assert (t[i], face[i]) == (single.t, single.face)


def test_raycast_tie_on_shared_edge_picks_smallest_face():
    # a vertical ray through the midpoint of cell 0's diagonal hits faces 0
    # and 1 at the same t; batch and single must both return face 0
    i00, _, i11 = FLAT.faces[0]
    o = 0.5 * (FLAT.vertices[i00] + FLAT.vertices[i11]) + np.array([0.0, 0.0, 0.3])
    d = np.array([0.0, 0.0, -1.0])
    t_all = mesh_rays(FLAT, o, d)[0][0]
    tied = np.flatnonzero(t_all == t_all.min())
    assert len(tied) >= 2
    t, face = FLAT.raycast_batch(o, d[None, :])
    single = FLAT.raycast(o, d)
    assert face[0] == single.face == tied[0]
    assert t[0] == single.t == t_all.min()


def assert_rays_are_brute(mesh, O, D, t_min=0.0):
    # one batch per origin: O is one origin, or one per row of D, grouped bit for bit
    O = np.broadcast_to(O, D.shape)
    batches = collections.defaultdict(list)
    for i, o in enumerate(O):
        batches[o.tobytes()].append(i)
    t, face = np.empty(len(D)), np.empty(len(D), dtype=np.int64)
    for rays in batches.values():
        t[rays], face[rays] = mesh.raycast_batch(O[rays[0]], D[rays], t_min)
    t_ref, face_ref = brute_rays(mesh, O, D, t_min)
    assert np.array_equal(face, face_ref)
    assert t.tobytes() == t_ref.tobytes()
    return t, face


def test_raycast_batch_of_zero_rays():
    t, face = BUMPY.raycast_batch(np.zeros(3), np.empty((0, 3)))
    assert t.shape == face.shape == (0,)
    assert face.dtype == np.int64


def test_raycast_when_the_root_is_a_leaf():
    # 3x3 nodes give 8 faces, one leaf and no inner node
    small = grid_surface_mesh(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                              np.array([0, 0, 1.0]), np.linspace(0, 0.1, 3), np.linspace(0, 0.1, 3),
                              np.array([[0.0, 0.01, 0.0], [0.02, 0.0, -0.01], [0.0, 0.01, 0.0]]))
    assert small.n_faces <= LEAF_SIZE and small._accel.count[0] == small.n_faces
    rng = np.random.default_rng(11)
    O = np.repeat(np.column_stack([rng.uniform(-0.02, 0.12, (4, 2)), np.full(4, 0.2)]), 10, axis=0)
    D = np.column_stack([rng.uniform(-0.3, 0.3, (40, 2)), -np.ones(40)])
    t, _ = assert_rays_are_brute(small, O, D)
    assert np.isfinite(t).any() and not np.isfinite(t).all()


def test_raycast_axis_parallel_directions():
    # rays with exact zero direction components, each from its own origin on
    # vertex coordinates, so rays run through vertices and along edges
    rng = np.random.default_rng(12)
    v = BUMPY.vertices[rng.integers(0, len(BUMPY.vertices), 60)]
    O, D = v.copy(), np.zeros((60, 3))
    O[:20, 2], D[:20, 2] = 0.3, -1.0  # straight down through a vertex
    O[20:40, 0], D[20:40, 0] = -0.15, 1.0  # along +x at a vertex's (y, z)
    O[40:, 1], D[40:, 1] = 0.15, -1.0  # along -y at a vertex's (x, z)
    O[40:50, 2] += 0.005
    t, _ = assert_rays_are_brute(BUMPY, O, D)
    assert np.isfinite(t[:20]).all()
    D[:, 0] = np.where(D[:, 0] == 0.0, 0.25, D[:, 0])  # one zero component left
    assert_rays_are_brute(BUMPY, O, D)


def test_raycast_from_inside_the_root_box_with_t_min():
    rng = np.random.default_rng(13)
    O = np.column_stack([rng.uniform(-0.09, 0.09, (10, 2)), rng.uniform(-0.02, 0.02, 10)])
    O = np.repeat(O, 20, axis=0)  # ten fans of 20 rays
    D = rng.standard_normal((200, 3))
    root = BUMPY._accel
    assert np.all((O >= root.bmin[0]) & (O <= root.bmax[0]))
    for t_min in (1e-9, 0.01, 0.05):
        t, _ = assert_rays_are_brute(BUMPY, O, D, t_min)
        assert np.all(t[np.isfinite(t)] >= t_min)


def test_raycast_batch_mixes_hits_and_misses():
    rng = np.random.default_rng(14)
    O = np.repeat(np.column_stack([rng.uniform(-0.13, 0.13, (6, 2)), np.full(6, 0.25)]), 50, axis=0)
    D = np.column_stack([rng.uniform(-0.3, 0.3, (300, 2)), rng.choice([-1.0, 1.0], 300)])
    t, face = assert_rays_are_brute(BUMPY, O, D)
    assert 30 < np.isfinite(t).sum() < 270
    assert np.all((face == -1) == ~np.isfinite(t))


def test_rays_in_the_plane_of_a_tilted_sheet_hit_nothing():
    # from a vertex of a flat tilted sheet through the others, det is
    # rounding (about 1e-20) on thousands of ray-face pairs, not 0: each such
    # face is rejected as parallel rather than giving a noise hit
    tilt = 0.3
    u = np.array([math.cos(tilt), 0.0, math.sin(tilt)])
    n = np.array([-math.sin(tilt), 0.0, math.cos(tilt)])
    xs = np.linspace(-0.1, 0.1, 7)
    mesh = grid_surface_mesh(np.zeros(3), u, np.array([0.0, 1.0, 0.0]), n, xs, xs, np.zeros((7, 7)))
    o = mesh.vertices[24]
    D = np.delete(mesh.vertices - o, 24, axis=0)
    t, _ = assert_rays_are_brute(mesh, o, D)
    assert not np.isfinite(t).any()


def test_distinct_origin_rays_parallel_to_the_faces():
    # fans of horizontal rays from origins over and in the flat sheet are
    # parallel to every face: det is 0 and all miss. Tilted by a sine of
    # 1e-7 they stay under PARALLEL_SIN and still miss; by 1e-5 those that
    # start 1e-9 above the sheet reach it, some only past t_min
    rng = np.random.default_rng(17)
    n = 120
    heights = np.repeat([0.0, 1e-9, 0.01], 4)
    O = np.repeat(np.column_stack([rng.uniform(-0.09, 0.09, (12, 2)), heights]), n // 12, axis=0)
    D = np.column_stack([rng.standard_normal((n, 2)), np.zeros(n)])
    for t_min in (0.0, 1e-9, 5e-5):
        t, _ = assert_rays_are_brute(FLAT, O, D, t_min)
        assert not np.isfinite(t).any()
        D[:, 2] = -1e-7 * np.linalg.norm(D[:, :2], axis=1)
        t, _ = assert_rays_are_brute(FLAT, O, D, t_min)
        assert not np.isfinite(t).any()
        D[:, 2] *= 100.0
        t, _ = assert_rays_are_brute(FLAT, O, D, t_min)
        assert np.isfinite(t[O[:, 2] == 1e-9]).any() and not np.isfinite(t[O[:, 2] == 0.01]).any()
        D[:, 2] = 0.0


def test_raycast_weights_and_point_are_the_per_lane_formula():
    # raycast recomputes its winner's u and v with the split kernel; they,
    # the weights and the point must be the per-lane formula's bit for bit
    rng = np.random.default_rng(18)
    hits = 0
    for mesh in (BUMPY, FLAT):
        acc = mesh._accel
        for _ in range(60):
            o = np.array([*rng.uniform(-0.12, 0.12, 2), rng.uniform(0.05, 0.3)])
            d = np.array([*rng.uniform(-0.4, 0.4, 2), -1.0])
            t_min = float(rng.choice([0.0, 0.05]))
            hit = mesh.raycast(o, d, t_min)
            t_all, u_all, v_all = (x[0] for x in mesh_rays(mesh, o, d, t_min))
            k = int(np.argmin(t_all))
            if not np.isfinite(t_all[k]):
                assert hit is None
                continue
            hits += 1
            u, v = u_all[k], v_all[k]
            assert (hit.face, hit.t) == (k, t_all[k])
            assert hit.barycentric.tobytes() == np.array([1.0 - u - v, u, v]).tobytes()
            assert hit.point.tobytes() == (acc.A[k] + u * acc.eab[k] + v * acc.eac[k]).tobytes()
    assert hits > 60


@pytest.mark.parametrize("span", [1e-310, 1e-300, 1e-20, 1e-13])
def test_raycast_fan_with_a_vanishing_image_span(span):
    # the fan's image y-extent is 49 span, down to subnormal, where a ratio
    # of the two extents would overflow: under MIN_SPAN the axis gets one cell
    mesh = flat_phantom_mesh(np.zeros(3))
    D = np.column_stack([np.linspace(-0.1, 0.1, 50), np.arange(50) * span, -np.ones(50)])
    t, _ = assert_rays_are_brute(mesh, np.array([0.0, 0.0, 1.0]), D)
    assert np.isfinite(t).all()


def test_raycast_blocks_match_rays_sent_one_at_a_time(monkeypatch):
    rng = np.random.default_rng(15)
    o = np.array([0.01, -0.02, 0.25])
    D = np.column_stack([rng.uniform(-0.3, 0.3, (23, 2)), -np.ones(23)])
    D[:5, :2] = 0.0
    monkeypatch.setattr(mesh_module, "RAY_BLOCK", 4)
    t, face = assert_rays_are_brute(BUMPY, o, D)
    for i in range(len(D)):
        ti, fi = BUMPY.raycast_batch(o, D[i : i + 1])
        assert (ti.tobytes(), fi[0]) == (t[i : i + 1].tobytes(), face[i])


def test_raycast_batch_rejects_malformed_rays():
    o, D = np.array([0.0, 0.0, 0.3]), np.tile([0.0, 0.0, -1.0], (3, 1))
    # an (n, 3) origin array, a (3, 1) origin, a short origin, and 1-D,
    # (n, 2) or (2, 2, 3) directions
    for bad_o, bad_d in ((np.tile(o, (3, 1)), D), (o.reshape(3, 1), D), (o[:2], D), (o, D[0]),
                         (o, np.zeros((4, 2))), (o, np.zeros((2, 2, 3)))):
        with pytest.raises(ValueError, match=re.escape(f"got {bad_o.shape} and {bad_d.shape}")):
            BUMPY.raycast_batch(bad_o, bad_d)
    # one ray is two 3-vectors: not a column, a (1, 1, 3) array or a (1, 3) row
    for bad_o, bad_d in ((o.reshape(3, 1), D[0].reshape(3, 1)), (o.reshape(3, 1), D[0]),
                         (o[None, None], D[:1, None]), (o, D[:1])):
        with pytest.raises(ValueError, match="3-vector"):
            BUMPY.raycast(bad_o, bad_d)
    # nor a batch of two, whichever ray comes first
    flat = flat_phantom_mesh(np.zeros(3))
    for origins in ([[5.0, 5.0, 1.0], [0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0], [5.0, 5.0, 1.0]]):
        with pytest.raises(ValueError, match=r"two 3-vectors; got \(2, 3\), \(2, 3\)"):
            flat.raycast(origins, [[0.0, 0.0, -1.0]] * 2)
    for value in (np.nan, np.inf):
        bad = D.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            BUMPY.raycast_batch([0.0, value, 0.3], D)
        with pytest.raises(ValueError, match="finite"):
            BUMPY.raycast_batch(o, bad)
        with pytest.raises(ValueError, match="finite"):
            BUMPY.raycast(o, [0.0, value, -1.0])
    for t_min in (-1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_min"):
            BUMPY.raycast_batch(o, D, t_min)


def test_wide_ray_fans_split_into_groups_and_stay_brute_force():
    o = np.array([0.01, -0.02, 0.05])
    rng = np.random.default_rng(16)
    narrow = np.column_stack([rng.uniform(-0.5, 0.5, (50, 2)), -np.ones(50)])
    wide = rng.standard_normal((200, 3))
    for D, groups in ((narrow, 1), (wide, 6)):
        assert len(list(mesh_module._ray_groups(D.T))) == groups
        t, _ = assert_rays_are_brute(BUMPY, o, D)
        assert np.isfinite(t).sum() > len(D) // 4
    assert not np.isfinite(t).all()  # the wide fan's upward rays miss


def test_cap_depth_views_are_brute_force():
    # the pipeline's cap phantom and orbit, at a sixth of the camera's
    # resolution; the second view looks along a diagonal of the grid
    cap = cap_phantom_mesh(np.zeros(3))
    cam = CameraIntrinsics(30.0, 30.0, 20.0, 15.0, 40, 30)
    plane = ScenePlane(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    for pose in orbit_trajectory(plane, 8, math.radians(45.0), 0.30)[:2]:
        img = render_depth(cap, cam, pose)
        D = cam.pixel_dirs() @ pose.rotation.T
        t, _ = brute_rays(cap, pose.translation, D, 1e-9)
        assert img.depths.tobytes() == np.where(np.isfinite(t), t, 0.0).reshape(30, 40).tobytes()
        assert 0 < np.isfinite(t).sum() < len(t)


def test_bvh_build_leaves_no_cyclic_garbage():
    bumpy_mesh(seed=3)._accel  # first use may import lazily
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        mesh = bumpy_mesh(seed=4)
        mesh._accel
        assert gc.collect() == 0
        # nearest's lists live on the accelerator and refer to nothing that
        # refers back, so dropping the mesh frees them without the collector
        hint = None
        for p in mesh.vertices[::5] + np.array([0.0, 0.0, 0.01]):
            hint = mesh.closest_point(p, hint).face
        assert mesh._accel.entries
        del mesh
        assert gc.collect() == 0
    finally:
        gc.enable()


def reference_tree(mesh):
    """The median-split tree built one node at a time, breadth first, so a
    split node's children take adjacent ids: the _Accel arrays bmin, bmax,
    left, count and leaf_faces."""
    v, f = mesh.vertices, mesh.faces
    A, B, C = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    fmin = np.minimum(np.minimum(A, B), C)
    fmax = np.maximum(np.maximum(A, B), C)
    pad = 1e-9 * max(np.abs(fmin).max(), np.abs(fmax).max())
    fmin, fmax = fmin - pad, fmax + pad
    centroids = (A + B + C) / 3.0
    perm = np.arange(len(f))
    tree = {k: [] for k in ("bmin", "bmax", "left", "count")}
    runs = []
    queue = collections.deque([(0, len(f))])  # (lo, hi) in id order
    while queue:
        lo, hi = queue.popleft()
        idx = len(tree["bmin"])
        sub = perm[lo:hi]
        is_leaf = hi - lo <= LEAF_SIZE
        # children take the next two ids after every node already queued
        left = -1 if is_leaf else idx + len(queue) + 1
        for k, x in (("bmin", fmin[sub].min(axis=0)), ("bmax", fmax[sub].max(axis=0)),
                     ("left", left), ("count", hi - lo if is_leaf else 0)):
            tree[k].append(x)
        runs.append(lo)
        if is_leaf:
            continue
        cen = centroids[sub]
        axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
        perm[lo:hi] = sub[np.argsort(cen[:, axis], kind="stable")]
        mid = (lo + hi) // 2
        queue += [(lo, mid), (mid, hi)]
    tree = {k: np.array(x) for k, x in tree.items()}
    tree["leaf_faces"] = np.zeros((len(tree["count"]), LEAF_SIZE), dtype=np.int64)
    for node in np.flatnonzero(tree["count"]):
        run = np.sort(perm[runs[node] : runs[node] + tree["count"][node]])
        tree["leaf_faces"][node] = run[np.minimum(np.arange(LEAF_SIZE), len(run) - 1)]
    return tree


def assert_same_tree(mesh):
    acc = mesh._accel
    for name, want in reference_tree(mesh).items():
        got = getattr(acc, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("make", [lambda: flat_phantom_mesh(np.zeros(3)),
                                  lambda: cap_phantom_mesh(np.zeros(3))], ids=["flat", "cap"])
def test_level_build_is_the_reference_tree(make):
    assert_same_tree(make())


@pytest.mark.parametrize("k, leaves", [(1, 1), (LEAF_SIZE, 1), (LEAF_SIZE + 1, 2),
                                       (2 * LEAF_SIZE + 1, 3), (3 * LEAF_SIZE, 4)])
def test_level_build_on_face_subsets(k, leaves):
    # root leaves, and splits whose two sides end at different depths
    mesh = TriMesh(BUMPY.vertices, BUMPY.faces[:: len(BUMPY.faces) // k][:k])
    assert mesh.n_faces == k and (mesh._accel.count > 0).sum() == leaves
    assert_same_tree(mesh)


def test_closest_points_rows_match_single_queries():
    rng = np.random.default_rng(8)
    pts = np.vstack([rng.uniform(-0.15, 0.15, (40, 3)), BUMPY.vertices[:10]])
    dist, face, point, bary = closest_points(BUMPY, pts)
    assert dist.shape == face.shape == (50,) and point.shape == bary.shape == (50, 3)
    for i, p in enumerate(pts):
        hit = BUMPY.closest_point(p)
        assert (hit.face, hit.distance) == (face[i], dist[i])
        assert np.array_equal(hit.point, point[i]) and np.array_equal(np.array(hit.weights), bary[i])
    assert BUMPY.distances(pts).tobytes() == np.abs(dist).tobytes()
    assert len(closest_points(BUMPY, np.empty((0, 3)))[0]) == 0
    assert BUMPY.distances(np.empty((0, 3))).shape == (0,)
    for query in (lambda P: closest_points(BUMPY, P), BUMPY.distances):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                query(np.array([[0.0, 0.0, 0.0], [0.0, bad, 0.0]]))
        # only (n, 3): a (2, 6) array is not four points, nor a 3-vector one
        for shape in ((2, 6), (3,), (2, 3, 1), (0,)):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                query(np.zeros(shape))


@pytest.mark.parametrize("hinted", [False, True], ids=["unhinted", "hinted"])
def test_closest_point_rejects_non_finite_queries(hinted):
    # NaN and either infinity in each coordinate, unhinted and hinted with a
    # face whose list entry is filled; a finite query still answers after
    mesh = bumpy_mesh()
    hint = mesh.closest_point(np.zeros(3)).face if hinted else None
    for k in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            p = np.zeros(3)
            p[k] = bad
            with pytest.raises(ValueError, match="finite"):
                mesh.closest_point(p, hint)
    assert single_bits(mesh, np.zeros(3), hint) == single_bits(BUMPY, np.zeros(3))


def hit_bits(face, distance, point, bary):
    return int(face), float(distance).hex(), point.tobytes(), bary.tobytes()


def single_bits(mesh, p, hint=None):
    hit = mesh.closest_point(p, hint)
    return hit_bits(hit.face, hit.distance, hit.point, np.array(hit.weights))


@pytest.mark.parametrize("make", [lambda: flat_phantom_mesh(np.zeros(3)),
                                  lambda: cap_phantom_mesh(np.zeros(3))], ids=["flat", "cap"])
def test_hinted_chain_matches_batched_rows(make):
    # a probe-like path, each query hinted with the previous query's face
    # as the control step does, against the independent batched traversal;
    # every 25th point is a mesh vertex, where faces tie
    mesh = make()
    s = np.linspace(0.0, 1.0, 600)
    pts = np.column_stack([0.08 * np.cos(3.0 * s), 0.06 * np.sin(5.0 * s), 0.02 + 0.03 * np.sin(7.0 * s)])
    pts[::25] = mesh.vertices[np.random.default_rng(5).integers(0, len(mesh.vertices), 24)]
    dist, face, point, bary = closest_points(mesh, pts)
    hint = None
    for i, p in enumerate(pts):
        assert single_bits(mesh, p, hint) == hit_bits(face[i], dist[i], point[i], bary[i])
        hint = int(face[i])


def test_deep_tree_walk_from_near_and_far_hints():
    # the 7200-face cap, ten levels deep: each query of a probe-like path is
    # hinted with the previous winner, and with the first face of the leaf
    # whose box centre is farthest away, whose list entry, when it has one,
    # was left by an earlier far query; every 20th point is a vertex
    mesh = cap_phantom_mesh(np.zeros(3))
    acc = mesh._accel
    assert mesh.n_faces == 7200
    s = np.linspace(0.0, 1.0, 600)
    pts = np.column_stack([0.11 * np.sin(4.0 * s), 0.1 * np.cos(3.0 * s) - 0.01, 0.045 * np.cos(9.0 * s)])
    pts[::20] = mesh.vertices[np.random.default_rng(12).integers(0, len(mesh.vertices), 30)]
    dist, face, point, bary = closest_points(mesh, pts)
    leaves = np.flatnonzero(acc.count)
    centres = 0.5 * (acc.bmin[leaves] + acc.bmax[leaves])
    far = acc.leaf_faces[leaves[np.argmax(((pts[:, None, :] - centres) ** 2).sum(axis=2), axis=1)], 0]
    hint = None
    for i, p in enumerate(pts):
        want = hit_bits(face[i], dist[i], point[i], bary[i])
        assert single_bits(mesh, p, hint) == want
        assert single_bits(mesh, p, int(far[i])) == want
        hint = int(face[i])


def cap_batch(n, seed):
    # mesh_error-like points on the cap: surface samples moved up to 2 mm
    # off it, with every 10th a distinct vertex (where faces tie) and every
    # 25th a point up to half a metre away
    mesh = cap_phantom_mesh(np.zeros(3))
    rng = np.random.default_rng(seed)
    pts = mesh.sample_surface(n, rng) + rng.uniform(-2e-3, 2e-3, (n, 3))
    pts[::10] = mesh.vertices[rng.choice(len(mesh.vertices), len(pts[::10]), replace=False)]
    pts[5::25] = rng.uniform(-0.5, 0.5, (len(pts[5::25]), 3))
    return mesh, pts


@pytest.mark.parametrize("n", [0, 1, 7, 8, 15, 303])
def test_closest_points_across_point_blocks(n, monkeypatch):
    # batches split into blocks of 7 points, one block and a part: the
    # oracle's rows and the distance walk's against unhinted single queries
    # bit for bit
    monkeypatch.setattr(mesh_module, "POINT_BLOCK", 7)
    mesh, pts = cap_batch(n, seed=31)
    dist, face, point, bary = closest_points(mesh, pts)
    assert dist.shape == face.shape == (n,) and point.shape == bary.shape == (n, 3)
    assert_chain_is_batched(mesh, pts, [None] * n)


@pytest.mark.parametrize("k", [1, LEAF_SIZE, LEAF_SIZE + 1, 2 * LEAF_SIZE + 1])
def test_closest_points_on_root_leaves_and_shallow_trees(k):
    # a root leaf has no descent and no passed-over sibling
    mesh = TriMesh(BUMPY.vertices, BUMPY.faces[:: len(BUMPY.faces) // k][:k])
    pts = np.vstack([mesh.vertices[mesh.faces[0]], np.random.default_rng(k).uniform(-0.15, 0.15, (20, 3))])
    assert_chain_is_batched(mesh, pts, [None] * len(pts))


class LeafSpy:
    """Wraps one _Accel's _point_min: the (point, leaf, least d2) arrays of
    each call, in call order; the first call of a distance_batch is its
    seed pass."""

    def __init__(self, acc):
        self.calls, self.point_min = [], acc._point_min
        acc._point_min = self

    def __call__(self, P, pt, leaf):
        val = self.point_min(P, pt, leaf)
        self.calls.append((pt.copy(), leaf.copy(), val.copy()))
        return val


def test_batched_walk_tests_each_box_once():
    # the bounded pass starts at the siblings the descent passed over, so
    # no (point, node) box distance is computed twice in one block
    mesh, pts = cap_batch(2000, seed=32)
    acc = mesh._accel
    row = {p.tobytes(): i for i, p in enumerate(pts)}
    assert len(row) == len(pts)
    tested = collections.Counter()
    box_d2 = acc._box_d2

    def counted(P, node):
        tested.update(zip([row[p.tobytes()] for p in P.T], np.broadcast_to(node, P.shape[1]).tolist()))
        return box_d2(P, node)

    acc._box_d2 = counted
    acc.distance_batch(pts)
    del acc._box_d2
    assert len(tested) > 20 * len(pts)
    assert max(tested.values()) == 1


@pytest.mark.parametrize("make", [lambda: flat_phantom_mesh(np.zeros(3)),
                                  lambda: cap_phantom_mesh(np.zeros(3))], ids=["flat", "cap"])
def test_point_on_a_face_ends_at_its_seed_leaf(make):
    # a vertex lies on its faces at kernel d2 0; when its greedy descent
    # reaches a leaf holding one of them, the bound is 0 and no box is
    # strictly nearer, though the boxes of neighbouring leaves touch it
    mesh = make()
    acc = mesh._accel
    spy = LeafSpy(acc)
    d2 = acc.distance_batch(mesh.vertices)
    assert not d2.any()
    seed_pt, _, seed_d2 = spy.calls[0]
    on_seed = seed_pt[seed_d2 == 0.0]
    assert len(on_seed) > 0.5 * len(mesh.vertices)
    later = np.concatenate([pt for pt, _, _ in spy.calls[1:]])
    assert not np.isin(later, on_seed).any()
    # the other vertices reach a zero too, by leaves beyond the seed
    assert np.isin(np.setdiff1d(np.arange(len(d2)), on_seed), later).all()
    # other leaves' boxes hold some of them too: a walk that kept boxes
    # tying the bound would go on to those leaves
    leaves = np.flatnonzero(acc.count)
    v = mesh.vertices[on_seed[:300], None]
    assert ((acc.bmin[leaves] <= v) & (v <= acc.bmax[leaves])).all(axis=2).sum() > len(v)


def test_each_reached_leaf_beats_the_bound_its_point_had():
    # after the seed pass, a (point, leaf) pair is evaluated only while its
    # box distance is strictly below the least d2 its point's earlier
    # leaves gave: the bound falls as leaves report
    mesh, pts = cap_batch(2000, seed=33)
    acc = mesh._accel
    spy = LeafSpy(acc)
    d2 = acc.distance_batch(pts)
    bound = np.full(len(pts), np.inf)
    rows = np.ascontiguousarray(pts.T)
    for k, (pt, leaf, val) in enumerate(spy.calls):
        if k:
            assert (acc._box_d2(rows.take(pt, axis=1), leaf) < bound[pt]).all(), k
        np.minimum.at(bound, pt, val)
    assert bound.tobytes() == d2.tobytes()
    assert len(spy.calls) > 3


def assert_chain_is_batched(mesh, pts, hints=None):
    # each point hinted with hints[i], or else with the previous winner as
    # the control step does, bit for bit against the batched rows, whose
    # distances the distance walk returns bit for bit
    dist, face, point, bary = closest_points(mesh, pts)
    assert mesh.distances(pts).tobytes() == np.abs(dist).tobytes()
    hint = None
    for i, p in enumerate(pts):
        if hints is not None:
            hint = hints[i]
        assert single_bits(mesh, p, hint) == hit_bits(face[i], dist[i], point[i], bary[i]), i
        hint = int(face[i])


def segment(a, b, n):
    # n + 1 points from a to b, both ends exact
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    pts = a + t * (b - a)
    pts[-1] = b
    return pts


@pytest.mark.parametrize("make, lift", [(flat_phantom_mesh, 0.002), (cap_phantom_mesh, 0.042)],
                         ids=["flat", "cap"])
def test_simulated_tips_match_batched_rows(make, lift, monkeypatch):
    # the loop's own queries: a probe that ramps into the phantom while it
    # drifts across the grid, every query as the step hinted it
    model = reference_arm()
    q0 = np.array([0.0, 0.5, 0.0, -1.0, 0.0, 0.5, 0.0])
    centre = arm_snapshot(model, q0).probe.translation - np.array([0.0, 0.0, lift])
    mesh = make(centre)
    chart = SurfaceChart(mesh, ScenePlane(centre, np.array([0.0, 0.0, 1.0])))
    gains = ImpedanceGains(np.diag([300.0, 300.0, 500.0, 5.0, 5.0, 1.0]),
                           np.diag([35.0, 35.0, 140.0, 0.9, 0.9, 0.4]))
    rate = np.array([0.03, 0.02, -0.01, 0.0, 0.0, 0.0])
    calls = []
    query = TriMesh.closest_point

    def recorded(m, p, hint=None):
        calls.append((np.array(p, dtype=float), hint))
        return query(m, p, hint)

    monkeypatch.setattr(TriMesh, "closest_point", recorded)
    simulate(model, chart, PhantomModel(mesh, 500.0, 20.0), gains,
             lambda t: Setpoint(rate * t + np.array([0.0, 0.0, 0.002, 0.0, 0.0, 0.0]), rate), q0, 0.4)
    monkeypatch.undo()
    pts, hints = np.array([p for p, _ in calls]), [h for _, h in calls]
    assert len(pts) == 401 and sum(h is not None for h in hints) == 400
    assert np.ptp(pts[:, 0]) > 0.005  # it crosses grid cells
    assert_chain_is_batched(mesh, pts, hints)


def two_patches():
    # two 8-face patches 1 mm across and 1 m apart, one leaf each: a query
    # near one lists all of its faces, and only the other leaf's box bounds
    # the guard
    xs = np.linspace(-0.0005, 0.0005, 3)
    near = grid_surface_mesh(np.zeros(3), *np.eye(3), xs, xs, np.zeros((3, 3)))
    far = np.array([1.0, 0.0, 0.0]) + near.vertices
    mesh = TriMesh(np.vstack([near.vertices, far]), np.vstack([near.faces, near.faces + len(far)]))
    leaves = mesh._accel.leaf_faces[mesh._accel.count > 0]
    assert sorted(map(tuple, leaves)) == [tuple(range(8)), tuple(range(8, 16))]
    return mesh


def test_long_jumps_between_and_across_patches():
    # each query jumps to the other patch, or part of the way there, hinted
    # with the last winner: its list names only faces of the patch it left
    mesh = two_patches()
    rng = np.random.default_rng(3)
    above = np.array([0.0, 0.0, 0.001])
    hops = [rng.uniform(-0.001, 0.001, 3) + np.array([x, 0.0, 0.0]) for x in (0.0, 1.0) * 10]
    between = segment(above, np.array([1.0, 0.0, 0.001]), 12)
    assert_chain_is_batched(mesh, np.vstack([hops, between, between[::-1], above + [0.0, 0.0, 5.0]]))


def test_long_jumps_on_the_phantoms():
    for mesh in (flat_phantom_mesh(np.zeros(3)), cap_phantom_mesh(np.zeros(3))):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.08, 0.08, (120, 3))
        pts[::3] *= 10.0  # far outside the mesh
        pts[1::3, 2] = rng.uniform(-0.002, 0.002, 40)  # near the surface
        assert_chain_is_batched(mesh, pts)


def test_streams_through_shared_vertices_and_edges():
    # 10 um steps along grid lines, along the cells' diagonal edges and
    # across them, through vertices exactly, on the surface, below and
    # above it: every vertex and edge is a tie between its faces
    mesh = flat_phantom_mesh(np.zeros(3))
    v = mesh.vertices
    i = 31 * 15 + 15  # a central vertex; its row and column neighbours are 1 and 31 away
    # two cells along a row and a column, and along both diagonals
    legs = [(v[i], v[i + 2]), (v[i], v[i + 62]), (v[i], v[i + 64]), (v[i + 2], v[i + 62])]
    lift = np.array([0.0, 0.0, 1.0])
    pts = [segment(a, b, round(np.linalg.norm(b - a) / 1e-5)) + h * lift
           for a, b in legs for h in (0.0, -0.002, 0.001)]
    assert_chain_is_batched(mesh, np.vstack(pts))


def test_hints_naming_stale_entries_and_far_faces():
    mesh = cap_phantom_mesh(np.zeros(3))
    s = np.linspace(0.0, 1.0, 300)
    first = np.column_stack([0.05 * np.cos(6.0 * s), 0.05 * np.sin(6.0 * s), 0.03 + 0.01 * s])
    assert_chain_is_batched(mesh, first)
    stale = sorted(mesh._accel.entries)
    assert len(stale) > 5
    rng = np.random.default_rng(6)
    second = first[::-1] + np.array([0.0, 0.0, -0.004])
    assert_chain_is_batched(mesh, second, [stale[k] for k in rng.integers(0, len(stale), len(second))])
    assert_chain_is_batched(mesh, second, [int(k) for k in rng.integers(0, mesh.n_faces, len(second))])


def test_results_do_not_depend_on_query_history():
    # one stream with random hints on a fresh mesh and on one whose entries
    # an unrelated stream filled
    rng = np.random.default_rng(7)
    s = np.linspace(0.0, 1.0, 400)
    pts = np.column_stack([0.04 * np.cos(5.0 * s), 0.05 * s, 0.035 + 0.002 * np.sin(40.0 * s)])
    hints = [None] + [int(h) for h in rng.integers(0, 7200, len(pts) - 1)]
    used = cap_phantom_mesh(np.zeros(3))
    assert_chain_is_batched(used, np.vstack([rng.uniform(-0.06, 0.06, (200, 3)), pts[::-7] + 0.0007]))
    assert len(used._accel.entries) > 50
    fresh = cap_phantom_mesh(np.zeros(3))
    assert [single_bits(fresh, p, h) for p, h in zip(pts, hints)] == [single_bits(used, p, h) for p, h in
                                                                       zip(pts, hints)]
    assert_chain_is_batched(used, pts, hints)


@pytest.mark.parametrize("skin", [0.0, 1e-6, 1.0], ids=["zero", "tiny", "past-the-mesh"])
def test_any_skin_gives_the_same_results(skin, monkeypatch):
    monkeypatch.setattr(mesh_module, "SKIN", skin)
    s = np.linspace(0.0, 1.0, 120)
    pts = np.column_stack([0.05 * np.sin(3.0 * s), 0.04 * s, 0.03 - 0.035 * s])
    pts[::12] = cap_phantom_mesh(np.zeros(3)).vertices[900::300][:10]
    if skin == 1.0:
        pts = pts[::4]  # each query evaluates most of the faces
    for mesh in (flat_phantom_mesh(np.zeros(3)), cap_phantom_mesh(np.zeros(3))):
        assert_chain_is_batched(mesh, pts)
        if skin == 1.0:
            (rows, guard), = {(len(e[1]), e[2]) for e in mesh._accel.entries.values()}
            assert rows == mesh.n_faces and guard == math.inf


def test_a_coherent_stream_takes_few_walks(monkeypatch):
    # 10 um steps pressing 1 mm into the flat phantom, as the raster does:
    # the lists answer almost every query
    walks = []
    walk = mesh_module._Accel._walk

    def counted(acc, p, best_d2):
        walks.append(p)
        return walk(acc, p, best_d2)

    monkeypatch.setattr(mesh_module._Accel, "_walk", counted)
    pts = segment(np.array([-0.02, 0.003, -0.001]), np.array([0.02, 0.0031, -0.001]), 4000)
    assert_chain_is_batched(flat_phantom_mesh(np.zeros(3)), pts)
    assert len(walks) < 0.02 * len(pts)


@pytest.mark.parametrize("make", [lambda: flat_phantom_mesh(np.zeros(3)),
                                  lambda: cap_phantom_mesh(np.zeros(3))], ids=["flat", "cap"])
@pytest.mark.parametrize("cold", [False, True], ids=["hinted", "cold"])
def test_every_list_entry_is_sound(make, cold):
    # each entry a stream leaves, brute-forced from its anchor: the rows are
    # the faces within the walk's final bound, (sqrt(best) + SKIN)^2, in
    # (distance, face) order, and the guard lies past that bound and at or
    # below the distance of every face left out
    mesh = make()
    acc = mesh._accel
    rng = np.random.default_rng(8)
    s = np.linspace(0.0, 1.0, 400)
    pts = np.column_stack([0.08 * np.cos(3.0 * s), 0.06 * np.sin(5.0 * s), 0.02 + 0.03 * np.sin(7.0 * s)])
    pts[::25] = mesh.vertices[rng.integers(0, len(mesh.vertices), 16)]  # ties between faces
    if cold:
        pts = rng.uniform(-0.08, 0.08, (120, 3))
        pts[1::3, 2] = rng.uniform(-0.002, 0.002, 40)  # near the surface
    assert_chain_is_batched(mesh, pts, [None] * len(pts) if cold else None)
    assert len(acc.entries) > 10
    corners = (acc.A, acc.B, acc.C)
    for win, (anchor, rows, guard) in acc.entries.items():
        d2 = closest_point_triangles(np.array(anchor), *corners)[0]
        assert win == int(np.argmin(d2))
        best = float(d2[win])
        bound = max(best, (math.sqrt(best) + mesh_module.SKIN) ** 2)
        listed = d2 <= bound
        assert [(da, f) for da, f, *_ in rows] == sorted(
            (math.sqrt(x), f) for f, x in enumerate(d2.tolist()) if listed[f])
        assert all([a, b, c] == [x[f].tolist() for x in corners] for _, f, a, b, c in rows)
        assert math.sqrt(bound) < guard <= math.sqrt(d2[~listed].min(initial=math.inf))


@pytest.mark.parametrize("short", [0.0, 0.5], ids=["at-the-slack", "half-the-slack"])
def test_an_entry_is_trusted_only_with_the_slack_to_spare(short):
    # a forged entry, anchored at the query point, lists only a face that
    # does not win there, and its guard misses the certificate by `short`
    # of the slack: the query must not trust it. No real entry comes this
    # close, for rounding is some 1e-7 of the slack
    mesh = flat_phantom_mesh(np.zeros(3))
    acc = mesh._accel
    p = np.array([0.0012, 0.0007, -0.001])
    want = single_bits(mesh, p)
    wrong = (want[0] + 2) % mesh.n_faces
    a, b, c = (x[wrong].tolist() for x in (acc.A, acc.B, acc.C))
    da = math.sqrt(mesh_module.closest_point_scalar(p.tolist(), a, b, c)[0])
    acc.entries[wrong] = (tuple(p.tolist()), [(da, wrong, a, b, c)], da + (1.0 - short) * acc.pad)
    assert single_bits(mesh, p, wrong) == want


def test_single_point_walk_runs_no_numpy_kernel(monkeypatch):
    # a fresh mesh, so the walk also builds its leaf rows under the patch
    mesh = bumpy_mesh(seed=7)
    pts = np.vstack([np.random.default_rng(9).uniform(-0.12, 0.12, (30, 3)), mesh.vertices[::40]])
    want = [single_bits(bumpy_mesh(seed=7), p) for p in pts]

    def forbidden(*args):
        raise AssertionError("numpy kernel called")

    monkeypatch.setattr(mesh_module, "_region_weights", forbidden)
    for i, p in enumerate(pts):
        for hint in (None, 0, 37 * i % mesh.n_faces):
            assert single_bits(mesh, p, hint) == want[i]


def test_scalar_kernel_division_falls_back_to_numpy(monkeypatch):
    # make the scalar kernel fail on each query's winning face: the walk
    # must take that face's values from the numpy kernel, same bits
    mesh = bumpy_mesh(seed=6)
    acc = mesh._accel
    pts = np.vstack([np.random.default_rng(4).uniform(-0.12, 0.12, (20, 3)), mesh.vertices[::50]])
    want = [single_bits(mesh, p) for p in pts]
    bad = {tuple(acc.A[w[0]].tolist() + acc.B[w[0]].tolist()) for w in want}
    scalar, kernel = mesh_module.closest_point_scalar, mesh_module._region_weights
    fallbacks = []

    def failing(p, a, b, c):
        if tuple(list(a) + list(b)) in bad:
            raise ZeroDivisionError("float division by zero")
        return scalar(p, a, b, c)

    def counted(*args):
        fallbacks.append(1)
        return kernel(*args)

    monkeypatch.setattr(mesh_module, "closest_point_scalar", failing)
    monkeypatch.setattr(mesh_module, "_region_weights", counted)
    for p, w in zip(pts, want):
        for hint in (None, w[0], 0):
            assert single_bits(mesh, p, hint) == w
    assert len(fallbacks) >= 3 * len(pts)


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
    normals = mesh._accel.face_normals
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
    assert TriMesh(v, np.array([[0.0, 1.0, 2.0]])).faces.tolist() == [[0, 1, 2]]
    for bad in ([[0, 1.7, 2.2]], [[0, math.nan, 2]], [[0, 1, math.inf]]):
        with pytest.raises(ValueError, match="whole numbers"):
            TriMesh(v, np.array(bad))
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


def fstring_off(vertices, faces) -> bytes:
    # the OFF writer spelled with f-strings and repr, one value at a time
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in vertices]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in faces]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_off_bytes_match_repr_formatting(tmp_path):
    # save_off reads only the two arrays, so extreme values need no valid mesh
    vertices = np.array([[-0.0, 5e-324, 1e-300], [0.1 + 0.2, 1e16, -1.5e-7], [1e300, -2.0**-1074, 123.0]])
    faces = np.array([[0, 1, 2], [2**40, 2**62, 9_999_999_999]], dtype=np.int64)
    path = tmp_path / "extreme.off"
    save_off(SimpleNamespace(vertices=vertices, faces=faces), path)
    assert path.read_bytes() == fstring_off(vertices, faces)
    cap = cap_phantom_mesh(np.zeros(3))
    save_off(cap, path)
    assert path.read_bytes() == fstring_off(cap.vertices, cap.faces)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_off_blocks_are_the_row_at_a_time_form(tmp_path, n):
    # one row short of a block, a block, and a block and one row
    rng = np.random.default_rng(n)
    vertices = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    vertices[::7] = np.round(vertices[::7], 2)
    faces = rng.integers(0, 2**62, (n, 3))
    path = tmp_path / "block.off"
    save_off(SimpleNamespace(vertices=vertices, faces=faces), path)
    assert path.read_bytes() == fstring_off(vertices, faces)


def test_off_round_trip_is_byte_identical_on_cap_and_reconstruction(tmp_path):
    cap = cap_phantom_mesh(np.zeros(3))
    cam = CameraIntrinsics(30.0, 30.0, 20.0, 15.0, 40, 30)
    plane = ScenePlane(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    orbit = orbit_trajectory(plane, 4, math.radians(45.0), 0.30)
    views = [render_depth(cap, cam, pose) for pose in orbit]
    recon = extract_mesh(fuse_views(views, plane, 0.01))
    for mesh in (cap, recon):
        p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
        save_off(mesh, p1)
        assert p1.read_bytes() == fstring_off(mesh.vertices, mesh.faces)
        save_off(load_off(p1), p2)
        assert p2.read_bytes() == p1.read_bytes()
    assert recon.n_faces > OFF_BLOCK


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


@pytest.mark.parametrize("body, text", [
    ("OFF\n3 x 0\n", "invalid literal for int()"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "face index out of range"),
    ("OFF\n3 1 0\n0 0 0\n1 0 zero\n0 1 0\n3 0 1 2\n", "could not convert string to float"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n", "too large"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 \u00e9\n3 0 1 2\n", "codec can't decode"),
    ("OFF\n-1 0 0\n", "negative vertex count -1"),
    ("OFF\n3 -2 0\n0 0 0\n1 0 0\n0 1 0\n", "negative face count -2"),
])
def test_off_errors_name_the_file(tmp_path, body, text):
    p = tmp_path / "named.off"
    p.write_bytes(body.encode("utf-8"))
    with pytest.raises(ValueError, match=f"named.off: .*{re.escape(text)}"):
        load_off(p)


def test_off_rejects_truncated_face_block(tmp_path):
    p = tmp_path / "short.off"
    p.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0\n")
    with pytest.raises(ValueError, match="short.off: truncated face block"):
        load_off(p)


@pytest.mark.parametrize("edit, extra", [
    (lambda text: text.replace(" 8 0\n", " 4 0\n", 1), "16 tokens after the 4 declared faces"),  # understated count
    (lambda text: text + "3 0 1\n", "3 tokens after the 8 declared faces"),  # appended junk
    (lambda text: text + "# a comment\n", None),
], ids=["understated-face-count", "appended-junk", "trailing-comment"])
def test_off_rejects_tokens_after_the_face_block(tmp_path, edit, extra):
    # a flat phantom of 8 faces: a header that declares 4 of them, or junk
    # after them, is an error, not a 4-face or 8-face mesh
    p = tmp_path / "long.off"
    save_off(flat_phantom_mesh(np.zeros(3), 0.05, 3), p)
    p.write_text(edit(p.read_text()))
    if extra is None:
        assert load_off(p).n_faces == 8
        return
    with pytest.raises(ValueError, match=f"long.off: {extra}"):
        load_off(p)
