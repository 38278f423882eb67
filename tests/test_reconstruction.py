"""Depth rendering, height-field fusion, mesh extraction, error metrics."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfscan.geometry import Pose
from surfscan.localization import ScenePlane, orbit_trajectory
from surfscan.mesh import TriMesh, grid_surface_mesh
from surfscan.reconstruction import (
    CameraIntrinsics,
    DepthImage,
    EmptyReconstructionError,
    HeightField,
    extract_mesh,
    fuse_views,
    load_pfm,
    mesh_error,
    render_depth,
    save_pfm,
)

from helpers import pose_from_quat, quat_from_axis_angle
from nearest_oracle import closest_point_triangles

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

CAM = CameraIntrinsics(fx=120.0, fy=120.0, cx=80.0, cy=60.0, width=160, height=120)
PLANE = ScenePlane(np.zeros(3), EZ)

# cap-on-a-skirt phantom: sphere radius 0.10 m, cap height 0.04 m,
# so the rim sits at radius 0.08 m with a 53 degree slope
CAP_R = 0.10
CAP_H = 0.04

# fine enough that the ground sample spacing of the most oblique orbit
# view stays under the 5 mm fusion grid across the phantom footprint
ORBIT_CAM = CameraIntrinsics(fx=180.0, fy=180.0, cx=120.0, cy=90.0, width=240, height=180)


def cap_height(x, y):
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    h = np.sqrt(np.maximum(CAP_R**2 - r2, 0.0)) - (CAP_R - CAP_H)
    return np.maximum(h, 0.0)


def height_mesh(fn, extent=0.15, n=61) -> TriMesh:
    xs = np.linspace(-extent, extent, n)
    ys = np.linspace(-extent, extent, n)
    H = fn(xs[:, None], ys[None, :]) * np.ones((n, n))
    return grid_surface_mesh(np.zeros(3), EX, EY, EZ, xs, ys, H)


def flat_mesh(extent=0.15, n=31) -> TriMesh:
    return height_mesh(lambda x, y: 0.0, extent, n)


def top_down_pose(height=0.30) -> Pose:
    # optical +z points down at the plane
    return pose_from_quat(quat_from_axis_angle(EX, math.pi), np.array([0.0, 0.0, height]))


# ---------------------------------------------------------------------------
# render_depth
# ---------------------------------------------------------------------------


def test_centre_pixel_depth_is_camera_height():
    img = render_depth(flat_mesh(), CAM, top_down_pose(0.30))
    assert abs(img.depths[60, 80] - 0.30) < 1e-9


def test_oblique_pixels_read_z_depth_not_range():
    # z-depth of a flat floor is constant across the image
    img = render_depth(flat_mesh(), CAM, top_down_pose(0.30))
    valid = img.depths[img.depths > 0]
    assert valid.size > 1000
    assert np.all(np.abs(valid - 0.30) < 1e-9)


def test_camera_facing_away_gives_all_invalid():
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 0.3]))
    img = render_depth(flat_mesh(), CAM, pose)  # +z optical axis points up
    assert not (img.depths > 0).any()


def _exhaustive_ray_depth(mesh: TriMesh, origin, direction):
    """Solve every ray-triangle system directly; depth is the smallest
    valid ray parameter (direction has unit z-component in camera terms,
    so the parameter is the z-depth)."""
    A = mesh.vertices[mesh.faces[:, 0]]
    B = mesh.vertices[mesh.faces[:, 1]]
    C = mesh.vertices[mesh.faces[:, 2]]
    M = np.stack([np.broadcast_to(-direction, A.shape), B - A, C - A], axis=-1)
    rhs = (origin - A)[:, :, None]
    det = np.linalg.det(M)
    ok = np.abs(det) > 1e-18
    sol = np.full((len(A), 3), np.nan)
    sol[ok] = np.linalg.solve(M[ok], rhs[ok])[:, :, 0]
    t, u, v = sol[:, 0], sol[:, 1], sol[:, 2]
    hit = ok & (t >= 1e-9) & (u >= -1e-10) & (v >= -1e-10) & (u + v <= 1 + 1e-10)
    if not hit.any():
        return None
    return float(t[hit].min())


def test_random_pixels_match_exhaustive_intersection():
    rng = np.random.default_rng(7)
    xs = np.linspace(-0.15, 0.15, 21)
    H = 0.03 * rng.standard_normal((21, 21)).cumsum(axis=0) * 0.1
    mesh = grid_surface_mesh(np.zeros(3), EX, EY, EZ, xs, xs, H)
    pose = pose_from_quat(
        quat_from_axis_angle(np.array([1.0, 0.2, 0.0]), math.pi * 0.95),
        np.array([0.02, -0.03, 0.35]),
    )
    img = render_depth(mesh, CAM, pose)
    dirs = CAM.pixel_dirs().reshape(CAM.height, CAM.width, 3)
    R = pose.rotation
    for _ in range(40):
        v = int(rng.integers(0, CAM.height))
        u = int(rng.integers(0, CAM.width))
        expect = _exhaustive_ray_depth(mesh, pose.translation, R @ dirs[v, u])
        if expect is None:
            assert img.depths[v, u] == 0.0
        else:
            assert abs(img.depths[v, u] - expect) < 1e-9


def test_depth_noise_statistics_and_seeding():
    cam = CameraIntrinsics(120.0, 120.0, 80.0, 60.0, 160, 120, depth_noise_sigma=0.001)
    img1 = render_depth(flat_mesh(), cam, top_down_pose(), np.random.default_rng(3))
    img2 = render_depth(flat_mesh(), cam, top_down_pose(), np.random.default_rng(3))
    assert np.array_equal(img1.depths, img2.depths)
    err = img1.depths[img1.depths > 0] - 0.30
    assert abs(err.std() - 0.001) < 0.0002
    with pytest.raises(ValueError, match="generator"):
        render_depth(flat_mesh(), cam, top_down_pose())


def test_backprojection_inverts_projection():
    rng = np.random.default_rng(11)
    pose = pose_from_quat(quat_from_axis_angle(np.array([0.3, 1.0, 0.2]), 2.8), np.array([0.1, 0.0, 0.4]))
    img = render_depth(flat_mesh(), CAM, pose)
    pts = img.backproject()
    dirs = CAM.pixel_dirs()
    keep = img.depths.reshape(-1) > 0
    R = pose.rotation
    for k in rng.choice(np.flatnonzero(keep), 20, replace=False):
        d = img.depths.reshape(-1)[k]
        expect = R @ (dirs[k] * d) + pose.translation
        got = pts[np.count_nonzero(keep[:k])]
        assert np.allclose(got, expect, atol=1e-12)
        assert abs(expect[2]) < 1e-9  # landed on the z=0 floor


def test_pixel_dirs_is_one_read_only_table_per_camera(monkeypatch):
    cam = CameraIntrinsics(fx=50.0, fy=40.0, cx=15.5, cy=10.0, width=31, height=20)
    dirs = cam.pixel_dirs()
    assert dirs is cam.pixel_dirs()
    # the pinhole formula, one pixel at a time in row-major order
    want = [((u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0)
            for v in range(cam.height) for u in range(cam.width)]
    assert dirs.tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        dirs[0, 0] = 1.0
    twin = CameraIntrinsics(fx=50.0, fy=40.0, cx=15.5, cy=10.0, width=31, height=20)
    assert twin == cam and twin.pixel_dirs() is not dirs  # one table per record
    seen = []

    def spy(self):
        seen.append(self._pixel_dirs)
        return seen[-1]
    monkeypatch.setattr(CameraIntrinsics, "pixel_dirs", spy)
    pose = Pose(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 0.3]))
    img = render_depth(flat_mesh(), cam, pose)
    img.backproject()
    assert len(seen) == 2 and all(x is dirs for x in seen)
    assert np.allclose(img.depths, 0.3, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# fuse_views
# ---------------------------------------------------------------------------


def test_flat_view_fuses_to_zero_height():
    img = render_depth(flat_mesh(), CAM, top_down_pose())
    field = fuse_views([img], PLANE, resolution=0.005)
    assert field.covered().sum() > 500
    assert np.max(np.abs(field.heights[field.covered()])) < 1e-6


@functools.cache
def noisy_orbit_views(n: int) -> tuple:
    """n low-resolution noisy views of the cap from an orbit."""
    cam = CameraIntrinsics(80.0, 80.0, 40.0, 30.0, 80, 60, depth_noise_sigma=0.001)
    mesh = height_mesh(cap_height)
    return tuple(
        render_depth(mesh, cam, pose, np.random.default_rng(100 + k))
        for k, pose in enumerate(orbit_trajectory(PLANE, n))
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fusion_is_permutation_invariant_bitwise(data):
    """Any order of the views, one of them given twice, fuses to the same
    heights bit for bit and to exact sample counts."""
    views = noisy_orbit_views(data.draw(st.sampled_from((3, 4)), label="views"))
    dup = data.draw(st.sampled_from(range(len(views))), label="duplicated")
    order = data.draw(st.permutations([*range(len(views)), dup]), label="order")
    a = fuse_views([*views, views[dup]], PLANE, 0.005)
    b = fuse_views([views[k] for k in order], PLANE, 0.005)
    assert a.index_origin == b.index_origin
    assert np.array_equal(a.heights, b.heights)
    assert np.array_equal(a.weights, b.weights)
    assert a.weights.sum() == sum(np.count_nonzero(views[k].depths > 0) for k in order)


def test_duplicated_views_average_idempotently():
    cam = CameraIntrinsics(120.0, 120.0, 80.0, 60.0, 160, 120, depth_noise_sigma=0.001)
    img = render_depth(height_mesh(cap_height), cam, top_down_pose(0.35), np.random.default_rng(5))
    one = fuse_views([img], PLANE, 0.005)
    two = fuse_views([img, img], PLANE, 0.005)
    assert one.index_origin == two.index_origin
    assert np.array_equal(one.heights, two.heights)
    assert np.array_equal(2 * one.weights, two.weights)


@pytest.fixture(scope="module")
def cap_orbit():
    mesh = height_mesh(cap_height, extent=0.12)
    views = [render_depth(mesh, ORBIT_CAM, p) for p in orbit_trajectory(PLANE, 8)]
    field = fuse_views(views, PLANE, 0.005)
    return mesh, field


def test_orbit_fusion_tracks_analytic_cap(cap_orbit):
    _, field = cap_orbit
    xs, ys = field.node_coords()
    expect = cap_height(xs[:, None], ys[None, :])
    cov = field.covered()
    # restrict to the phantom footprint; nodes outside carry no truth
    inside = (np.abs(xs)[:, None] <= 0.11) & (np.abs(ys)[None, :] <= 0.11)
    sel = cov & inside
    assert sel.sum() > 1500
    err = np.abs(field.heights - expect)[sel]
    assert err.max() < 1.5 * 0.005


def test_fuse_rejects_empty_inputs():
    with pytest.raises(EmptyReconstructionError):
        fuse_views([], PLANE, 0.005)
    pose = Pose(np.eye(3), np.array([0, 0, 0.3]))
    miss = render_depth(flat_mesh(), CAM, pose)
    with pytest.raises(EmptyReconstructionError):
        fuse_views([miss], PLANE, 0.005)


# ---------------------------------------------------------------------------
# extract_mesh
# ---------------------------------------------------------------------------


def small_field(heights, weights=None):
    h = np.asarray(heights, dtype=float)
    w = np.ones_like(h, dtype=np.int64) if weights is None else np.asarray(weights)
    return HeightField(PLANE, 0.01, (0, 0), h, w)


def test_two_by_two_cells_give_eight_upward_triangles():
    field = small_field(np.arange(9.0).reshape(3, 3) * 0.001)
    mesh = extract_mesh(field)
    assert len(mesh.faces) == 8
    assert np.all(mesh._accel.face_normals @ EZ > 0)


def test_flat_field_normals_match_plane_normal():
    mesh = extract_mesh(small_field(np.full((4, 4), 0.02)))
    assert np.max(np.abs(mesh._accel.face_normals - EZ)) < 1e-9


def test_extracted_vertices_reproduce_node_heights_exactly():
    h = np.array([[0.00, 0.01], [0.02, 0.03], [0.004, 0.015]])
    mesh = extract_mesh(small_field(h))
    got = {(round(v[0], 9), round(v[1], 9)): v[2] for v in mesh.vertices}
    for i in range(3):
        for j in range(2):
            assert got[(round(i * 0.01, 9), round(j * 0.01, 9))] == h[i, j]


def test_uncovered_nodes_punch_holes():
    w = np.ones((3, 3), dtype=np.int64)
    w[1, 1] = 0  # kills all four cells
    with pytest.raises(EmptyReconstructionError):
        extract_mesh(small_field(np.zeros((3, 3)), w))
    w2 = np.ones((3, 3), dtype=np.int64)
    w2[0, 0] = 0  # kills one of four cells
    mesh = extract_mesh(small_field(np.zeros((3, 3)), w2))
    assert len(mesh.faces) == 6


# ---------------------------------------------------------------------------
# mesh_error
# ---------------------------------------------------------------------------


def test_identical_meshes_have_zero_error():
    mesh = height_mesh(cap_height, n=31)
    err = mesh_error(mesh, mesh, n_samples=2000, seed=1)
    assert err["rms"] < 1e-12
    assert err["hausdorff"] < 1e-12


def test_normal_offset_reads_one_millimetre():
    mesh = flat_mesh(n=11)
    shifted = TriMesh(mesh.vertices + 0.001 * EZ, mesh.faces)
    err = mesh_error(mesh, shifted, n_samples=2000, seed=2)
    assert abs(err["rms"] - 0.001) < 0.05e-3
    assert abs(err["hausdorff"] - 0.001) < 0.05e-3


@pytest.mark.parametrize("n", [0, -3])
def test_mesh_error_needs_a_sample(n):
    mesh = flat_mesh(n=5)
    with pytest.raises(ValueError, match="n_samples"):
        mesh_error(mesh, mesh, n_samples=n)


def brute_mesh_error(recon, truth, n_samples, seed):
    # mesh_error's samples, each distance the square root of the least
    # kernel d2 over every face of the other mesh, 20 points at a time
    rng = np.random.default_rng(seed)
    d = []
    for src, dst in ((recon, truth), (truth, recon)):
        acc = dst._accel
        for p in np.array_split(src.sample_surface(n_samples, rng), max(1, n_samples // 20)):
            d.append(np.sqrt(closest_point_triangles(p[:, None, :], acc.A, acc.B, acc.C)[0].min(axis=1)))
    both = np.concatenate(d)
    return float(np.sqrt(np.mean(both**2))), float(np.max(both))


def test_mesh_error_is_the_brute_force_kernel_min(cap_orbit):
    # the cap against its orbit reconstruction (whose skirt coincides with
    # it, so many samples lie on the other mesh) and against a 1 mm shift
    mesh, field = cap_orbit
    for other in (extract_mesh(field), TriMesh(mesh.vertices + 0.001 * EZ, mesh.faces)):
        err = mesh_error(other, mesh, n_samples=300, seed=4)
        rms, hausdorff = brute_mesh_error(other, mesh, 300, 4)
        assert (err["rms"].hex(), err["hausdorff"].hex()) == (rms.hex(), hausdorff.hex())


def test_cap_reconstruction_error_below_grid_resolution(cap_orbit):
    mesh, field = cap_orbit
    recon = extract_mesh(field)
    err = mesh_error(recon, mesh, n_samples=10000, seed=3)
    assert err["rms"] < 0.005


# ---------------------------------------------------------------------------
# PFM files
# ---------------------------------------------------------------------------


def test_pfm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    d = rng.random((13, 17)).astype(np.float32)
    d[0, :3] = 0.0
    path = tmp_path / "depth.pfm"
    save_pfm(d, path)
    back = load_pfm(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, d)


def test_pfm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
    with pytest.raises(ValueError, match="grayscale"):
        load_pfm(path)


def test_pfm_rejects_truncated_pixels(tmp_path):
    path = tmp_path / "short.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(ValueError, match="short.pfm: truncated pixel data"):
        load_pfm(path)


@pytest.mark.parametrize("size, pixels", [
    (b"100000 100000", 16),  # 40 GB asked of read(): a MemoryError before the check
    (b"4000000000 4000000000", 16),  # beyond what read() takes: an OverflowError
    (b"2 2", 15),  # a block that is not whole float32s: numpy's message, no file name
])
def test_pfm_checks_the_pixel_count_against_the_file(tmp_path, size, pixels):
    path = tmp_path / "forged.pfm"
    path.write_bytes(b"Pf\n" + size + b"\n-1.0\n" + b"\x00" * pixels)
    with pytest.raises(ValueError, match="forged.pfm: truncated pixel data"):
        load_pfm(path)


@pytest.mark.parametrize("header", [
    b"Pf\n",  # no size or scale line
    b"Pf\n2\n-1.0\n",  # one size
    b"Pf\n2 two\n-1.0\n",  # garbage size
    b"Pf\n2 2\n",  # no scale line
    b"Pf\n2 2\nscale\n",  # garbage scale
    b"Pf\n0 2\n-1.0\n",  # empty image
    b"Pf\n2 2\n0.0\n",  # zero scale has no byte order
    b"Pf\n2 2\nnan\n",
])
def test_pfm_names_the_file_on_a_malformed_header(tmp_path, header):
    path = tmp_path / "head.pfm"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(ValueError, match="head.pfm: malformed PFM header"):
        load_pfm(path)


def test_depth_image_round_trips_through_pfm(tmp_path):
    img = render_depth(flat_mesh(), CAM, top_down_pose())
    path = tmp_path / "view.pfm"
    save_pfm(img.depths, path)
    back = load_pfm(path)
    assert np.array_equal(back, img.depths.astype(np.float32))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_intrinsics_validation():
    with pytest.raises(ValueError, match="focal"):
        CameraIntrinsics(0.0, 120.0, 80.0, 60.0, 160, 120)
    with pytest.raises(ValueError, match="principal"):
        CameraIntrinsics(120.0, 120.0, 200.0, 60.0, 160, 120)
    with pytest.raises(ValueError, match="sigma"):
        CameraIntrinsics(120.0, 120.0, 80.0, 60.0, 160, 120, depth_noise_sigma=-1.0)
    with pytest.raises(ValueError, match="width and height"):
        CameraIntrinsics(120.0, 120.0, 0.0, 0.0, 0, 120)
    with pytest.raises(ValueError, match="focal"):
        CameraIntrinsics(float("nan"), 120.0, 80.0, 60.0, 160, 120)


def test_depth_image_validation():
    with pytest.raises(ValueError, match="height, width"):
        DepthImage(CAM, Pose(), np.zeros((2, 2)))
    bad = np.zeros((120, 160))
    bad[0, 0] = -0.1
    with pytest.raises(ValueError, match="negative"):
        DepthImage(CAM, Pose(), bad)


def test_height_field_validation():
    img = render_depth(flat_mesh(), CAM, top_down_pose())
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="resolution must be positive"):
            HeightField(PLANE, bad, (0, 0), np.zeros((2, 2)), np.zeros((2, 2), np.int64))
        with pytest.raises(ValueError, match="resolution must be positive"):
            fuse_views([img], PLANE, bad)
    with pytest.raises(ValueError, match="non-negative"):
        HeightField(PLANE, 0.01, (0, 0), np.zeros((2, 2)), np.full((2, 2), -1))
    with pytest.raises(ValueError, match="matching"):
        HeightField(PLANE, 0.01, (0, 0), np.zeros((2, 2)), np.zeros((3, 2), np.int64))
