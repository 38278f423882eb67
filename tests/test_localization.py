"""Plane fitting and camera posing tests.

The synthetic scene is four 30 mm square markers on z = 0 viewed by a
camera 0.5 m above, looking straight down. Ground truth is the world
plane itself, so the oracle is analytic.
"""
import math

import numpy as np
import pytest

from surfscan.geometry import Pose, quat_to_matrix
from surfscan.localization import (
    DegenerateMarkerError,
    MarkerObservation,
    ScenePlane,
    alignment_pose,
    fit_plane,
    load_markers,
    orbit_trajectory,
    save_markers,
)
from surfscan.schema import SchemaError

from helpers import plane_embed, pose_from_quat, quat_from_axis_angle

CAM = pose_from_quat(quat_from_axis_angle([1.0, 0, 0], math.pi), np.array([0.0, 0.0, 0.5]))
HALF = 0.015
SQUARE = np.array([[-HALF, HALF, 0], [HALF, HALF, 0], [HALF, -HALF, 0], [-HALF, -HALF, 0]])
CENTRES = np.array([[0.12, 0.12, 0], [-0.12, 0.12, 0], [-0.12, -0.12, 0], [0.12, -0.12, 0]])


def to_cam(pose: Pose, pts: np.ndarray) -> np.ndarray:
    return (pts - pose.translation) @ pose.rotation


def square_markers(noise=0.0, rng=None, cam=CAM, centres=CENTRES):
    out = []
    for i, c in enumerate(centres):
        w = c + SQUARE
        if noise > 0.0:
            w = w + rng.normal(0.0, noise, w.shape)
        out.append(MarkerObservation(i, to_cam(cam, w)))
    return out


def test_noiseless_fit_exact():
    plane = fit_plane(square_markers(), CAM)
    assert np.max(np.abs(plane.centre)) < 1e-12
    angle = math.acos(min(1.0, abs(float(plane.normal @ np.array([0, 0, 1.0])))))
    assert angle < 1e-9
    assert float(plane.normal[2]) > 0.0  # toward the camera


def test_fit_on_corners_matches_noiseless():
    a = fit_plane(square_markers(), CAM, use_corners=False)
    b = fit_plane(square_markers(), CAM, use_corners=True)
    assert np.max(np.abs(a.centre - b.centre)) < 1e-12
    assert np.max(np.abs(a.normal - b.normal)) < 1e-9


def test_three_markers_exact():
    markers = square_markers(centres=CENTRES[:3])
    plane = fit_plane(markers, CAM)
    for m in markers:
        world = CAM.rotation @ m.centre + CAM.translation  # camera->world
        assert abs(float(plane.height_of(world))) < 1e-12


def test_normal_flips_toward_camera():
    below = Pose(translation=np.array([0.0, 0.0, -0.5]))
    plane = fit_plane(square_markers(cam=below), below)
    assert float(plane.normal[2]) < 0.0


def test_monte_carlo_noise():
    # measured mean 0.150 deg at sigma = 1 mm (seed 42); the gate is 0.5
    rng = np.random.default_rng(42)
    errs = []
    for _ in range(1000):
        plane = fit_plane(square_markers(noise=1e-3, rng=rng), CAM)
        errs.append(math.acos(min(1.0, abs(float(plane.normal[2])))))
    mean_deg = math.degrees(float(np.mean(errs)))
    assert mean_deg < 0.5
    assert len(errs) == 1000  # no failures


def test_degenerate_configurations():
    with pytest.raises(DegenerateMarkerError):
        fit_plane(square_markers()[:2], CAM)
    line = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.10, 0, 0]])
    with pytest.raises(DegenerateMarkerError, match="collinear"):
        fit_plane(square_markers(centres=line), CAM)


def test_rigid_invariance():
    rng = np.random.default_rng(8)
    base = fit_plane(square_markers(), CAM)
    for _ in range(20):
        q = rng.normal(size=4)
        R, t = quat_to_matrix(q / np.linalg.norm(q)), rng.normal(size=3)
        moved_cam = Pose(R @ CAM.rotation, R @ CAM.translation + t)
        plane = fit_plane(square_markers(), moved_cam)  # same camera-frame input
        assert np.max(np.abs(plane.centre - (R @ base.centre + t))) < 1e-10
        assert np.max(np.abs(plane.normal - R @ base.normal)) < 1e-10


PLANE = ScenePlane(np.zeros(3), np.array([0.0, 0.0, 1.0]))


def test_alignment_defaults_exact():
    pose = alignment_pose(PLANE)
    assert abs(np.linalg.norm(pose.translation - PLANE.centre) - 0.30) < 1e-12
    z = pose.rotation[:, 2]
    assert abs(float(z @ -PLANE.normal) - math.cos(math.pi / 4)) < 1e-12
    # x parallel to the plane
    assert abs(float(pose.rotation[:, 0] @ PLANE.normal)) < 1e-12


def test_alignment_straight_down():
    pose = alignment_pose(PLANE, angle=0.0)
    assert np.max(np.abs(pose.translation - np.array([0, 0, 0.30]))) < 1e-12
    z = pose.rotation[:, 2]
    assert np.max(np.abs(z - np.array([0, 0, -1.0]))) < 1e-12


def test_alignment_axis_through_centre():
    rng = np.random.default_rng(9)
    for _ in range(100):
        az = rng.uniform(0.0, 2.0 * math.pi)
        ang = rng.uniform(0.0, math.pi / 2 * 0.98)
        pose = alignment_pose(PLANE, angle=ang, azimuth=az)
        z = pose.rotation[:, 2]
        assert np.linalg.norm(np.cross(z, PLANE.centre - pose.translation)) < 1e-12
        R = pose.rotation
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12


def test_alignment_preconditions():
    with pytest.raises(ValueError):
        alignment_pose(PLANE, angle=math.pi / 2)
    with pytest.raises(ValueError):
        alignment_pose(PLANE, distance=0.0)


def test_alignment_tilted_plane():
    n = np.array([0.3, -0.2, 0.9])
    plane = ScenePlane(np.array([0.1, 0.2, 0.05]), n / np.linalg.norm(n))
    pose = alignment_pose(plane, azimuth=1.1)
    assert abs(np.linalg.norm(pose.translation - plane.centre) - 0.30) < 1e-12
    z = pose.rotation[:, 2]
    assert abs(float(z @ -plane.normal) - math.cos(math.pi / 4)) < 1e-12
    assert abs(float(pose.rotation[:, 0] @ plane.normal)) < 1e-12


def test_orbit_spacing_and_aim():
    poses = orbit_trajectory(PLANE, 4)
    assert len(poses) == 4
    u, v, n = PLANE.frame()
    angles = []
    for pose in poses:
        assert abs(np.linalg.norm(pose.translation - PLANE.centre) - 0.30) < 1e-12
        z = pose.rotation[:, 2]
        assert np.linalg.norm(np.cross(z, PLANE.centre - pose.translation)) < 1e-12
        off = pose.translation - PLANE.centre
        angles.append(math.atan2(float(off @ v), float(off @ u)))
    for k in range(3):
        d = (angles[k + 1] - angles[k]) % (2.0 * math.pi)
        assert abs(d - math.pi / 2) < 1e-12
    with pytest.raises(ValueError):
        orbit_trajectory(PLANE, 1)


def test_marker_file_roundtrip(tmp_path):
    markers = square_markers()
    path = tmp_path / "markers.yaml"
    save_markers(markers, path)
    loaded = load_markers(path)
    assert len(loaded) == len(markers)
    for a, b in zip(markers, loaded):
        assert a.marker_id == b.marker_id
        assert np.array_equal(a.corners, b.corners)
        assert a.confidence == b.confidence


def test_marker_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "markers.yaml"
    save_markers(square_markers(), path)
    path.write_text(path.read_text().replace("confidence: 1.0", "confidence: 1.0\n  pose: 3", 1))
    with pytest.raises(SchemaError, match="pose"):
        load_markers(path)


def test_marker_file_malformed_yaml_is_a_schema_error(tmp_path):
    path = tmp_path / "markers.yaml"
    path.write_text("markers: [{id: 1\n")
    with pytest.raises(SchemaError, match="markers.yaml: malformed YAML"):
        load_markers(path)


def test_marker_validation():
    bad = np.zeros((4, 3))
    with pytest.raises(ValueError, match="coincide"):
        MarkerObservation(0, bad)
    with pytest.raises(ValueError, match="confidence"):
        MarkerObservation(0, SQUARE, confidence=1.5)
    m = MarkerObservation(0, SQUARE)
    # max corner distance from the best-fit corner plane
    c = m.corners - m.corners.mean(axis=0)
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    assert float(np.max(np.abs(c @ vt[2]))) < 1e-12


def test_plane_embed_project_roundtrip():
    n = np.array([0.2, 0.1, 0.97])
    plane = ScenePlane(np.array([0.05, -0.03, 0.2]), n / np.linalg.norm(n))
    rng = np.random.default_rng(10)
    s = rng.uniform(-0.2, 0.2, (50, 2))
    pts = plane_embed(plane, s, height=0.0)
    back = plane.project(pts)
    assert np.max(np.abs(back - s)) < 1e-12
    assert np.max(np.abs(plane.height_of(pts))) < 1e-12
    lifted = plane_embed(plane, s, height=np.full(50, 0.07))
    assert np.max(np.abs(plane.height_of(lifted) - 0.07)) < 1e-12
