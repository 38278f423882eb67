"""Rotation and pose tests.

The rotation oracle is the explicit direction-cosine matrix for an
axis-angle rotation (Rodrigues formula written out), kept separate from
the package implementation.
"""
import numpy as np
import pytest

from surfscan.geometry import Pose, plane_basis, quat_to_matrix, shepperd, skew

from helpers import quat_from_axis_angle, quat_from_matrix


def rodrigues(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_quat_matrix_matches_rodrigues():
    rng = np.random.default_rng(0)
    for _ in range(200):
        axis = rng.normal(size=3)
        angle = rng.uniform(-np.pi, np.pi)
        q = quat_from_axis_angle(axis, angle)
        assert np.max(np.abs(quat_to_matrix(q) - rodrigues(axis, angle))) < 1e-12


def test_quat_matrix_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(500):
        q = random_quat(rng)
        R = quat_to_matrix(q)
        q2 = quat_from_matrix(R)
        # same rotation up to sign; from_matrix returns w >= 0
        assert q2[0] >= 0.0
        assert min(np.max(np.abs(q2 - q)), np.max(np.abs(q2 + q))) < 1e-9
        assert np.max(np.abs(quat_to_matrix(q2) - R)) < 1e-9


def test_shepperd_near_pi_branches():
    # exercise all four Shepperd branches: the trace, then the largest diagonal entry
    for k, axis in enumerate((np.array([1.0, 1.0, 0.2]), np.array([1.0, 0, 0]),
                              np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))):
        R = rodrigues(axis, np.pi / 2 if k == 0 else np.pi - 1e-7)
        q = np.array(shepperd(*R.ravel().tolist()))
        assert np.argmax(np.abs(q)) == k
        assert np.max(np.abs(quat_to_matrix(q / np.linalg.norm(q)) - R)) < 1e-9


def test_skew():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-2.0, 0.5, 4.0])
    assert np.max(np.abs(skew(a) @ b - np.cross(a, b))) < 1e-15


def test_pose_norm_invariant():
    """A Pose keeps an orthonormal rotation bit for bit, and refuses one
    off orthonormal by more than rounding, or a reflection."""
    R = quat_to_matrix(quat_from_axis_angle([0.3, -1.0, 0.5], 2.0))
    assert np.array_equal(Pose(R).rotation, R)
    Pose(R * (1.0 + 1e-12))
    with pytest.raises(ValueError, match="orthonormal"):
        Pose(R * (1.0 + 1e-9))
    with pytest.raises(ValueError, match="det R"):
        Pose(-R)


_TILT = quat_to_matrix([1.0, 0.0, 0.0, 2e-3])  # quaternion norm 1 + 2e-6


@pytest.mark.parametrize("rotation, translation, match", [
    ([[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.0], "norm"),
    ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.0], "finite"),
    (np.eye(3), [0.0, np.nan, 0.0], "finite"),
    (np.eye(3), [0.0, 0.0, -np.inf], "finite"),
    (_TILT, [0.0, 0.0, 0.0], "norm"),
])
def test_pose_rejects_non_finite_and_non_unit(rotation, translation, match):
    with pytest.raises(ValueError, match=match):
        Pose(np.array(rotation), np.array(translation))


def test_pose_freezes_a_copy_of_the_callers_arrays():
    R, t = np.eye(3), np.array([0.1, 0.2, 0.3])
    pose = Pose(R, t)
    assert R.flags.writeable and t.flags.writeable
    R[0, 0], t[0] = 0.0, 9.0
    assert pose.rotation.tolist() == np.eye(3).tolist()
    assert pose.translation.tolist() == [0.1, 0.2, 0.3]
    for a in (pose.rotation, pose.translation):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2.0


def test_plane_basis_orthonormal_right_handed():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = rng.normal(size=3)
        n = n / np.linalg.norm(n)
        u, v = plane_basis(n)
        B = np.column_stack([u, v, n])
        assert np.max(np.abs(B.T @ B - np.eye(3))) < 1e-12
        assert np.linalg.det(B) > 0.999999


def test_plane_basis_horizontal_plane():
    u, v = plane_basis(np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(u - np.array([1.0, 0.0, 0.0]))) < 1e-15
    assert np.max(np.abs(v - np.array([0.0, 1.0, 0.0]))) < 1e-15
