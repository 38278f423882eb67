"""Quaternion and pose tests.

The rotation oracle is the explicit direction-cosine matrix for an
axis-angle rotation (Rodrigues formula written out), kept separate from
the package implementation.
"""
import numpy as np
import pytest

from surfscan.geometry import (
    Pose,
    plane_basis,
    quat_canonical,
    quat_from_matrix,
    quat_normalize,
    quat_to_matrix,
    skew,
)

from helpers import quat_from_axis_angle


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


def test_quat_from_matrix_near_pi_branches():
    # exercise all four Shepperd branches
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]), np.array([1.0, 1.0, 0.2])):
        R = rodrigues(axis, np.pi - 1e-7)
        q = quat_from_matrix(R)
        assert np.max(np.abs(quat_to_matrix(q) - R)) < 1e-9


def test_quat_canonical():
    q = np.array([-0.5, 0.5, 0.5, 0.5])
    qc = quat_canonical(q)
    assert qc[0] == 0.5 and np.all(qc[1:] == -0.5)
    assert np.array_equal(quat_canonical(-q), qc)


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


def test_skew():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([-2.0, 0.5, 4.0])
    assert np.max(np.abs(skew(a) @ b - np.cross(a, b))) < 1e-15


def test_pose_norm_invariant():
    q = np.array([1.0 + 5e-7, 0.0, 0.0, 0.0])
    p = Pose(q, np.zeros(3))
    assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        Pose(np.array([1.0, 1.0, 0.0, 0.0]) * 10.0, np.zeros(3))  # way off unit
    with pytest.raises(ValueError):
        Pose(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(3))


@pytest.mark.parametrize("rotation, translation, match", [
    ([np.inf, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "norm"),
    ([1.0, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], "finite"),
    ([1.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0], "finite"),
    ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -np.inf], "finite"),
    ([1.0, 0.0, 0.0, 2e-3], [0.0, 0.0, 0.0], "norm"),
])
def test_pose_rejects_non_finite_and_non_unit(rotation, translation, match):
    with pytest.raises(ValueError, match=match):
        Pose(np.array(rotation), np.array(translation))


def test_pose_freezes_a_copy_of_the_callers_arrays():
    q, t = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1, 0.2, 0.3])
    pose = Pose(q, t)
    assert q.flags.writeable and t.flags.writeable
    q[0], t[0] = 0.0, 9.0
    assert pose.rotation.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert pose.translation.tolist() == [0.1, 0.2, 0.3]
    for a in (pose.rotation, pose.translation):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2.0


def test_quat_normalize_is_division_by_linalg_norm():
    """Bit for bit q / np.linalg.norm(q), over scales from tiny to huge."""
    rng = np.random.default_rng(12)
    for _ in range(20000):
        q = rng.normal(size=4) * 10.0 ** rng.uniform(-8.0, 8.0)
        assert np.array_equal(quat_normalize(q), q / np.linalg.norm(q))


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
