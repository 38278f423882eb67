"""Rigid-transform primitives: poses, rotation matrices, plane bases.

A rotation is a right-handed 3x3 matrix everywhere; vectors are plain
(3,) float64 arrays in metres. Quaternions (w, x, y, z) appear at two
edges only: the arm-model reader turns the file's unit quaternions into
matrices (`quat_to_matrix`), and the chart takes the error quaternion's
vector part from a matrix (`shepperd`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROTATION_TOL = 1e-11  # largest entry of |R^T R - I| a Pose accepts


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )


def shepperd(r00, r01, r02, r10, r11, r12, r20, r21, r22) -> list[float]:
    """Quaternion (w, x, y, z) of a rotation matrix given as nine floats,
    before normalisation and without a sign convention.

    Shepperd's method: pick the largest of the four squared components
    so the division is always well conditioned (the square root's
    argument is then at least 1, or NaN for a non-finite R).
    """
    tr = r00 + r11 + r22
    choices = (tr, r00, r11, r22)
    k = choices.index(max(choices))
    if k == 0:
        s = math.sqrt(tr + 1.0) * 2.0
        return [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    if k == 1:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        return [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    if k == 2:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        return [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
    return [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writeable; pass an array of your own, never one a
    caller handed in."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid transform: a proper rotation matrix and a translation in m.
    Both arrays are read-only copies, so a shared Pose cannot change."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writeable
        R = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        if not (np.isfinite(R).all() and np.max(np.abs(R.T @ R - np.eye(3))) <= ROTATION_TOL):
            raise ValueError(f"rotation must be a finite orthonormal matrix, got {R.tolist()}")
        if not np.linalg.det(R) > 0.0:
            raise ValueError("rotation must be proper (det R > 0), got a reflection")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "rotation", read_only(R))
        object.__setattr__(self, "translation", read_only(t))


def plane_basis(normal) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent pair (u, v) with u x v = normal.

    u is the projection of world x onto the plane (world y if the normal is
    within ~1e-6 of +-x), so a horizontal plane with normal +z gets
    u = x, v = y.
    """
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    seed = np.array([1.0, 0.0, 0.0])
    u = seed - np.dot(seed, n) * n
    if np.linalg.norm(u) < 1e-6:
        seed = np.array([0.0, 1.0, 0.0])
        u = seed - np.dot(seed, n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v
