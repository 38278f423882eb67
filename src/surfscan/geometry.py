"""Rigid-transform primitives: unit quaternions, rotation matrices, poses.

Quaternions are stored as (w, x, y, z) numpy arrays and kept unit-norm.
All rotations are right-handed; vectors are plain (3,) float64 arrays in
metres.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-12


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = math.sqrt(q.dot(q))  # what np.linalg.norm computes, minus its overhead
    if n < 1e-9:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def quat_to_matrix(q) -> np.ndarray:
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


def quat_from_matrix(R) -> np.ndarray:
    """Rotation matrix -> unit quaternion (w >= 0), by `shepperd`."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(R, dtype=float).tolist()
    q = shepperd(r00, r01, r02, r10, r11, r12, r20, r21, r22)
    return quat_canonical(quat_normalize(np.array(q)))


def quat_canonical(q) -> np.ndarray:
    """Flip sign so the scalar part is non-negative."""
    q = np.asarray(q, dtype=float)
    return -q if q[0] < 0.0 else q


def cross3(a, b) -> np.ndarray:
    """Cross product along the last axis.

    Same two-product expression np.cross evaluates, minus its axis
    bookkeeping, which dominates the cost on tiny inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if shape == (3,):
        (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
        return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    out = np.empty(shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


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
    """Rigid transform: rotation as unit quaternion (w, x, y, z), translation
    in m. Both arrays are read-only copies, so a shared Pose cannot change."""

    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writeable
        q = np.array(self.rotation, dtype=float).reshape(4)
        t = np.array(self.translation, dtype=float).reshape(3)
        n = math.sqrt(q.dot(q))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        if abs(n - 1.0) > UNIT_TOL:
            q = q / n
        if not all(map(math.isfinite, q.tolist() + t.tolist())):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "rotation", read_only(q))
        object.__setattr__(self, "translation", read_only(t))

    @staticmethod
    def from_rotation_matrix(R, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(quat_from_matrix(R), np.asarray(t, dtype=float))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)


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
