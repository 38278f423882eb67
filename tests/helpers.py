"""Helpers that only the tests use: writing an arm model file, building
quaternions (from an axis and an angle, or from a rotation matrix) and
poses from them, and placing points on a scene plane by their in-plane
coordinates."""
from __future__ import annotations

import math

import numpy as np
import yaml

from surfscan.arm import ArmModel
from surfscan.geometry import Pose, quat_to_matrix, shepperd
from surfscan.localization import ScenePlane


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0:
    `shepperd`, normalised, with the chart's sign rule."""
    q = np.array(shepperd(*np.asarray(R, dtype=float).ravel().tolist()))
    q = q / math.sqrt(q.dot(q))
    return -q if q[0] < 0.0 else q


def pose_from_quat(q, t=(0.0, 0.0, 0.0)) -> Pose:
    """Pose whose rotation is the unit quaternion q (w, x, y, z)."""
    return Pose(quat_to_matrix(q), t)


def plane_embed(plane: ScenePlane, s, height=0.0) -> np.ndarray:
    """World points at in-plane coordinates s (..., 2) and `height` along
    the normal: the inverse of `plane.project` and `plane.height_of`."""
    u, v, n = plane.frame()
    s = np.asarray(s, dtype=float)
    return (
        plane.centre
        + s[..., 0, None] * u
        + s[..., 1, None] * v
        + np.asarray(height)[..., None] * n
    )


def _pose_to_node(pose: Pose) -> dict:
    return {
        "translation": [float(x) for x in pose.translation],
        "rotation": [float(x) for x in quat_from_matrix(pose.rotation)],
    }


def save_arm_model(model: ArmModel, path) -> None:
    """Write model as an arm model file that load_arm_model reads back."""
    doc = {
        "model_version": 1,
        "name": model.name,
        "notes": model.notes,
        "joints": [
            {
                "name": j.name,
                "axis": [float(x) for x in j.axis],
                "origin": _pose_to_node(j.origin),
                "position_limits": [float(j.position_limits[0]), float(j.position_limits[1])],
                "velocity_limit": float(j.velocity_limit),
            }
            for j in model.joints
        ],
        "link_inertias": [
            {
                "mass": float(l.mass),
                "com": [float(x) for x in l.com],
                "inertia": [[float(x) for x in row] for row in l.inertia],
            }
            for l in model.link_inertias
        ],
        "probe_offset": _pose_to_node(model.probe_offset),
        "camera_offset": _pose_to_node(model.camera_offset),
    }
    if model.home_probe_pose is not None:
        doc["home_probe_pose"] = _pose_to_node(model.home_probe_pose)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
