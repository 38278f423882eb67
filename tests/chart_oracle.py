"""The chart's numpy formulas, kept as the oracle for its float pass.

`SurfaceChart.evaluate_probe` evaluates the chart coordinates, the
surface frame, the error quaternion and J_rho as scalar float
expressions. The functions here are the same quantities written with
numpy arrays, one small formula each, plus the chart queries only the
tests use: the embedding of chart coordinates by a vertical ray and the
checked closest point of a world point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from surfscan.chart import ChartBoundaryError, DegenerateFrameError, FRAME_TOL
from surfscan.geometry import skew

from helpers import plane_embed, quat_from_matrix

RAY_CLEARANCE = 0.25  # m above the mesh top for embedding rays


@dataclass(frozen=True)
class ChartPoint:
    face: int
    barycentric: np.ndarray  # (3,) non-negative, sums to 1
    s: np.ndarray  # (2,) chart coordinates m

    def __post_init__(self):
        b = np.asarray(self.barycentric, dtype=float).reshape(3)
        if abs(float(b.sum()) - 1.0) > 1e-9 or b.min() < -1e-9:
            raise ValueError("barycentric weights must be non-negative and sum to 1")
        object.__setattr__(self, "barycentric", np.clip(b, 0.0, None) / np.clip(b, 0.0, None).sum())
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float).reshape(2))


class SurfaceFrame(NamedTuple):
    """Right-handed orthonormal (t1, t2, n) at a surface point on `face`.
    The chart returns only n and face; t1 and t2 shape J_rho's first two
    rows, and the point's chart coordinates are rho's (s1, s2)."""

    point: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray
    face: int


def frame_rotation(frame: SurfaceFrame) -> np.ndarray:
    """Desired probe orientation: x = t1, y = t2, z = n."""
    return np.array([frame.t1, frame.t2, frame.n]).T


def chart_coords(chart, p) -> np.ndarray:
    """(s1, s2) of one world point."""
    u, v, _ = chart.plane.frame()
    d = np.asarray(p, dtype=float) - chart.plane.centre
    return np.array([d @ u, d @ v]) - np.asarray(chart._s_origin)


def contains(chart, s) -> bool:
    s1, s2 = np.asarray(s, dtype=float).reshape(2).tolist()
    return chart.s_min[0] <= s1 <= chart.s_max[0] and chart.s_min[1] <= s2 <= chart.s_max[1]


def frame_at(chart, hit_point, face: int, bary) -> SurfaceFrame:
    n = np.asarray(bary) @ chart.mesh.vertex_normals()[chart.mesh.faces[face]]
    norm = math.sqrt(n.dot(n))
    if norm < FRAME_TOL:
        raise DegenerateFrameError(f"interpolated normal vanished on face {face}")
    n = n / norm
    u = chart.plane.frame()[0]
    t1 = u - (u @ n) * n
    nt = math.sqrt(t1.dot(t1))
    if nt < FRAME_TOL:
        raise DegenerateFrameError(f"surface normal parallel to the chart axis on face {face}")
    t1 = t1 / nt
    t2 = np.cross(n, t1)
    return SurfaceFrame(hit_point, t1, t2, n, int(face))


def embed(chart, s) -> tuple[ChartPoint, SurfaceFrame]:
    """Surface point over chart coordinates s, via a vertical ray."""
    s = np.asarray(s, dtype=float).reshape(2)
    if not contains(chart, s):
        raise ChartBoundaryError(s, chart.clamp(s))
    height = float(chart.plane.height_of(chart.mesh.vertices).max()) + RAY_CLEARANCE
    origin = plane_embed(chart.plane, s + np.asarray(chart._s_origin), height=height)
    hit = chart.mesh.raycast(origin, -chart.plane.normal)
    if hit is None:
        raise ChartBoundaryError(s, chart.clamp(s))  # hole in the reconstruction
    return ChartPoint(hit.face, hit.barycentric, s), frame_at(chart, hit.point, hit.face, hit.barycentric)


def foot(chart, p, hint=None):
    """(hit, s, frame) of the closest mesh point to p, checked like the chart."""
    s_query = chart_coords(chart, p)
    if not contains(chart, s_query):
        raise ChartBoundaryError(s_query, chart.clamp(s_query))
    hit = chart.mesh.closest_point(p, hint)
    frame = frame_at(chart, hit.point, hit.face, hit.weights)
    return hit, chart_coords(chart, hit.point), frame


def closest_point(chart, p, hint=None) -> tuple[ChartPoint, float, SurfaceFrame]:
    """Chart point under a world point, plus its signed distance."""
    hit, s, frame = foot(chart, np.asarray(p, dtype=float).reshape(3), hint)
    return ChartPoint(hit.face, hit.weights, s), hit.distance, frame


def eps_rate_map(eta: float, eps: np.ndarray) -> np.ndarray:
    """E with epsdot = E @ omega_world for the error quaternion (eta, eps)."""
    return -0.5 * (eta * np.eye(3) + skew(eps))


def orientation_error(R_probe: np.ndarray, frame: SurfaceFrame) -> tuple[float, np.ndarray]:
    """(eta, eps) of the world-frame rotation taking the probe onto the
    surface frame; eps = 0 exactly at alignment."""
    q = quat_from_matrix(frame_rotation(frame) @ R_probe.T)  # shepperd, normalised, eta >= 0
    return float(q[0]), q[1:].copy()


def evaluate_probe(chart, R_probe, tip, probe_jacobian, qdot, hint=None):
    """(rho, rhodot, J_rho, frame, eta) by the numpy formulas, block by block."""
    hit, s, frame = foot(chart, tip, hint)
    b0, b1, b2 = hit.weights
    if abs(b0 + b1 + b2 - 1.0) > 1e-9 or min(b0, b1, b2) < -1e-9:
        raise ValueError("barycentric weights must be non-negative and sum to 1")
    eta, eps = orientation_error(R_probe, frame)
    rho = np.array([*s.tolist(), hit.distance, *eps.tolist()])
    J = np.empty((6, 7))
    J[:3] = frame_rotation(frame).T @ probe_jacobian[:3]
    J[3:] = eps_rate_map(eta, eps) @ probe_jacobian[3:]
    return rho, J @ np.asarray(qdot, dtype=float).reshape(7), J, frame, eta
