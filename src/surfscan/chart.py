"""Surface-specific coordinates over a scanned mesh.

The chart projects the mesh onto the localisation plane and uses plane
coordinates (s1, s2) relative to the anchor (the mesh point nearest the
plane centre). That is a bijection for height-field surfaces, which is
what the reconstruction produces; overhangs are out of scope.

The six task coordinates stack as rho = (s1, s2, d, eps1, eps2, eps3):
chart position of the closest surface point, signed normal distance
(negative = penetration), and the vector part of the error quaternion
that aligns the probe axis with the inward surface normal. The 6x7 task
Jacobian maps joint rates to rho rates; it is exact on flat charts and a
quasi-static approximation on curved ones (the surface frame is treated
as frozen during the step), which is also how the controller consumes it.

`SurfaceChart.evaluate_probe` is the control loop's one entry point. It
takes the probe frame as the kinematics sweep leaves it, a rotation
matrix and the tip, so a step builds no Pose and no quaternion except
the error quaternion itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import cross3, quat_from_matrix, skew
from .localization import ScenePlane
from .mesh import ClosestHit, TriMesh

FRAME_TOL = 1e-6
RAY_CLEARANCE = 0.25  # m above the mesh top for embedding rays
_EYE = np.eye(3)


class ChartBoundaryError(ValueError):
    """Probe or setpoint left the chart domain; carries the clamped s."""

    def __init__(self, s, clamped):
        self.s = np.asarray(s, dtype=float)
        self.clamped = np.asarray(clamped, dtype=float)
        super().__init__(
            f"chart coordinates ({self.s[0]:.4f}, {self.s[1]:.4f}) outside the "
            f"domain; nearest valid point ({self.clamped[0]:.4f}, {self.clamped[1]:.4f})"
        )


class DegenerateFrameError(ValueError):
    """Surface normal nearly parallel to the in-plane reference axis."""


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


@dataclass(frozen=True)
class SurfaceFrame:
    """Right-handed orthonormal (t1, t2, n) at a surface point."""

    point: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray
    face: int = -1  # mesh face the point lies on; seeds the next query

    def rotation(self) -> np.ndarray:
        """Desired probe orientation: x = t1, y = t2, z = n."""
        return np.array([self.t1, self.t2, self.n]).T


def eps_rate_map(eta: float, eps: np.ndarray) -> np.ndarray:
    """E with epsdot = E @ omega_world for the error quaternion (eta, eps)."""
    return -0.5 * (eta * _EYE + skew(eps))


class SurfaceChart:
    """Immutable chart over a mesh; all queries are pure."""

    def __init__(self, mesh: TriMesh, plane: ScenePlane, margin: float = 0.0):
        self.mesh = mesh
        self.plane = plane
        anchor_hit = mesh.closest_point(plane.centre)
        self.anchor = anchor_hit.point
        self._s_origin = plane.project(anchor_hit.point)
        proj = plane.project(mesh.vertices) - self._s_origin
        self.s_min = proj.min(axis=0) + margin
        self.s_max = proj.max(axis=0) - margin
        if np.any(self.s_min >= self.s_max):
            raise ValueError("chart domain is empty; margin too large or mesh too small")
        self._ray_height = float(plane.height_of(mesh.vertices).max()) + RAY_CLEARANCE
        # per-query lookups, fetched once
        self._u, self._v, _ = plane.frame()
        self._vertex_normals = mesh.vertex_normals()
        self._bounds = (self.s_min.tolist(), self.s_max.tolist())

    # ---- domain ----

    def contains(self, s) -> bool:
        (s1, s2), (lo, hi) = np.asarray(s, dtype=float).reshape(2).tolist(), self._bounds
        return lo[0] <= s1 <= hi[0] and lo[1] <= s2 <= hi[1]

    def clamp(self, s) -> np.ndarray:
        return np.clip(np.asarray(s, dtype=float), self.s_min, self.s_max)

    def chart_coords(self, p) -> np.ndarray:
        """(s1, s2) of one world point."""
        d = np.asarray(p, dtype=float) - self.plane.centre
        return np.array([d @ self._u, d @ self._v]) - self._s_origin

    # ---- geometry ----

    def _frame_at(self, hit_point: np.ndarray, face: int, bary: np.ndarray) -> SurfaceFrame:
        n = bary @ self._vertex_normals[self.mesh.faces[face]]
        norm = math.sqrt(n.dot(n))
        if norm < FRAME_TOL:
            raise DegenerateFrameError(f"interpolated normal vanished on face {face}")
        n = n / norm
        u = self._u
        t1 = u - (u @ n) * n
        nt = math.sqrt(t1.dot(t1))
        if nt < FRAME_TOL:
            raise DegenerateFrameError(f"surface normal parallel to the chart axis on face {face}")
        t1 = t1 / nt
        t2 = cross3(n, t1, (3,))
        return SurfaceFrame(hit_point, t1, t2, n, int(face))

    def embed(self, s) -> tuple[ChartPoint, SurfaceFrame]:
        """Surface point over chart coordinates s, via a vertical ray."""
        s = np.asarray(s, dtype=float).reshape(2)
        if not self.contains(s):
            raise ChartBoundaryError(s, self.clamp(s))
        origin = self.plane.embed(s + self._s_origin, height=self._ray_height)
        hit = self.mesh.raycast(origin, -self.plane.normal)
        if hit is None:
            raise ChartBoundaryError(s, self.clamp(s))  # hole in the reconstruction
        point = ChartPoint(hit.face, hit.barycentric, s)
        return point, self._frame_at(hit.point, hit.face, hit.barycentric)

    def _foot(self, p: np.ndarray, hint) -> tuple[ClosestHit, np.ndarray, SurfaceFrame]:
        s_query = self.chart_coords(p)
        if not self.contains(s_query):
            raise ChartBoundaryError(s_query, self.clamp(s_query))
        hit: ClosestHit = self.mesh.closest_point(p, hint)
        frame = self._frame_at(hit.point, hit.face, hit.barycentric)
        return hit, self.chart_coords(hit.point), frame

    def closest_point(self, p, hint: int | None = None) -> tuple[ChartPoint, float, SurfaceFrame]:
        """Chart point under a world point, plus its signed distance.

        Distance sign follows the winning face's outward normal (positive
        above the surface). The query point itself must project inside
        the domain; its foot point then clamps to the boundary at worst.
        hint (a face index, typically last step's foot point) only speeds
        the search up; the result is identical with or without it.
        """
        hit, s, frame = self._foot(np.asarray(p, dtype=float).reshape(3), hint)
        return ChartPoint(hit.face, hit.barycentric, s), hit.distance, frame

    # ---- task coordinates ----

    def evaluate_probe(
        self, R_probe: np.ndarray, tip: np.ndarray, probe_jacobian: np.ndarray, qdot,
        hint: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SurfaceFrame]:
        """One-query bundle for the control loop: (rho, rhodot, J_rho, frame),
        rho and rhodot (6,) arrays, from one kinematics sweep's probe
        rotation matrix, tip and geometric Jacobian (taken at that tip).

        J_rho maps joint rates to rho rates with the frame held frozen: its
        position rows are the frame axes (t1, t2, n) times the Jacobian's
        linear rows, its orientation rows eps_rate_map times the angular
        rows. The inputs derive from validated joint states, so only the
        checks that can fire run here: the chart boundary, a degenerate
        frame and the barycentric sum.
        """
        hit, s, frame = self._foot(tip, hint)
        b0, b1, b2 = hit.barycentric.tolist()
        if abs(b0 + b1 + b2 - 1.0) > 1e-9 or min(b0, b1, b2) < -1e-9:
            raise ValueError("barycentric weights must be non-negative and sum to 1")
        eta, eps = orientation_error(R_probe, frame)
        rho = np.array([*s.tolist(), hit.distance, *eps.tolist()])
        J = np.empty((6, 7))
        J[:3] = frame.rotation().T @ probe_jacobian[:3]
        J[3:] = eps_rate_map(eta, eps) @ probe_jacobian[3:]
        return rho, J @ np.asarray(qdot, dtype=float).reshape(7), J, frame


def orientation_error(R_probe: np.ndarray, frame: SurfaceFrame) -> tuple[float, np.ndarray]:
    """(eta, eps) of the world-frame rotation taking the probe onto the
    surface frame; eps = 0 exactly at alignment."""
    R_err = frame.rotation() @ R_probe.T
    q = quat_from_matrix(R_err)  # canonical, eta >= 0
    return float(q[0]), q[1:].copy()
