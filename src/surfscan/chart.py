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

`SurfaceChart.evaluate_probe` is the chart's one entry point; the control
loop calls it once per step. It takes the probe frame as the kinematics
sweep leaves it, a rotation matrix and the tip, and returns what the step
reads: rho, its rate, J_rho, the normal n and the foot point's face. It
works on plain floats: the chart coordinates, the surface frame, the error
quaternion and the eps rate map are scalar expressions over 3-vectors,
whose numpy forms cost more in per-call overhead than in arithmetic. Only
the BVH query, the one 6x6-by-6x7 product for J_rho, its product with
qdot and the returned arrays are numpy calls. The float sums round
differently from numpy's fused dot kernels, by an ulp or so; the numpy
formulas live on in the tests as the oracle.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import shepperd
from .localization import ScenePlane
from .mesh import TriMesh

FRAME_TOL = 1e-6


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


class SurfaceChart:
    """Immutable chart over a mesh; all queries are pure."""

    def __init__(self, mesh: TriMesh, plane: ScenePlane, margin: float = 0.0):
        self.mesh = mesh
        self.plane = plane
        anchor_hit = mesh.closest_point(plane.centre)
        self.anchor = anchor_hit.point
        s_origin = plane.project(anchor_hit.point)
        proj = plane.project(mesh.vertices) - s_origin
        self.s_min = proj.min(axis=0) + margin
        self.s_max = proj.max(axis=0) - margin
        if np.any(self.s_min >= self.s_max):
            raise ValueError("chart domain is empty; margin too large or mesh too small")
        # per-query constants as floats
        u, v, _ = plane.frame()
        self._u, self._v = u.tolist(), v.tolist()
        self._centre = plane.centre.tolist()
        self._s_origin = s_origin.tolist()
        self._bounds = (self.s_min.tolist(), self.s_max.tolist())
        self._corner_normals: dict[int, list] = {}  # face -> its vertex normals, on first visit

    def clamp(self, s) -> np.ndarray:
        return np.clip(np.asarray(s, dtype=float), self.s_min, self.s_max)

    def _coords(self, p) -> tuple[float, float]:
        """(s1, s2) of a world point given as three floats."""
        (x, y, z), (cx, cy, cz) = p, self._centre
        dx, dy, dz = x - cx, y - cy, z - cz
        (ux, uy, uz), (vx, vy, vz), (o1, o2) = self._u, self._v, self._s_origin
        return dx * ux + dy * uy + dz * uz - o1, dx * vx + dy * vy + dz * vz - o2

    def _frame_axes(self, face: int, b0: float, b1: float, b2: float) -> tuple:
        """Unit (t1, t2, n) as float triples at barycentric (b0, b1, b2) on
        `face`: n interpolates the vertex normals, t1 is the chart's u axis
        with its n component removed, and t2 = n x t1."""
        rows = self._corner_normals.get(face)
        if rows is None:
            rows = self.mesh.vertex_normals()[self.mesh.faces[face]].tolist()
            self._corner_normals[face] = rows
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = rows
        nx, ny, nz = b0 * ax + b1 * bx + b2 * cx, b0 * ay + b1 * by + b2 * cy, b0 * az + b1 * bz + b2 * cz
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm < FRAME_TOL:
            raise DegenerateFrameError(f"interpolated normal vanished on face {face}")
        nx, ny, nz = nx / norm, ny / norm, nz / norm
        ux, uy, uz = self._u
        un = ux * nx + uy * ny + uz * nz
        tx, ty, tz = ux - un * nx, uy - un * ny, uz - un * nz
        nt = math.sqrt(tx * tx + ty * ty + tz * tz)
        if nt < FRAME_TOL:
            raise DegenerateFrameError(f"surface normal parallel to the chart axis on face {face}")
        tx, ty, tz = tx / nt, ty / nt, tz / nt
        return (tx, ty, tz), (ny * tz - nz * ty, nz * tx - nx * tz, nx * ty - ny * tx), (nx, ny, nz)

    # ---- task coordinates ----

    def evaluate_probe(
        self, R_probe: np.ndarray, tip: np.ndarray, probe_jacobian: np.ndarray, qdot,
        hint: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """One-query bundle for the control loop: (rho, rhodot, J_rho, n,
        face), rho and rhodot (6,) arrays, from one kinematics sweep's probe
        rotation matrix, tip and geometric Jacobian (taken at that tip).

        The frame (t1, t2, n) sits at the tip's closest mesh point, on face
        `face` (hint, a face index, only speeds that search up). The
        distance's sign follows the winning face's outward normal (positive
        above). The tip itself must project inside the domain; its foot
        point then clamps to the boundary at worst. eps is the vector part
        of the canonical (eta >= 0) quaternion of R_err = F R_probe^T,
        F = [t1 t2 n], which takes the probe onto the frame, so eps = 0
        exactly at alignment.

        J_rho = G @ probe_jacobian maps joint rates to rho rates with the
        frame held frozen, where G = [[F^T, 0], [0, E]] and E, with
        epsdot = E omega_world, is -(eta I + [eps]x) / 2. The inputs derive
        from validated joint states, so only the checks that can fire run
        here: the chart boundary, a degenerate frame and the barycentric
        sum. (The quaternion needs no guard: Shepperd's largest component
        is at least 1/2.)
        """
        s1, s2 = self._coords(tip.tolist())
        (lo1, lo2), (hi1, hi2) = self._bounds
        if not (lo1 <= s1 <= hi1 and lo2 <= s2 <= hi2):
            raise ChartBoundaryError((s1, s2), self.clamp((s1, s2)))
        hit = self.mesh.closest_point(tip, hint)
        b0, b1, b2 = hit.weights
        (x1, y1, z1), (x2, y2, z2), (xn, yn, zn) = self._frame_axes(hit.face, b0, b1, b2)
        f1, f2 = self._coords(hit.xyz)
        if abs(b0 + b1 + b2 - 1.0) > 1e-9 or min(b0, b1, b2) < -1e-9:
            raise ValueError("barycentric weights must be non-negative and sum to 1")
        (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = R_probe.tolist()
        w, x, y, z = shepperd(
            x1 * p00 + x2 * p01 + xn * p02, x1 * p10 + x2 * p11 + xn * p12, x1 * p20 + x2 * p21 + xn * p22,
            y1 * p00 + y2 * p01 + yn * p02, y1 * p10 + y2 * p11 + yn * p12, y1 * p20 + y2 * p21 + yn * p22,
            z1 * p00 + z2 * p01 + zn * p02, z1 * p10 + z2 * p11 + zn * p12, z1 * p20 + z2 * p21 + zn * p22,
        )
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if w < 0.0:
            norm = -norm  # the canonical sign, eta >= 0
        eta, e1, e2, e3 = w / norm, x / norm, y / norm, z / norm
        h = -0.5 * eta
        G = np.array([
            x1, y1, z1, 0.0, 0.0, 0.0,
            x2, y2, z2, 0.0, 0.0, 0.0,
            xn, yn, zn, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, h, 0.5 * e3, -0.5 * e2,
            0.0, 0.0, 0.0, -0.5 * e3, h, 0.5 * e1,
            0.0, 0.0, 0.0, 0.5 * e2, -0.5 * e1, h,
        ]).reshape(6, 6)
        J = G.dot(probe_jacobian)  # the same bits as G @ probe_jacobian, at half the cost
        rho = np.array([f1, f2, hit.distance, e1, e2, e3])
        # n, the contact force's direction, is the third row of G's frame block
        return rho, J.dot(qdot), J, G[2, :3], hit.face
