"""Fiducial-based scene localisation.

Four flat markers on the table define the phantom plane. The camera is
then posed automatically: tilted 45 degrees off the plane normal at 0.30 m
from the plane centre, optical axis through the centre, and rotated
around the normal to collect reconstruction views.

Marker decoding from pixels is out of scope; observations enter as corner
points in the camera frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .geometry import Pose, plane_basis
from .schema import REQUIRED, ConfigKey, as_float, as_int, as_matrix, list_of, load_yaml, read_node


class DegenerateMarkerError(ValueError):
    """Marker centres are collinear or coincident; no unique plane."""


@dataclass(frozen=True)
class MarkerObservation:
    """One detected square fiducial.

    Corners are camera-frame points in clockwise order seen from the
    camera, starting at the marker's top-left. Noiseless synthetic
    observations are planar; noisy ones need not be.
    """

    marker_id: int
    corners: np.ndarray  # (4, 3) m, camera frame
    confidence: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float).reshape(4, 3)
        if not np.all(np.isfinite(c)):
            raise ValueError("corners must be finite")
        for i in range(4):
            for j in range(i + 1, 4):
                if np.array_equal(c[i], c[j]):
                    raise ValueError(f"marker {self.marker_id}: corners {i} and {j} coincide")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        object.__setattr__(self, "corners", c)

    @property
    def centre(self) -> np.ndarray:
        return self.corners.mean(axis=0)


@dataclass(frozen=True)
class ScenePlane:
    """Table plane found from the markers: centre point plus unit normal
    oriented toward the camera side."""

    centre: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centre, dtype=float).reshape(3)
        n = np.asarray(self.normal, dtype=float).reshape(3)
        norm = np.linalg.norm(n)
        if not np.all(np.isfinite(c)) or not np.isfinite(norm):
            raise ValueError("plane must be finite")
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"normal must be unit length, got norm {norm}")
        object.__setattr__(self, "centre", c)
        object.__setattr__(self, "normal", n / norm)

    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-handed (u, v, n) with deterministic in-plane axes."""
        return (*plane_basis(self.normal), self.normal)

    def height_of(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return (p - self.centre) @ self.normal

    def project(self, points: np.ndarray) -> np.ndarray:
        """In-plane (s1, s2) coordinates of world points."""
        u, v, _ = self.frame()
        p = np.asarray(points, dtype=float) - self.centre
        return np.stack([p @ u, p @ v], axis=-1)


def fit_plane(
    markers: list[MarkerObservation],
    camera_pose: Pose,
    use_corners: bool = False,
) -> ScenePlane:
    """Least-squares plane through the marker centres, world frame.

    centre is the mean of the (world) marker centres; the normal is the
    smallest-singular-vector of the centred point matrix, flipped toward
    the camera. use_corners fits on all 4k corner points instead, which
    the experiments expose as a config switch.
    """
    if len(markers) < 3:
        raise DegenerateMarkerError(f"need at least 3 markers, got {len(markers)}")
    R, origin = camera_pose.rotation, camera_pose.translation
    centres_world = np.stack([m.centre for m in markers], axis=0) @ R.T + origin
    centre = centres_world.mean(axis=0)
    fit_pts = centres_world
    if use_corners:
        fit_pts = np.concatenate([m.corners for m in markers], axis=0) @ R.T + origin
    centred = fit_pts - fit_pts.mean(axis=0)
    _, s, vt = np.linalg.svd(centred, full_matrices=False)
    if s[1] <= 1e-12 + 1e-9 * s[0]:
        raise DegenerateMarkerError("marker centres are collinear or coincident")
    normal = vt[2]
    toward_camera = camera_pose.translation - centre
    side = float(normal @ toward_camera)
    if side == 0.0:
        raise DegenerateMarkerError("camera lies in the marker plane")
    if side < 0.0:
        normal = -normal
    return ScenePlane(centre, normal)


def tangent_direction(plane: ScenePlane, azimuth: float) -> np.ndarray:
    u, v, _ = plane.frame()
    return math.cos(azimuth) * u + math.sin(azimuth) * v


def alignment_pose(
    plane: ScenePlane,
    angle: float = math.pi / 4.0,
    distance: float = 0.30,
    azimuth: float = 0.0,
) -> Pose:
    """Camera pose looking at the plane centre.

    Position sits at `distance` from the centre, tilted `angle` off the
    normal in the azimuth direction; the optical (+z) axis points exactly
    at the centre and the x axis stays parallel to the plane.
    """
    if not 0.0 <= angle < math.pi / 2.0:
        raise ValueError(f"angle must lie in [0, pi/2), got {angle}")
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    n = plane.normal
    t = tangent_direction(plane, azimuth)
    position = plane.centre + distance * (math.cos(angle) * n + math.sin(angle) * t)
    z_cam = -(math.cos(angle) * n + math.sin(angle) * t)  # unit by construction
    x_cam = np.cross(z_cam, n)
    nx = np.linalg.norm(x_cam)
    if nx < 1e-12:
        # looking straight down: the cross degenerates; use the limit
        # direction, which keeps x continuous in angle
        x_cam = tangent_direction(plane, azimuth - math.pi / 2.0)
    else:
        x_cam = x_cam / nx
    y_cam = np.cross(z_cam, x_cam)
    return Pose(np.column_stack([x_cam, y_cam, z_cam]), position)


def orbit_trajectory(
    plane: ScenePlane,
    n_views: int,
    angle: float = math.pi / 4.0,
    distance: float = 0.30,
) -> list[Pose]:
    """n_views alignment poses at evenly spaced azimuths around the normal."""
    if n_views < 2:
        raise ValueError(f"need at least 2 views, got {n_views}")
    return [
        alignment_pose(plane, angle, distance, 2.0 * math.pi * k / n_views)
        for k in range(n_views)
    ]


# ---------------------------------------------------------------------------
# Marker observation files
# ---------------------------------------------------------------------------

MARKER_ROWS = (
    ConfigKey("id", REQUIRED, as_int),
    ConfigKey("corners", REQUIRED, lambda value, where: as_matrix(value, 4, 3, where)),
    ConfigKey("confidence", 1.0, as_float),
)


def load_markers(path) -> list[MarkerObservation]:
    """The observations of a marker file, read through MARKER_ROWS."""
    markers = list_of(MARKER_ROWS, lambda id, **rest: MarkerObservation(id, **rest))
    file_rows = (ConfigKey("markers", REQUIRED, markers),)
    return read_node(load_yaml(path), file_rows, str(path), lambda markers: list(markers))


def save_markers(markers: list[MarkerObservation], path) -> None:
    doc = {
        "markers": [
            {
                "id": int(m.marker_id),
                "corners": [[float(x) for x in row] for row in m.corners],
                "confidence": float(m.confidence),
            }
            for m in markers
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
