"""Synthetic depth sensing and surface reconstruction.

Stands in for the commercial RGB-D pipeline: depth images are rendered
off the ground-truth phantom mesh by ray casting, back-projected into
heights over the localisation plane, averaged on a fixed grid, and
re-meshed. Plane-referenced height-field fusion is a method substitution
(the original algorithm is closed), valid because the phantom is scanned
from above.

Determinism: noise comes only from the caller-supplied generator, and
fusion sorts every (cell, height) contribution before summing, so the
result is bit-identical under any permutation of the view list.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose
from .localization import ScenePlane
from .mesh import TriMesh, grid_surface_mesh


class EmptyReconstructionError(ValueError):
    """No valid depth samples cover the requested region."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model; pixel (u, v) rays pass through
    ((u-cx)/fx, (v-cy)/fy, 1) in the optical frame (+z forward)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    depth_noise_sigma: float = 0.0

    def __post_init__(self):
        # each message names its fields; written so NaN fails every test
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError(f"width and height must be at least 1, got {self.width} x {self.height}")
        if not (0.0 < self.fx < np.inf and 0.0 < self.fy < np.inf):
            raise ValueError(f"focal lengths fx, fy must be positive and finite, got {self.fx}, {self.fy}")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError(f"principal point cx, cy must lie inside the image, got {self.cx}, {self.cy}")
        sigma = self.depth_noise_sigma
        if not 0.0 <= sigma < np.inf:
            raise ValueError(f"depth_noise_sigma must be non-negative and finite, got {sigma}")

    def pixel_dirs(self) -> np.ndarray:
        """(height*width, 3) camera-frame ray directions, z = 1 so the ray
        parameter equals z-depth."""
        u = np.arange(self.width, dtype=float)
        v = np.arange(self.height, dtype=float)
        U, V = np.meshgrid(u, v)  # (height, width)
        d = np.stack([(U - self.cx) / self.fx, (V - self.cy) / self.fy, np.ones_like(U)], axis=-1)
        return d.reshape(-1, 3)


@dataclass(frozen=True)
class DepthImage:
    """Depth map in m; 0 marks an invalid pixel (ray miss)."""

    intrinsics: CameraIntrinsics
    pose: Pose  # camera optical frame -> world
    depths: np.ndarray  # (height, width)

    def __post_init__(self):
        d = np.asarray(self.depths, dtype=float)
        if d.shape != (self.intrinsics.height, self.intrinsics.width):
            raise ValueError(
                f"depths must be (height, width) = "
                f"({self.intrinsics.height}, {self.intrinsics.width}), got {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("depths must be finite")
        if d.min() < 0.0:
            raise ValueError("negative depth; invalid pixels are encoded as 0")
        object.__setattr__(self, "depths", d)

    def backproject(self) -> np.ndarray:
        """World points of the valid pixels, row-major pixel order."""
        dirs = self.intrinsics.pixel_dirs()
        depth = self.depths.reshape(-1)
        keep = depth > 0.0
        pts_cam = dirs[keep] * depth[keep, None]
        return pts_cam @ self.pose.rotation.T + self.pose.translation


def render_depth(
    mesh: TriMesh,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    rng: np.random.Generator | None = None,
) -> DepthImage:
    """Ray-cast depth image of the mesh.

    Depth is z-depth (distance along the optical axis). Gaussian noise of
    depth_noise_sigma is added to hit pixels; a generator is required
    when the sigma is non-zero. Noisy depths that fall to 0 or below
    become invalid pixels.
    """
    if intrinsics.depth_noise_sigma > 0.0 and rng is None:
        raise ValueError("depth noise requested but no generator supplied")
    dirs_cam = intrinsics.pixel_dirs()
    dirs_world = dirs_cam @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs_world.shape)
    t, _ = mesh.raycast_batch(origins, dirs_world, t_min=1e-9)
    depth = np.where(np.isfinite(t), t, 0.0)
    if intrinsics.depth_noise_sigma > 0.0:
        noise = rng.normal(0.0, intrinsics.depth_noise_sigma, depth.shape)
        hit = depth > 0.0
        depth = np.where(hit, depth + noise, 0.0)
        depth = np.where(depth > 0.0, depth, 0.0)
    return DepthImage(intrinsics, pose, depth.reshape(intrinsics.height, intrinsics.width))


@dataclass(frozen=True)
class HeightField:
    """Heights over the plane on a node grid aligned to multiples of the
    resolution; node (i, j) sits at plane coordinates (index_origin + (i, j)) * resolution."""

    plane: ScenePlane
    resolution: float
    index_origin: tuple[int, int]
    heights: np.ndarray  # (ni, nj) m, meaningful where weights > 0
    weights: np.ndarray  # (ni, nj) sample counts

    def __post_init__(self):
        if not 0.0 < self.resolution < np.inf:
            raise ValueError("resolution must be positive")
        h = np.asarray(self.heights, dtype=float)
        w = np.asarray(self.weights, dtype=np.int64)
        if h.shape != w.shape or h.ndim != 2:
            raise ValueError("heights and weights must be matching 2-D grids")
        if w.min() < 0:
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "index_origin", (int(self.index_origin[0]), int(self.index_origin[1])))

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        i0, j0 = self.index_origin
        ni, nj = self.heights.shape
        return (
            (i0 + np.arange(ni)) * self.resolution,
            (j0 + np.arange(nj)) * self.resolution,
        )

    def covered(self) -> np.ndarray:
        return self.weights > 0


def fuse_views(
    images: list[DepthImage],
    plane: ScenePlane,
    resolution: float = 0.005,
) -> HeightField:
    """Average back-projected heights onto the plane grid.

    Every sample lands on its nearest grid node. Contributions are
    pooled over all views, collapsed to unique (node, height) pairs with
    multiplicities, and summed in sorted order. Sorting makes the result
    independent of view and pixel order bit for bit; the multiplicity
    form makes duplicated views scale every partial sum by an exact
    power of two, so the averaged field is bitwise idempotent as well.
    """
    if not images:
        raise EmptyReconstructionError("no depth images supplied")
    if not 0.0 < resolution < np.inf:
        raise ValueError("resolution must be positive")
    s_all = []
    h_all = []
    for img in images:
        pts = img.backproject()
        if len(pts) == 0:
            continue
        s_all.append(plane.project(pts))
        h_all.append(plane.height_of(pts))
    if not s_all:
        raise EmptyReconstructionError("all depth images are empty")
    s = np.concatenate(s_all, axis=0)
    h = np.concatenate(h_all, axis=0)
    idx = np.round(s / resolution).astype(np.int64)  # nearest node
    i0 = idx[:, 0].min()
    i1 = idx[:, 0].max()
    j0 = idx[:, 1].min()
    j1 = idx[:, 1].max()
    ni = int(i1 - i0 + 1)
    nj = int(j1 - j0 + 1)
    flat = (idx[:, 0] - i0) * nj + (idx[:, 1] - j0)
    order = np.lexsort((h, flat))
    flat = flat[order]
    h = h[order]
    new = np.empty(len(flat), dtype=bool)
    new[0] = True
    new[1:] = (np.diff(flat) != 0) | (np.diff(h) != 0)
    starts = np.flatnonzero(new)
    mult = np.diff(np.concatenate([starts, [len(flat)]]))
    h_u = h[starts]
    flat_u = flat[starts]
    terms = h_u * mult
    cell_new = np.empty(len(flat_u), dtype=bool)
    cell_new[0] = True
    cell_new[1:] = np.diff(flat_u) != 0
    cell_starts = np.flatnonzero(cell_new)
    cells = flat_u[cell_starts]
    sums = np.zeros(ni * nj)
    counts = np.zeros(ni * nj, dtype=np.int64)
    sums[cells] = np.add.reduceat(terms, cell_starts)
    counts[cells] = np.add.reduceat(mult, cell_starts)
    heights = np.zeros(ni * nj)
    hit = counts > 0
    heights[hit] = sums[hit] / counts[hit]
    return HeightField(
        plane,
        resolution,
        (int(i0), int(j0)),
        heights.reshape(ni, nj),
        counts.reshape(ni, nj),
    )


def extract_mesh(field: HeightField) -> TriMesh:
    """Two upward-wound triangles per fully covered grid cell."""
    u, v, n = field.plane.frame()
    xs, ys = field.node_coords()
    try:
        return grid_surface_mesh(
            field.plane.centre, u, v, n, xs, ys, field.heights, mask=field.covered()
        )
    except ValueError as exc:
        raise EmptyReconstructionError(f"height field has no fully covered cell: {exc}") from exc


def mesh_error(
    recon: TriMesh,
    truth: TriMesh,
    n_samples: int = 10000,
    seed: int = 0,
) -> dict:
    """Symmetric point-sampled surface distance.

    Draws n_samples area-weighted points on each mesh and measures the
    unsigned distance to the other; rms pools both directions.
    """
    rng = np.random.default_rng(seed)
    d = []
    for src, dst in ((recon, truth), (truth, recon)):
        pts = src.sample_surface(n_samples, rng)
        d.append(np.abs(dst.closest_points(pts)[0]))
    both = np.concatenate(d)
    return {
        "rms": float(np.sqrt(np.mean(both**2))),
        "hausdorff": float(np.max(both)),
    }


# ---------------------------------------------------------------------------
# PFM depth-map files
# ---------------------------------------------------------------------------


def save_pfm(depths: np.ndarray, path) -> None:
    """Grayscale PFM, little-endian, rows bottom to top per the format."""
    d = np.asarray(depths, dtype=np.float32)
    if d.ndim != 2:
        raise ValueError("PFM expects a 2-D array")
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{d.shape[1]} {d.shape[0]}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(d[::-1]).tobytes())


def load_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"Pf":
            raise ValueError(f"{path}: not a grayscale PFM file")
        try:
            width, height = (int(x) for x in fh.readline().split())
            scale = float(fh.readline())
        except ValueError:
            raise ValueError(f"{path}: malformed PFM header (size or scale line)") from None
        if width < 1 or height < 1 or not np.isfinite(scale) or scale == 0.0:
            raise ValueError(f"{path}: malformed PFM header (size {width} x {height}, scale {scale})")
        # checked before the read, which a forged size would turn into a
        # MemoryError or OverflowError
        if os.fstat(fh.fileno()).st_size - fh.tell() < 4 * width * height:
            raise ValueError(f"{path}: truncated pixel data for {width} x {height} pixels")
        data = np.frombuffer(fh.read(4 * width * height), dtype="<f4" if scale < 0 else ">f4")
    return data.reshape(height, width)[::-1].astype(np.float32)
