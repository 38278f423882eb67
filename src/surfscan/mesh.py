"""Triangle meshes with deterministic proximity and ray queries.

The closest-point kernel is a vectorised transcription of the classic
point-vs-triangle Voronoi-region case analysis (Ericson, Real-Time
Collision Detection, 5.1.5). It backs the exhaustive reference path and
the batched traversal; the single-point walk runs a scalar transcription
that rounds identically. Accelerated queries reproduce the brute-force
result bit for bit, including the (distance, face index) tie-break.

Point queries use a median-split AABB tree over face boxes, built and
numbered level by level (a right child is its left + 1), whose leaves list
their faces in ascending order and whose boxes are padded against
rounding; traversal never prunes a node whose lower bound ties the current
best, which is what makes the tie-break exact. A single query walks from
the root, nearer child first, and leaves a Verlet list (Verlet, Phys. Rev.
159, 1967): the faces within its winner's distance plus SKIN, and a guard
radius that all others lie beyond. A query hinted with that winner
evaluates only the list while the guard certifies its winner. Batched
queries walk the tree breadth first over (point, node) pairs, seeded by a
greedy descent.

Rays use Moller-Trumbore with double-sided hits. Rays that share an origin
are cast together (Wald et al., "Interactive Rendering with Coherent Ray
Tracing", 2001) by the sort-middle binning of software rasterisers (Laine
and Karras, "High-Performance Software Rasterization on GPUs", 2011): the
faces are projected from the origin, and each is evaluated for the rays
whose image points fall in its padded box. One ray is a group of one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import plane_basis

LEAF_SIZE = 8
POINT_BLOCK = 1024  # points per batched traversal; bounds its working set
PAIR_CHUNK = 256  # (point, leaf) pairs per kernel call; bounds its temporaries
SKIN = 5e-4  # m: a nearest list entry holds the faces within its winner's distance plus this
RAY_BLOCK = 4096  # rays per binning pass; bounds its working set
RAYS_PER_CELL = 2  # mean rays per cell of a pass's image-space grid
MIN_SPAN = 1e-12  # an image extent below this gets one cell, so no cell-size ratio overflows
MIN_COS = 0.5  # a ray group stays whole while every ray is within 60 degrees of its mean
DEGENERATE_AREA = 1e-12
BARY_EPS = 1e-10  # ray tests: tolerance on barycentric bounds at shared edges
PARALLEL_SIN = 1e-6  # ray tests: a ray at a smaller sine to a face's plane misses it

# Ray binning pads. A group has origin o and frame (e1, e2, w); a point X has
# depth z = (X - o).w and image p(X) = ((X - o).e1, (X - o).e2) / z. Rays of
# a group have D.w > 0, so a ray's points at t > 0 share one image q. If the
# kernel reports a hit on a binned face, q lies in the face's padded box:
# 1. Rounding moves the kernel's u and v by far less than RAY_SLACK, for the
#    kernel drops a face whose plane the ray meets at a sine of PARALLEL_SIN
#    or less, before det is mostly rounding. So with BARY_EPS the exact hit
#    is X = sum l_k V_k, sum l_k = 1, at most two l_k < 0, all >= -RAY_SLACK.
# 2. Binned faces have depths z_k > FRONT_COS r, r = max |V_k - o|, so
#    z(X) >= z_min - 2 RAY_SLACK r > z_min / 2: X is at t > 0 and p(X) = q.
# 3. q = sum m_k p(V_k), m_k = l_k z_k / z(X) summing to 1, each m_k >
#    -2 RAY_SLACK / FRONT_COS: q is within PAD_REL box extents of the box.
# 4. |p| < 1 / FRONT_COS at binned vertices; computed image points of
#    vertices and rays are within 5 eps (1 + |p|)^2 of exact, and the
#    PAD_ABS term, m the box's largest |coordinate|, is 30 times the sum.
# By the mirror of 2, a face with every z_k < -FRONT_COS r has no hit.
RAY_SLACK = 1e-6
FRONT_COS = 1e-3
PAD_REL = 4.0 * RAY_SLACK / FRONT_COS
PAD_ABS = 1e-13  # times (1 + m)^2


@dataclass(frozen=True)
class TriMesh:
    """Immutable orientable manifold patch.

    face_normals are derived from winding; generators must wind faces so
    normals point out of the material (up, for height fields).
    """

    vertices: np.ndarray  # (n, 3) m
    faces: np.ndarray  # (m, 3) int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        f = np.asarray(self.faces)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 3:
            raise ValueError("vertices must be an (n, 3) array with n >= 3")
        if f.ndim != 2 or f.shape[1] != 3 or len(f) < 1:
            raise ValueError("faces must be an (m, 3) array with m >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        # checked before the int64 cast, which would truncate 1.7 and wrap NaN
        if f.dtype.kind == "f" and not np.all(np.isfinite(f) & (f == np.floor(f))):
            raise ValueError("face indices must be whole numbers")
        if f.min() < 0 or f.max() >= len(v):
            raise ValueError("face index out of range")
        f = np.ascontiguousarray(f, dtype=np.int64)
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(f[:, 0] == f[:, 2]):
            raise ValueError("face with repeated vertex")
        for name, x in (("vertices", v), ("faces", f)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        if np.min(0.5 * np.linalg.norm(cross, axis=1)) <= DEGENERATE_AREA:
            raise ValueError(f"degenerate face (area <= {DEGENERATE_AREA} m^2)")
        self._check_manifold(f, len(v))

    @staticmethod
    def _check_manifold(f: np.ndarray, nv: int) -> None:
        # an undirected edge used more than twice means non-manifold; a
        # directed edge used twice means inconsistent winding
        a, b = f.ravel(), f[:, [1, 2, 0]].ravel()
        _, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_counts=True)
        if counts.max() > 2:
            raise ValueError("non-manifold edge")
        directed = a * nv + b
        if len(np.unique(directed)) != len(directed):
            raise ValueError("inconsistent winding or duplicate face")

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted vertex normals, unit length."""
        return self._accel.vertex_normals

    @functools.cached_property
    def _accel(self) -> "_Accel":
        return _Accel(self)

    # ---- queries ----

    def closest_point(self, p, hint: int | None = None) -> "ClosestHit":
        """Global nearest surface point with signed distance.

        Sign follows the winning face's normal (positive above). Ties in
        distance resolve to the smallest face index, matching the
        exhaustive per-triangle reference exactly.

        hint, if given, is a face index. If an earlier query was won by that
        face, only the faces it listed are evaluated, and their winner is
        taken when the list's guard radius proves that no other face can win
        or tie; otherwise the tree is walked. So the result is bit-identical
        with any hint or none, whatever queries came before; a good hint (the
        winner of a nearby previous query) skips the walk. NaN is a ValueError.
        """
        if hint is not None and not 0 <= hint < self.n_faces:
            raise ValueError(f"hint face {hint} out of range")
        return self._accel.nearest(np.asarray(p, dtype=float).reshape(3), hint)

    def closest_points(self, points):
        """Vectorised closest_point over an (n, 3) array of points.

        Returns (distance, face, point, barycentric) arrays of shapes
        (n,), (n,), (n, 3) and (n, 3); row i is bit-identical to
        closest_point(points[i]), tie-break and sign included.
        """
        P = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(P)):
            raise ValueError("query points must be finite")
        acc = self._accel
        blocks = range(0, max(len(P), 1), POINT_BLOCK)
        parts = [acc.nearest_batch(P[a : a + POINT_BLOCK]) for a in blocks]
        d2, face, cp, bary = (np.concatenate(x) for x in zip(*parts))
        dist = np.sqrt(d2)
        below = _dot3(P - cp, acc.face_normals[face]) < 0.0
        return np.where(below, -dist, dist), face, cp, bary

    def raycast(self, origin, direction, t_min: float = 0.0) -> "RayHit | None":
        """First hit along one ray: raycast_batch on a batch of one."""
        if np.size(origin) != 3:  # raycast_batch checks the shapes of one ray
            raise ValueError(f"raycast takes one ray; got {np.shape(origin)} and {np.shape(direction)}")
        t, face = self.raycast_batch(origin, direction, t_min)
        if face[0] < 0:
            return None
        # the winning lane again, alone: the kernel is elementwise, so u and
        # v round exactly as they did inside the batch
        acc, f = self._accel, int(face[0])
        A, eab, eac = acc.A[f], acc.eab[f], acc.eac[f]
        o, d = (np.asarray(x, dtype=float).reshape(1, 3) for x in (origin, direction))
        u, v = (float(x[0]) for x in _moller_trumbore(o, d, A, eab, eac, acc.face_areas[f], t_min)[1:])
        return RayHit(f, float(t[0]), np.array([1.0 - u - v, u, v]), A + u * eab + v * eac)

    def raycast_batch(self, origins, directions, t_min: float = 0.0):
        """First hits of rays from (n, 3) origins along (n, 3) directions (one
        ray may come as two 3-vectors) at t >= t_min: (t, face) arrays, with
        t = inf and face = -1 on a miss."""
        O, D = (np.asarray(x, dtype=float) for x in (origins, directions))
        if O.shape[-1:] != (3,) or O.ndim > 2 or O.shape != D.shape:
            raise ValueError(f"origins and directions must both be (n, 3); got {O.shape} and {D.shape}")
        O, D = O.reshape(-1, 3), D.reshape(-1, 3)
        if not (np.isfinite(O).all() and np.isfinite(_dot3(D, D)).all() and 0.0 <= t_min < math.inf):
            raise ValueError(f"rays and |D|^2 must be finite, and t_min finite and >= 0 (t_min {t_min})")
        return self._accel.raycast_batch(O, D, t_min)

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points drawn uniformly by area."""
        acc = self._accel
        cdf = np.cumsum(acc.face_areas)
        cdf /= cdf[-1]
        fi = np.searchsorted(cdf, rng.random(n), side="right")
        fi = np.minimum(fi, self.n_faces - 1)
        u, v = rng.random(n), rng.random(n)
        flip = u + v > 1.0
        u, v = np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)
        return acc.A[fi] + u[:, None] * acc.eab[fi] + v[:, None] * acc.eac[fi]


class ClosestHit(NamedTuple):
    """One closest-point query's winner, as the walk leaves it in floats;
    `point` builds the array on demand."""

    face: int
    xyz: tuple  # closest surface point, three floats
    weights: tuple  # (b0, b1, b2) on the winning face's corners
    distance: float  # signed, positive on the normal side

    @property
    def point(self) -> np.ndarray:
        return np.array(self.xyz)


@dataclass(frozen=True)
class RayHit:
    face: int
    t: float
    barycentric: np.ndarray
    point: np.ndarray


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # spelled out so the rounding of each lane is independent of batch
    # size; einsum/dot may switch SIMD contraction paths with shape,
    # which breaks bit-identity between leaf subsets and full arrays
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def closest_point_triangles(p: np.ndarray, A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Closest point on each triangle to p.

    Returns (d2, cp, bary). p broadcasts against the face arrays (one
    point against many faces, or a (points, 1, 3) set against them). Pure
    elementwise arithmetic, so a (point, face) result does not depend on
    what else is in the batch; the hierarchy relies on that.
    """
    ab, ac, ap, bp, cp_ = B - A, C - A, p - A, p - B, p - C
    d1, d2_, d3, d4 = _dot3(ab, ap), _dot3(ac, ap), _dot3(ab, bp), _dot3(ac, bp)
    d5, d6 = _dot3(ab, cp_), _dot3(ac, cp_)
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2_ - d1 * d6, d1 * d4 - d3 * d2_
    in_a = (d1 <= 0.0) & (d2_ <= 0.0)
    in_b = (d3 >= 0.0) & (d4 <= d3)
    in_c = (d6 >= 0.0) & (d5 <= d6)
    on_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    on_ac = (vb <= 0.0) & (d2_ >= 0.0) & (d6 <= 0.0)
    on_bc = (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab, t_ac = d1 / (d1 - d3), d2_ / (d2_ - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        u, v = vb / denom, vc / denom
    # RTCD region priority: vertices, then edges, then face interior;
    # u is the weight on B, v the weight on C. Applied lowest priority
    # first so each later (higher-priority) region overrides.
    for region, u_r, v_r in ((on_bc, 1.0 - t_bc, t_bc), (on_ac, 0.0, t_ac), (on_ab, t_ab, 0.0),
                             (in_c, 0.0, 1.0), (in_b, 1.0, 0.0), (in_a, 0.0, 0.0)):
        u, v = np.where(region, u_r, u), np.where(region, v_r, v)
    cp = A + u[..., None] * ab + v[..., None] * ac
    diff = p - cp
    return _dot3(diff, diff), cp, np.stack([1.0 - u - v, u, v], axis=-1)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def closest_point_scalar(p, a, b, c) -> tuple:
    """closest_point_triangles for point p and one face (a, b, c), all
    3-sequences of floats: (d2, u, v, point), with u and v the weights on
    b and c. The kernel's operations in its order and region priority;
    IEEE float64 scalars round as the ufuncs do, so every value is the
    kernel's bit for bit at a fraction of the call cost. Raises
    ZeroDivisionError where the kernel would divide by zero."""
    (px, py, pz), (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p, a, b, c
    abx, aby, abz, acx, acy, acz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    apx, apy, apz, bpx, bpy, bpz = px - ax, py - ay, pz - az, px - bx, py - by, pz - bz
    cpx, cpy, cpz = px - cx, py - cy, pz - cz
    d1, d2 = abx * apx + aby * apy + abz * apz, acx * apx + acy * apy + acz * apz
    d3, d4 = abx * bpx + aby * bpy + abz * bpz, acx * bpx + acy * bpy + acz * bpz
    d5, d6 = abx * cpx + aby * cpy + abz * cpz, acx * cpx + acy * cpy + acz * cpz
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
    if d1 <= 0.0 and d2 <= 0.0:
        u, v = 0.0, 0.0
    elif d3 >= 0.0 and d4 <= d3:
        u, v = 1.0, 0.0
    elif d6 >= 0.0 and d5 <= d6:
        u, v = 0.0, 1.0
    elif vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        u, v = d1 / (d1 - d3), 0.0
    elif vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        u, v = 0.0, d2 / (d2 - d6)
    elif va <= 0.0 and d4 - d3 >= 0.0 and d5 - d6 >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        u, v = 1.0 - t, t
    else:
        denom = va + vb + vc
        u, v = vb / denom, vc / denom
    x, y, z = ax + u * abx + v * acx, ay + u * aby + v * acy, az + u * abz + v * acz
    ex, ey, ez = px - x, py - y, pz - z
    return ex * ex + ey * ey + ez * ez, u, v, (x, y, z)


def _box_gap2(box, px: float, py: float, pz: float) -> float:
    # squared distance from (px, py, pz) to box (min then max corner) from
    # the per-axis gaps, summed x then y then z like _Accel._box_d2 so both
    # spellings round identically
    x0, y0, z0, x1, y1, z1 = box
    gx = x0 - px if x0 > px else px - x1 if px > x1 else 0.0
    gy = y0 - py if y0 > py else py - y1 if py > y1 else 0.0
    gz = z0 - pz if z0 > pz else pz - z1 if pz > z1 else 0.0
    return gx * gx + gy * gy + gz * gz


def _closest(p, a, b, c) -> tuple:
    # where the scalar form divides by zero, the elementwise numpy kernel on this one face
    try:
        return closest_point_scalar(p, a, b, c)
    except ZeroDivisionError:
        d2, cp, bary = closest_point_triangles(np.array(p), *(np.array([x]) for x in (a, b, c)))
        return float(d2[0]), float(bary[0, 1]), float(bary[0, 2]), tuple(cp[0].tolist())


def _moller_trumbore(O: np.ndarray, D: np.ndarray, A, eab, eac, area, t_min: float):
    """Moller-Trumbore, rays (O, D) broadcast against faces (A, eab, eac, area).

    Returns (t, u, v) with t = inf for misses; hits on either side count.
    Elementwise like the closest-point kernel.
    """
    pvec = np.cross(D, eac)
    det = _dot3(eab, pvec)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / det
        tvec = O - A
        u = _dot3(tvec, pvec) * inv
        qvec = np.cross(tvec, eab)
        v = _dot3(D, qvec) * inv
        t = _dot3(eac, qvec) * inv
        # det = |D| 2 area sin(the ray's angle to the plane): near 0 u, v and t
        # are rounding noise, at 0 (parallel rays, zero D) u + v = inf - inf
        sin_ok = np.abs(det) > np.sqrt(_dot3(D, D)) * area * (2.0 * PARALLEL_SIN)
        hit = sin_ok & (u >= -BARY_EPS) & (v >= -BARY_EPS) & (u + v <= 1.0 + BARY_EPS)
    return np.where(hit & (t >= t_min), t, np.inf), u, v


class _Accel:
    """Median-split AABB tree plus precomputed per-face data."""

    def __init__(self, mesh: TriMesh):
        v, f = mesh.vertices, mesh.faces
        self.vertices, self.corners = v, f.T.copy()  # corners: (3, faces) vertex ids
        self.A, self.B, self.C = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        self.eab, self.eac = self.B - self.A, self.C - self.A
        self.cross = np.cross(self.eab, self.eac)
        norms = np.linalg.norm(self.cross, axis=1)
        self.face_areas = 0.5 * norms
        self.face_normals = self.cross / norms[:, None]
        self.face_normals.setflags(write=False)
        self._build(f)
        self.entries = {}  # face -> nearest's list entry: (anchor, rows, guard)

    @functools.cached_property
    def vertex_normals(self) -> np.ndarray:
        n = np.zeros_like(self.vertices)
        # cross products carry the 2*area weighting already
        for corner in self.corners:
            np.add.at(n, corner, self.cross)
        lengths = np.linalg.norm(n, axis=1)
        lengths[lengths == 0.0] = 1.0  # isolated vertices keep a zero normal
        return n / lengths[:, None]

    def _build(self, f: np.ndarray) -> None:
        fmin = np.minimum(np.minimum(self.A, self.B), self.C)
        fmax = np.maximum(np.maximum(self.A, self.B), self.C)
        # pad the boxes far beyond the rounding of the box bounds, so no
        # box can ever prune a face whose kernel value ties the best
        self.pad = pad = 1e-9 * max(np.abs(fmin).max(), np.abs(fmax).max())
        fmin, fmax = fmin - pad, fmax + pad
        centroids = (self.A + self.B + self.C) / 3.0
        n = len(f)
        perm = np.arange(n)
        # level by level (Lauterbach et al., "Fast BVH Construction on GPUs",
        # 2009): a depth's nodes are arrays of face-run start lo and size m; a
        # node of m > LEAF_SIZE faces sorts its run by centroid on its widest
        # axis and splits it at m // 2
        levels = [(np.zeros(1, np.int64), np.array([n]))]
        while (levels[-1][1] > LEAF_SIZE).any():
            lo, m = (x[levels[-1][1] > LEAF_SIZE] for x in levels[-1])
            # one stable sort per depth: by run, then by centroid on the run's axis
            seg, first = np.repeat(np.arange(len(m)), m), np.cumsum(m) - m
            pos = np.arange(len(seg)) + (lo - first)[seg]
            sub = perm[pos]
            cen = centroids[sub]
            axis = np.argmax(np.maximum.reduceat(cen, first) - np.minimum.reduceat(cen, first), axis=1)
            perm[pos] = sub[np.lexsort((cen[np.arange(len(seg)), axis[seg]], seg))]
            # the next depth: each split node's left then right child, in order
            levels.append((np.column_stack((lo, lo + m // 2)).ravel(),
                           np.column_stack((m // 2, m - m // 2)).ravel()))
        # node ids in build order, depth by depth: the nodes past the root pair
        # up as the split nodes' children, so a right child is its left + 1
        depth = np.repeat(np.arange(len(levels)), [len(x[0]) for x in levels])
        lo, m = (np.concatenate(x) for x in zip(*levels))
        nodes, is_leaf = len(m), m <= LEAF_SIZE
        inner = np.flatnonzero(~is_leaf)
        self.left, self.count = np.full(nodes, -1), np.where(is_leaf, m, 0)
        self.left[inner] = np.arange(1, nodes, 2)
        # leaf boxes over their runs, then inner boxes from their children,
        # deepest first; min and max are exact, so any grouping agrees
        self.bmin, self.bmax = np.empty((nodes, 3)), np.empty((nodes, 3))
        leaf = np.flatnonzero(is_leaf)[np.argsort(lo[is_leaf])]  # in face order
        leaf_lo = lo[leaf]
        self.bmin[leaf] = np.minimum.reduceat(fmin[perm], leaf_lo)
        self.bmax[leaf] = np.maximum.reduceat(fmax[perm], leaf_lo)
        for d in range(len(levels) - 2, -1, -1):
            at = inner[depth[inner] == d]
            l = self.left[at]
            self.bmin[at] = np.minimum(self.bmin[l], self.bmin[l + 1])
            self.bmax[at] = np.maximum(self.bmax[l], self.bmax[l + 1])
        # faces ascend within each leaf, so a leaf's first minimum is its
        # smallest tied face
        which = np.searchsorted(leaf_lo, np.arange(n), side="right")
        perm = perm[np.lexsort((perm, which))]
        # each leaf's faces as one fixed-width row, padded with its last face
        cols = np.minimum(np.arange(LEAF_SIZE), m[leaf][:, None] - 1)
        self.leaf_faces = np.zeros((nodes, LEAF_SIZE), dtype=np.int64)
        self.leaf_faces[leaf] = perm[leaf_lo[:, None] + cols]

    @functools.cached_property
    def _lists(self) -> tuple:
        """Plain-python node boxes (6-lists, min then max) and left children,
        leaf face rows and face -> normal triples for nearest, where indexing
        numpy scalars costs more than the arithmetic; built on the first nearest."""
        boxes = np.hstack([self.bmin, self.bmax]).tolist()
        return boxes, self.left.tolist(), [None] * len(self.count), {}

    def _leaf_rows(self, node: int) -> list:
        # (face, a, b, c, padded box (min then max)) of a leaf's faces in floats,
        # and their normals, on the leaf's first visit: converting all faces
        # at build costs batch-only meshes too
        f = self.leaf_faces[node, : self.count[node]]
        A, B, C = self.A[f], self.B[f], self.C[f]
        lo, hi = np.minimum(np.minimum(A, B), C) - self.pad, np.maximum(np.maximum(A, B), C) + self.pad
        faces = f.tolist()
        rows = list(zip(faces, *(x.tolist() for x in (A, B, C, np.hstack([lo, hi])))))
        self._lists[-2][node] = rows
        self._lists[-1].update(zip(faces, self.face_normals[f].tolist()))
        return rows

    def nearest(self, p: np.ndarray, hint: int | None = None) -> ClosestHit:
        p = p.tolist()
        px, py, pz = p
        entry, best_d2, cut, guard = self.entries.get(hint), math.inf, math.inf, 0.0
        if entry is not None:
            # the hint's list: rows nearest its anchor first, all other faces at
            # least guard from it. cut is the best distance plus |p - anchor|
            # and a slack far above rounding: rows farther than cut from the
            # anchor lose to the best, and when cut < guard so does every other
            # face, so the rows' lex-min is the brute-force winner
            anchor, rows, guard = entry
            reach = math.dist(p, anchor) + self.pad
            win = -1
            for da, f, a, b, c in rows:
                if da > cut:
                    break
                hit = _closest(p, a, b, c)
                if hit[0] < best_d2 or (hit[0] == best_d2 and f < win):
                    best, best_d2, win = hit, hit[0], f
                    cut = math.sqrt(best_d2) + reach
        if not cut < guard:
            best, win = self._walk(p, best_d2)
        d2, u, v, (x, y, z) = best
        dist = math.sqrt(d2)
        nx, ny, nz = self._lists[-1][win]  # the winner's leaf was visited
        if (px - x) * nx + (py - y) * ny + (pz - z) * nz < 0.0:
            dist = -dist
        return ClosestHit(win, (x, y, z), (1.0 - u - v, u, v), dist)

    def _walk(self, p: list, best_d2: float) -> tuple:
        """(hit, face) lex-min over all faces by Ericson's walk from the root,
        nearer child first, pruning a box or face only when strictly beyond
        (sqrt(best) + SKIN)^2, best starting at best_d2: every face that wins
        or ties is evaluated. The winner's entry lists those within the final
        bound, and its guard is the least pruned gap or unlisted distance."""
        px, py, pz = p
        boxes, left, rows_l, _ = self._lists
        win = len(self.A)  # past every face: the first face at best_d2 takes it
        bound = max(best_d2, (math.sqrt(best_d2) + SKIN) ** 2)
        guard2, seen, stack = math.inf, [], [_box_gap2(boxes[0], px, py, pz), 0]
        while stack:
            node, g2 = stack.pop(), stack.pop()
            if g2 > bound:
                guard2 = min(guard2, g2)
                continue
            l = left[node]
            if l >= 0:
                r = l + 1
                gl, gr = _box_gap2(boxes[l], px, py, pz), _box_gap2(boxes[r], px, py, pz)
                stack += (gr, r, gl, l) if gl <= gr else (gl, l, gr, r)
                continue
            for f, a, b, c, box in rows_l[node] or self._leaf_rows(node):
                g2 = _box_gap2(box, px, py, pz)
                if g2 > bound:
                    guard2 = min(guard2, g2)
                    continue
                hit = _closest(p, a, b, c)
                seen.append((hit[0], f, a, b, c))
                if hit[0] < best_d2 or (hit[0] == best_d2 and f < win):
                    best, best_d2, win = hit, hit[0], f
                    bound = max(best_d2, (math.sqrt(best_d2) + SKIN) ** 2)
        if win == len(self.A):  # no comparison held: a NaN coordinate
            raise ValueError("query point must not be NaN")
        rows = sorted((math.sqrt(d2), f, a, b, c) for d2, f, a, b, c in seen if d2 <= bound)
        guard2 = min([guard2] + [d2 for d2, *_ in seen if d2 > bound])
        self.entries[win] = (p, rows, math.sqrt(guard2))
        return best, win

    def _box_d2(self, P: np.ndarray, node) -> np.ndarray:
        # squared point-box distance per row; node is one index or one per row
        g = np.maximum(np.maximum(self.bmin[node] - P, P - self.bmax[node]), 0.0)
        return _dot3(g, g)

    def _point_min(self, P: np.ndarray, pt: np.ndarray, leaf: np.ndarray):
        # (d2, face) lex-min of each (point, leaf) pair, a chunk of pairs at
        # a time against their (chunk, LEAF_SIZE) face rows; rows of
        # leaf_faces ascend, so argmin picks the smallest tied face
        val = np.empty(len(leaf))
        face = np.empty(len(leaf), dtype=np.int64)
        for a in range(0, len(leaf), PAIR_CHUNK):
            rows = slice(a, a + PAIR_CHUNK)
            f = self.leaf_faces[leaf[rows]]
            d2 = closest_point_triangles(P[pt[rows]][:, None, :], self.A[f], self.B[f], self.C[f])[0]
            k = np.argmin(d2, axis=1)
            r = np.arange(len(k))
            val[rows] = d2[r, k]
            face[rows] = f[r, k]
        return val, face

    def nearest_batch(self, P: np.ndarray):
        """Unsigned nearest for many points: (d2, face, cp, bary) arrays.

        Both passes walk the tree breadth first over (point, node) pairs.
        The seed pass follows each point's greedy nearer-box descent to one
        leaf, whose lex-min bounds the point. The bounded pass keeps the
        pairs whose box distance ties or beats that bound; the lex-min over
        every leaf it reaches is the brute-force winner.
        """
        n = len(P)
        seed = np.zeros(n, dtype=np.int64)
        inner = np.arange(n)
        while len(inner):
            l, Q = self.left[seed[inner]], P[inner]
            seed[inner] = np.where(self._box_d2(Q, l) <= self._box_d2(Q, l + 1), l, l + 1)
            inner = inner[self.count[seed[inner]] == 0]
        pt = np.arange(n)
        bound, seed_face = self._point_min(P, pt, seed)
        found = [(pt, bound, seed_face)]
        node = np.zeros(n, dtype=np.int64)
        while len(pt):
            # seed leaves are done; inner nodes never equal a seed
            keep = (self._box_d2(P[pt], node) <= bound[pt]) & (node != seed[pt])
            pt, node = pt[keep], node[keep]
            at_leaf = self.count[node] > 0
            found.append((pt[at_leaf], *self._point_min(P, pt[at_leaf], node[at_leaf])))
            pt, node = pt[~at_leaf], node[~at_leaf]
            pt = np.concatenate([pt, pt])
            node = np.concatenate([self.left[node], self.left[node] + 1])
        pt, d2, face = (np.concatenate(x) for x in zip(*found))
        order = np.lexsort((face, d2, pt))
        pt = pt[order]
        best_face = face[order[np.diff(pt, prepend=-1) != 0]]
        # recomputing the winners alone reproduces their batch lanes exactly
        d2, cp, bary = closest_point_triangles(P, *(x[best_face] for x in (self.A, self.B, self.C)))
        return d2, best_face, cp, bary

    def _face_boxes(self, o: np.ndarray, frame: np.ndarray):
        # the faces in front of o with their padded image boxes, (2, faces)
        # arrays, and those straddling the plane through o normal to w
        V = (self.vertices - o).T
        z = _dot(frame[2], V)[self.corners]
        r = np.sqrt(_dot(V, V))[self.corners].max(axis=0)
        front = z.min(axis=0) > FRONT_COS * r
        other = np.flatnonzero(~front & (z.max(axis=0) >= -FRONT_COS * r))
        binned = np.flatnonzero(front)
        c, z = self.corners[:, binned], z[:, binned]
        p = np.array([_dot(e, V)[c] / z for e in frame[:2]])
        lo, hi = p.min(axis=1), p.max(axis=1)
        pad = PAD_REL * (hi - lo) + PAD_ABS * (1.0 + np.maximum(-lo, hi).max(axis=0)) ** 2
        return binned, lo - pad, hi + pad, other

    def raycast_batch(self, O: np.ndarray, D: np.ndarray, t_min: float):
        """First hits: (t, face) arrays, t = inf and face = -1 on a miss.
        Every face a ray can hit is among its candidates (see the pads
        above), so the kernel's (t, face) lex-min is the brute-force one."""
        best_t = np.full(len(O), np.inf)
        best_face = np.full(len(O), len(self.A))  # past every face until a hit
        for rays, image, frame in _ray_groups(O, D):
            o = O[rays[0]]  # the group's rows are this one bit for bit
            binned, lo, hi, other = self._face_boxes(o, frame)
            for block, ray, face in _binned_pairs(image, lo, hi):
                ray = np.concatenate([rays[ray], np.repeat(rays[block], len(other))])
                face = np.concatenate([binned[face], np.tile(other, len(block))])
                tri = (x.take(face, axis=0) for x in (self.A, self.eab, self.eac, self.face_areas))
                t = _moller_trumbore(o, D.take(ray, axis=0), *tri, t_min)[0]
                # a ray's lanes all lie in this block: its least t, the least
                # face at that t, and that lane's t (a zero may carry either sign)
                np.minimum.at(best_t, ray, t)
                tie = t == best_t[ray]
                np.minimum.at(best_face, ray[tie], face[tie])
                win = tie & (face == best_face[ray])
                best_t[ray[win]] = t[win]
        return best_t, np.where(best_t < np.inf, best_face, -1)


def _ray_groups(O: np.ndarray, D: np.ndarray) -> list:
    # (rays, image, frame) per group of rays that share an origin bit for
    # bit: each ray d is within 60 degrees of w, the frame's last row, and
    # image is the (2, rays) array of (d.e1, d.e2) / d.w. A wider group splits
    # by dominant axis, which keeps each ray within 55 degrees of its axis.
    # Rays of zero direction hit nothing (det is 0) and join no group
    bits = O.view(np.int64)
    if len(O) and (bits == bits[0]).all():
        groups = [np.arange(len(O))]
    else:
        _, which = np.unique(bits, axis=0, return_inverse=True)
        order = np.argsort(which, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(which[order])) + 1)
    out = []
    for rays in groups:
        d = np.ascontiguousarray(D[rays].T)
        scale = np.abs(d).max(axis=0)  # max-norm 1 below: nothing overflows or underflows
        rays, d = rays[scale > 0.0], d[:, scale > 0.0] / scale[scale > 0.0]
        n = np.sqrt(_dot(d, d))
        w = d @ (1.0 / n)
        wn = math.sqrt(_dot(w, w))
        if wn > 0.0 and np.all(_dot(w, d) >= MIN_COS * wn * n):
            parts = [(slice(None), w / wn)]
        else:
            k = np.argmax(np.abs(d), axis=0)
            side = 2 * k + (d[k, np.arange(len(rays))] < 0.0)
            parts = [(side == s, np.eye(3)[s // 2] * (1 - 2 * (s % 2))) for s in np.unique(side)]
        for part, w in parts:
            frame = np.array([*plane_basis(w), w])  # rows e1, e2, w: orthonormal around w
            p = d[:, part]
            out.append((rays[part], np.array([_dot(e, p) for e in frame[:2]]) / _dot(frame[2], p), frame))
    return out


def _binned_pairs(q: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Yields (block, ray, face) for blocks of at most RAY_BLOCK of the (2, n)
    image points q: the block's indices into q, and its pairs of a point in
    box face of [lo, hi]. The points go on a uniform grid of about
    RAYS_PER_CELL points per square cell; a block is a run of row-major cells."""
    x, y = q
    (x0, x1), (y0, y1) = (x.min(), x.max()), (y.min(), y.max())
    wx, wy = (float(w) if w > MIN_SPAN else 0.0 for w in (x1 - x0, y1 - y0))
    cells = max(1, len(x) // RAYS_PER_CELL)
    nx = max(1, min(cells, round(math.sqrt(cells * wx / wy)))) if wy else cells
    ny = max(1, cells // nx)
    sx, sy = (nx / wx if wx else 0.0), (ny / wy if wy else 0.0)

    def index(v, v0, s, n):
        # monotone in v, so a point inside a box lies in one of the box's cells
        return np.clip(np.floor((v - v0) * s), 0, n - 1).astype(np.int64)
    cell = index(y, y0, sy, ny) * nx + index(x, x0, sx, nx)
    order = np.argsort(cell)  # the order within a cell does not matter
    end = np.cumsum(np.bincount(cell, minlength=nx * ny))
    first = np.concatenate([[0], end[:-1]])
    f = np.flatnonzero((lo[0] <= x1) & (hi[0] >= x0) & (lo[1] <= y1) & (hi[1] >= y0))
    fx0, fx1 = index(lo[0, f], x0, sx, nx), index(hi[0, f], x0, sx, nx)
    fy0, fy1 = index(lo[1, f], y0, sy, ny), index(hi[1, f], y0, sy, ny)
    for a in range(0, len(x), RAY_BLOCK):
        b = min(a + RAY_BLOCK, len(x))
        r0, r1 = cell[order[a]] // nx, cell[order[b - 1]] // nx
        k = (fy0 <= r1) & (fy1 >= r0)
        # every (face, cell) pair of each face's cells in the block's rows
        g, gx, gy, w = f[k], fx0[k], np.maximum(fy0[k], r0), fx1[k] - fx0[k] + 1
        n = w * (np.minimum(fy1[k], r1) - gy + 1)
        pair = np.repeat(np.arange(len(g)), n)
        j = np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
        c = (gy[pair] + j // w[pair]) * nx + gx[pair] + j % w[pair]
        # every (face, point) pair of those cells in the block, kept where
        # the point is inside the box
        s = np.maximum(first[c], a)
        n = np.maximum(np.minimum(end[c], b) - s, 0)
        face = np.repeat(g[pair], n)
        ray = order[np.arange(len(face)) - np.repeat(np.cumsum(n) - n - s, n)]
        qx, qy = x[ray], y[ray]
        inside = (qx >= lo[0, face]) & (qx <= hi[0, face]) & (qy >= lo[1, face]) & (qy <= hi[1, face])
        yield order[a:b], ray[inside], face[inside]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def grid_surface_mesh(
    origin: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    n: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    heights: np.ndarray,
    mask: np.ndarray | None = None,
) -> TriMesh:
    """Height-field mesh over a plane frame.

    Vertex (i, j) sits at origin + xs[i]*u + ys[j]*v + heights[i, j]*n.
    Cells are emitted only where all four corner nodes are unmasked; faces
    wind so normals have positive component along n (upward for u x v = n).
    """
    xs, ys, heights = (np.asarray(x, dtype=float) for x in (xs, ys, heights))
    ni, nj = len(xs), len(ys)
    if heights.shape != (ni, nj):
        raise ValueError("heights shape must be (len(xs), len(ys))")
    if mask is None:
        mask = np.ones((ni, nj), dtype=bool)
    covered = mask[:-1, :-1] & mask[1:, :-1] & mask[1:, 1:] & mask[:-1, 1:]
    if not covered.any():
        raise ValueError("no fully covered grid cell")
    used = np.zeros((ni, nj), dtype=bool)
    ci, cj = np.nonzero(covered)
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))
    for di, dj in corners:
        used[ci + di, cj + dj] = True
    index = np.full((ni, nj), -1, dtype=np.int64)
    ui, uj = np.nonzero(used)  # row-major, deterministic
    index[ui, uj] = np.arange(len(ui))
    origin, u, v, n = (np.asarray(x, dtype=float) for x in (origin, u, v, n))
    pts = origin + xs[ui][:, None] * u + ys[uj][:, None] * v + heights[ui, uj][:, None] * n
    i00, i10, i11, i01 = (index[ci + di, cj + dj] for di, dj in corners)
    faces = np.empty((2 * len(ci), 3), dtype=np.int64)
    faces[0::2] = np.stack([i00, i10, i11], axis=1)
    faces[1::2] = np.stack([i00, i11, i01], axis=1)
    return TriMesh(pts, faces)


# ---------------------------------------------------------------------------
# ASCII OFF I/O
# ---------------------------------------------------------------------------


def save_off(mesh: TriMesh, path) -> None:
    """ASCII OFF with shortest-round-trip floats; LF endings.

    save -> load -> save is byte-identical.
    """
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    # row by row as in export_log; a whole-array tolist() holds every value at once
    lines += ["%r %r %r" % tuple(p.tolist()) for p in mesh.vertices]
    lines += ["3 %d %d %d" % tuple(f.tolist()) for f in mesh.faces]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_off(path) -> TriMesh:
    """The triangle mesh in the OFF file at path; a malformed file is a
    ValueError that names it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = []
            for line in fh:
                hash_at = line.find("#")
                if hash_at >= 0:
                    line = line[:hash_at]
                tokens.extend(line.split())
        if not tokens or tokens[0] != "OFF":
            raise ValueError("not an OFF file")
        if len(tokens) < 4:
            raise ValueError("truncated OFF header")
        nv, nf = int(tokens[1]), int(tokens[2])
        for name, count in (("vertex", nv), ("face", nf)):
            if count < 0:
                raise ValueError(f"negative {name} count {count}")
        pos = 4 + 3 * nv  # past the edge count and the vertex block
        flat = tokens[4:pos]
        if len(flat) != 3 * nv:
            raise ValueError("truncated vertex block")
        vertices = np.array(flat, dtype=float).reshape(nv, 3)
        block = tokens[pos : pos + 4 * nf]
        if len(block) != 4 * nf:
            raise ValueError("truncated face block")
        block = np.array(block, dtype=str).reshape(nf, 4)
        if np.any(block[:, 0] != "3"):
            raise ValueError("only triangle faces supported")
        return TriMesh(vertices, block[:, 1:].astype(np.int64))
    except (ValueError, OverflowError) as exc:  # OverflowError: an index beyond int64
        raise ValueError(f"{path}: {exc}") from None
