"""Triangle meshes with deterministic proximity and ray queries.

The closest-point kernel is a vectorised transcription of the classic
point-vs-triangle Voronoi-region case analysis (Ericson, Real-Time
Collision Detection, 5.1.5). It backs the exhaustive reference path and
the batched traversal; the single-point walk runs a scalar transcription
that rounds identically. Accelerated queries reproduce the brute-force
result bit for bit, including the (distance, face index) tie-break.

Rays use Moller-Trumbore with double-sided hits. The hierarchy is a
median-split AABB tree over face boxes whose leaves list their faces in
ascending order and whose boxes are padded against rounding; traversal
never prunes a node whose lower bound ties the current best, which is
what makes the tie-break exact. Batched queries walk the tree breadth
first over (member, node) pairs, one level at a time (packet traversal:
Wald et al., "Interactive Rendering with Coherent Ray Tracing", 2001),
and evaluate the leaves they reach in chunks through a padded per-leaf
face table. Points seed their bound from a greedy descent; rays run a
slab test on per-axis columns, evaluate their nearest-entry leaf first,
then only the leaves entered at or before that hit. One ray is a batch
of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import cross3

LEAF_SIZE = 8
POINT_BLOCK = 1024  # points per batched traversal; bounds its working set
RAY_BLOCK = 4096  # rays per batched traversal; bounds its working set
PAIR_CHUNK = 256  # (member, leaf) pairs per kernel call; bounds its temporaries
DEGENERATE_AREA = 1e-12
BARY_EPS = 1e-10  # ray tests: tolerance on barycentric bounds at shared edges


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
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 3:
            raise ValueError("vertices must be an (n, 3) array with n >= 3")
        if f.ndim != 2 or f.shape[1] != 3 or len(f) < 1:
            raise ValueError("faces must be an (m, 3) array with m >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if f.min() < 0 or f.max() >= len(v):
            raise ValueError("face index out of range")
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(f[:, 0] == f[:, 2]):
            raise ValueError("face with repeated vertex")
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        if np.min(areas) <= DEGENERATE_AREA:
            raise ValueError(f"degenerate face (area <= {DEGENERATE_AREA} m^2)")
        self._check_manifold(f, len(v))

    @staticmethod
    def _check_manifold(f: np.ndarray, nv: int) -> None:
        # an undirected edge used more than twice means non-manifold; a
        # directed edge used twice means inconsistent winding
        a = f.ravel()
        b = f[:, [1, 2, 0]].ravel()
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        _, counts = np.unique(lo * nv + hi, return_counts=True)
        if counts.max() > 2:
            raise ValueError("non-manifold edge")
        directed = a * nv + b
        if len(np.unique(directed)) != len(directed):
            raise ValueError("inconsistent winding or duplicate face")

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def face_normals(self) -> np.ndarray:
        return self._accel().face_normals

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted vertex normals, unit length."""
        acc = self._accel()
        if acc.vertex_normals is None:
            n = np.zeros_like(self.vertices)
            # cross products carry the 2*area weighting already
            np.add.at(n, self.faces[:, 0], acc.cross)
            np.add.at(n, self.faces[:, 1], acc.cross)
            np.add.at(n, self.faces[:, 2], acc.cross)
            lengths = np.linalg.norm(n, axis=1)
            lengths[lengths == 0.0] = 1.0  # isolated vertices keep a zero normal
            acc.vertex_normals = n / lengths[:, None]
        return acc.vertex_normals

    def _accel(self) -> "_Accel":
        acc = self.__dict__.get("_accel_cache")
        if acc is None:
            acc = _Accel(self)
            # idempotent build: a racing second build produces the same tree
            object.__setattr__(self, "_accel_cache", acc)
        return acc

    # ---- queries ----

    def closest_point(self, p, hint: int | None = None) -> "ClosestHit":
        """Global nearest surface point with signed distance.

        Sign follows the winning face's normal (positive above). Ties in
        distance resolve to the smallest face index, matching the
        exhaustive per-triangle reference exactly.

        hint, if given, is a face index that seeds the search bound, which
        then tightens as the walk evaluates faces. The result is
        bit-identical with or without it; a good hint (the winning face of
        a nearby previous query) prunes most of the tree in a tight loop.
        """
        if hint is not None and not 0 <= hint < self.n_faces:
            raise ValueError(f"hint face {hint} out of range")
        return self._accel().nearest(np.asarray(p, dtype=float).reshape(3), hint)

    def closest_points(self, points):
        """Vectorised closest_point over an (n, 3) array of points.

        Returns (distance, face, point, barycentric) arrays of shapes
        (n,), (n,), (n, 3) and (n, 3); row i is bit-identical to
        closest_point(points[i]), tie-break and sign included.
        """
        P = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(P)):
            raise ValueError("query points must be finite")
        acc = self._accel()
        blocks = range(0, max(len(P), 1), POINT_BLOCK)
        parts = [acc.nearest_batch(P[a : a + POINT_BLOCK]) for a in blocks]
        d2, face, cp, bary = (np.concatenate(x) for x in zip(*parts))
        dist = np.sqrt(d2)
        below = _dot3(P - cp, acc.face_normals[face]) < 0.0
        return np.where(below, -dist, dist), face, cp, bary

    def raycast(self, origin, direction, t_min: float = 0.0) -> "RayHit | None":
        """First hit along one ray: raycast_batch on a batch of one."""
        o = np.asarray(origin, dtype=float).reshape(1, 3)
        d = np.asarray(direction, dtype=float).reshape(1, 3)
        acc = self._accel()
        t, face = acc.raycast_batch(o, d, t_min)
        f = int(face[0])
        if f < 0:
            return None
        # the winning lane again, alone: the kernel is elementwise, so u and
        # v round exactly as they did inside the batch
        _, u, v = _moller_trumbore(o, d, acc.A[f], acc.eab[f], acc.eac[f], t_min)
        u, v = float(u[0]), float(v[0])
        point = acc.A[f] + u * acc.eab[f] + v * acc.eac[f]
        return RayHit(f, float(t[0]), np.array([1.0 - u - v, u, v]), point)

    def raycast_batch(self, origins: np.ndarray, directions: np.ndarray, t_min: float = 0.0):
        """Vectorised first-hit query.

        Returns (t, face) arrays; misses have t = inf and face = -1.
        """
        O = np.asarray(origins, dtype=float).reshape(-1, 3)
        D = np.asarray(directions, dtype=float).reshape(-1, 3)
        return self._accel().raycast_batch(O, D, t_min)

    def sample_surface(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points drawn uniformly by area."""
        acc = self._accel()
        cdf = np.cumsum(acc.face_areas)
        cdf /= cdf[-1]
        fi = np.searchsorted(cdf, rng.random(n), side="right")
        fi = np.minimum(fi, self.n_faces - 1)
        u = rng.random(n)
        v = rng.random(n)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        return acc.A[fi] + u[:, None] * acc.eab[fi] + v[:, None] * acc.eac[fi]


@dataclass(frozen=True)
class ClosestHit:
    face: int
    point: np.ndarray  # (3,) closest surface point
    barycentric: np.ndarray  # (3,) weights on the winning face
    distance: float  # signed, positive on the normal side


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
    ab = B - A
    ac = C - A
    ap = p - A
    d1 = _dot3(ab, ap)
    d2_ = _dot3(ac, ap)
    bp = p - B
    d3 = _dot3(ab, bp)
    d4 = _dot3(ac, bp)
    cp_ = p - C
    d5 = _dot3(ab, cp_)
    d6 = _dot3(ac, cp_)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2_ - d1 * d6
    vc = d1 * d4 - d3 * d2_

    in_a = (d1 <= 0.0) & (d2_ <= 0.0)
    in_b = (d3 >= 0.0) & (d4 <= d3)
    in_c = (d6 >= 0.0) & (d5 <= d6)
    on_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    on_ac = (vb <= 0.0) & (d2_ >= 0.0) & (d6 <= 0.0)
    on_bc = (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        t_ac = d2_ / (d2_ - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v_in = vb / denom
        w_in = vc / denom

    # RTCD region priority: vertices, then edges, then face interior;
    # u is the weight on B, v the weight on C. Applied lowest priority
    # first so each later (higher-priority) region overrides.
    u = np.where(on_bc, 1.0 - t_bc, v_in)
    u = np.where(on_ac, 0.0, u)
    u = np.where(on_ab, t_ab, u)
    u = np.where(in_c, 0.0, u)
    u = np.where(in_b, 1.0, u)
    u = np.where(in_a, 0.0, u)
    v = np.where(on_bc, t_bc, w_in)
    v = np.where(on_ac, t_ac, v)
    v = np.where(on_ab, 0.0, v)
    v = np.where(in_c, 1.0, v)
    v = np.where(in_b, 0.0, v)
    v = np.where(in_a, 0.0, v)
    cp = A + u[..., None] * ab + v[..., None] * ac
    diff = p - cp
    dist2 = _dot3(diff, diff)
    bary = np.stack([1.0 - u - v, u, v], axis=-1)
    return dist2, cp, bary


def _sub(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def closest_point_scalar(p, a, b, c) -> tuple:
    """closest_point_triangles for point p and one face (a, b, c), all
    3-sequences of floats: (d2, u, v, point), with u and v the weights on
    b and c. The kernel's operations in its order and region priority;
    IEEE float64 scalars round as the ufuncs do, so every value is the
    kernel's bit for bit at a fraction of the call cost. Raises
    ZeroDivisionError where the kernel would divide by zero."""
    ab, ac, ap, bp, cp = _sub(b, a), _sub(c, a), _sub(p, a), _sub(p, b), _sub(p, c)
    d1, d2, d3, d4 = _dot(ab, ap), _dot(ac, ap), _dot(ab, bp), _dot(ac, bp)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
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
    point = (a[0] + u * ab[0] + v * ac[0], a[1] + u * ab[1] + v * ac[1], a[2] + u * ab[2] + v * ac[2])
    e = _sub(p, point)
    return _dot(e, e), u, v, point


def _closest(p, a, b, c) -> tuple:
    # where the scalar form divides by zero, the elementwise numpy kernel on this one face
    try:
        return closest_point_scalar(p, a, b, c)
    except ZeroDivisionError:
        d2, cp, bary = closest_point_triangles(np.array(p), *(np.array([x]) for x in (a, b, c)))
        return float(d2[0]), float(bary[0, 1]), float(bary[0, 2]), tuple(cp[0].tolist())


def _moller_trumbore(O: np.ndarray, D: np.ndarray, A, eab, eac, t_min: float):
    """Moller-Trumbore, rays (O, D) broadcast against faces (A, eab, eac).

    Returns (t, u, v) with t = inf for misses; hits on either side count.
    Elementwise like the closest-point kernel.
    """
    pvec = cross3(D, eac)
    det = _dot3(eab, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        tvec = O - A
        u = _dot3(tvec, pvec) * inv
        qvec = cross3(tvec, eab)
        v = _dot3(D, qvec) * inv
        t = _dot3(eac, qvec) * inv
        # parallel rays (det == 0) give u + v = inf - inf; det rejects them
        hit = (np.abs(det) > 0.0) & (u >= -BARY_EPS) & (v >= -BARY_EPS) & (u + v <= 1.0 + BARY_EPS)
    return np.where(hit & (t >= t_min), t, np.inf), u, v


class _Accel:
    """Median-split AABB tree plus precomputed per-face data."""

    def __init__(self, mesh: TriMesh):
        v, f = mesh.vertices, mesh.faces
        self.A = v[f[:, 0]]
        self.B = v[f[:, 1]]
        self.C = v[f[:, 2]]
        self.eab = self.B - self.A
        self.eac = self.C - self.A
        self.cross = np.cross(self.eab, self.eac)
        norms = np.linalg.norm(self.cross, axis=1)
        self.face_areas = 0.5 * norms
        self.face_normals = self.cross / norms[:, None]
        self.face_normals.setflags(write=False)
        self.vertex_normals = None
        self._build(f)

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
        bmin, bmax, left, right, start, count = [], [], [], [], [], []
        # preorder with an explicit stack: node ids and the perm sort order
        # match a recursive build, and no closure cycle outlives the build
        stack = [(0, n, -1)]  # (lo, hi, parent)
        while stack:
            lo, hi, parent = stack.pop()
            idx = len(bmin)
            if parent >= 0:
                # the left child is always visited first
                (left if left[parent] < 0 else right)[parent] = idx
            sub = perm[lo:hi]
            bmin.append(fmin[sub].min(axis=0))
            bmax.append(fmax[sub].max(axis=0))
            left.append(-1)
            right.append(-1)
            if hi - lo <= LEAF_SIZE:
                start.append(lo)
                count.append(hi - lo)
                continue
            start.append(0)
            count.append(0)
            cen = centroids[sub]
            axis = int(np.argmax(cen.max(axis=0) - cen.min(axis=0)))
            order = np.argsort(cen[:, axis], kind="stable")
            perm[lo:hi] = sub[order]
            mid = (lo + hi) // 2
            stack.append((mid, hi, idx))
            stack.append((lo, mid, idx))
        self.bmin = np.array(bmin)
        self.bmax = np.array(bmax)
        self.left = np.array(left)
        self.right = np.array(right)
        self.start = np.array(start)
        self.count = np.array(count)
        # faces ascend within each leaf, so a leaf's first minimum is its
        # smallest tied face
        leaf = np.nonzero(self.count)[0]
        which = np.searchsorted(np.sort(self.start[leaf]), np.arange(n), side="right")
        perm = perm[np.lexsort((perm, which))]
        # plain-python mirrors for the point-query inner loop; indexing
        # numpy scalars per node costs more than the arithmetic
        self._bmin_l = self.bmin.tolist()
        self._bmax_l = self.bmax.tolist()
        self._left_l = self.left.tolist()
        self._right_l = self.right.tolist()
        self._rows = [None] * len(self.count)  # per-leaf face rows, see nearest
        # each leaf's faces as one fixed-width row, padded with its last face
        cols = np.minimum(np.arange(LEAF_SIZE), self.count[leaf][:, None] - 1)
        self.leaf_faces = np.zeros((len(self.count), LEAF_SIZE), dtype=np.int64)
        self.leaf_faces[leaf] = perm[self.start[leaf][:, None] + cols]

    def nearest(self, p: np.ndarray, hint: int | None = None) -> ClosestHit:
        p = p.tolist()
        px, py, pz = p
        bmin_l, bmax_l = self._bmin_l, self._bmax_l
        left_l, right_l, rows_l = self._left_l, self._right_l, self._rows

        def box_d2(lo, hi) -> float:
            # squared box distance from the per-axis gaps, summed x then y
            # then z like _box_d2 so both spellings round identically
            gx = lo[0] - px if lo[0] > px else px - hi[0] if px > hi[0] else 0.0
            gy = lo[1] - py if lo[1] > py else py - hi[1] if py > hi[1] else 0.0
            gz = lo[2] - pz if lo[2] > pz else pz - hi[2] if pz > hi[2] else 0.0
            return gx * gx + gy * gy + gz * gz

        if hint is None:
            # seed from the greedy descent to the nearer-box leaf; any seed
            # gives the same hit (see below), a near one prunes more
            node = 0
            while left_l[node] >= 0:
                l, r = left_l[node], right_l[node]
                node = l if box_d2(bmin_l[l], bmax_l[l]) <= box_d2(bmin_l[r], bmax_l[r]) else r
            hint = int(self.leaf_faces[node, 0])
        # Ericson's best-first walk: the hint seeds the (d2, face) lex-min,
        # leaf faces are evaluated as the walk reaches them, and the lex-min
        # bounds the prune. A box is pruned only when strictly farther than
        # the bound, which never drops below the final d2, so every face that
        # wins or ties is evaluated: the lex-min is the brute-force winner.
        best = _closest(p, *(x[hint].tolist() for x in (self.A, self.B, self.C)))
        bound, win = best[0], hint
        stack = [0]
        while stack:
            node = stack.pop()
            if box_d2(bmin_l[node], bmax_l[node]) > bound:
                continue
            if left_l[node] >= 0:
                stack += right_l[node], left_l[node]
                continue
            rows = rows_l[node]
            if rows is None:
                # (face, a, b, c, box min, box max) in floats, on first visit:
                # converting all faces at build costs batch-only meshes too
                f = self.leaf_faces[node, : self.count[node]]
                A, B, C = self.A[f], self.B[f], self.C[f]
                lo = np.minimum(np.minimum(A, B), C) - self.pad
                hi = np.maximum(np.maximum(A, B), C) + self.pad
                rows = rows_l[node] = list(zip(*(x.tolist() for x in (f, A, B, C, lo, hi))))
            for f, a, b, c, lo, hi in rows:
                # the hint is counted already; face boxes are padded like nodes
                if f == hint or box_d2(lo, hi) > bound:
                    continue
                hit = _closest(p, a, b, c)
                if hit[0] < bound or (hit[0] == bound and f < win):
                    best, bound, win = hit, hit[0], f
        d2, u, v, point = best
        dist = math.sqrt(d2)
        if _dot(_sub(p, point), self.face_normals[win].tolist()) < 0.0:
            dist = -dist
        return ClosestHit(win, np.array(point), np.array([1.0 - u - v, u, v]), dist)

    def _box_d2(self, P: np.ndarray, node) -> np.ndarray:
        # squared point-box distance per row; node is one index or one per row
        g = np.maximum(np.maximum(self.bmin[node] - P, P - self.bmax[node]), 0.0)
        return _dot3(g, g)

    def _leaf_min(self, leaf: np.ndarray, kernel):
        # (value, face) lex-min of each (member, leaf) pair, a chunk at a
        # time; kernel(rows, f) gives the values of the chunk's pairs
        # against their (chunk, LEAF_SIZE) face rows. Rows of leaf_faces
        # ascend, so argmin picks the smallest tied face
        val = np.empty(len(leaf))
        face = np.empty(len(leaf), dtype=np.int64)
        for a in range(0, len(leaf), PAIR_CHUNK):
            rows = slice(a, a + PAIR_CHUNK)
            f = self.leaf_faces[leaf[rows]]
            v = kernel(rows, f)
            k = np.argmin(v, axis=1)
            r = np.arange(len(k))
            val[rows] = v[r, k]
            face[rows] = f[r, k]
        return val, face

    def _point_min(self, P: np.ndarray, pt: np.ndarray, leaf: np.ndarray):
        # (d2, face) lex-min of each (point, leaf) pair
        def d2(rows, f):
            return closest_point_triangles(P[pt[rows]][:, None, :], self.A[f], self.B[f], self.C[f])[0]

        return self._leaf_min(leaf, d2)

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
            l, r, Q = self.left[seed[inner]], self.right[seed[inner]], P[inner]
            seed[inner] = np.where(self._box_d2(Q, l) <= self._box_d2(Q, r), l, r)
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
            node = np.concatenate([self.left[node], self.right[node]])
        pt, d2, face = (np.concatenate(x) for x in zip(*found))
        order = np.lexsort((face, d2, pt))
        pt = pt[order]
        best_face = face[order[np.diff(pt, prepend=-1) != 0]]
        # recomputing the winners alone reproduces their batch lanes exactly
        A, B, C = self.A[best_face], self.B[best_face], self.C[best_face]
        d2, cp, bary = closest_point_triangles(P, A, B, C)
        return d2, best_face, cp, bary

    def _ray_min(self, O: np.ndarray, D: np.ndarray, t_min: float, ray: np.ndarray, leaf: np.ndarray):
        # (t, face) lex-min of each (ray, leaf) pair
        def t(rows, f):
            r = ray[rows]
            return _moller_trumbore(O[r][:, None, :], D[r][:, None, :], self.A[f], self.eab[f], self.eac[f],
                                    t_min)[0]

        return self._leaf_min(leaf, t)

    def _ray_leaves(self, O: np.ndarray, D: np.ndarray, t_min: float):
        # the slab pass: (ray, leaf, entry) for every leaf whose slab
        # interval a ray reaches at or past t_min, sorted by ray and then
        # entry. The test runs on one 1-D column per axis. inv carries a
        # placeholder on axes where d == 0; those axes are decided by the
        # inside test instead, which sidesteps the 0 * inf corner of the
        # usual slab recipe
        bmin, bmax, o = self.bmin.T.copy(), self.bmax.T.copy(), O.T.copy()
        with np.errstate(divide="ignore"):
            inv = np.where(D == 0.0, 1.0, 1.0 / D).T.copy()
        flat = [col if col.any() else None for col in D.T == 0.0]
        ray = np.arange(len(O))
        node = np.zeros(len(O), dtype=np.int64)
        found = []
        while len(ray):
            for k in range(3):
                b0, b1, ok, ik = bmin[k][node], bmax[k][node], o[k][ray], inv[k][ray]
                t1 = (b0 - ok) * ik
                t2 = (b1 - ok) * ik
                lo_k, hi_k = np.minimum(t1, t2), np.maximum(t1, t2)
                if flat[k] is not None:
                    par = flat[k][ray]
                    inside = (ok >= b0) & (ok <= b1)
                    lo_k = np.where(par, np.where(inside, -np.inf, np.inf), lo_k)
                    hi_k = np.where(par, np.where(inside, np.inf, -np.inf), hi_k)
                lo = lo_k if k == 0 else np.maximum(lo, lo_k)
                hi = hi_k if k == 0 else np.minimum(hi, hi_k)
            keep = (lo <= hi) & (hi >= t_min)
            ray, node, lo = ray[keep], node[keep], lo[keep]
            at_leaf = self.count[node] > 0
            found.append((ray[at_leaf], node[at_leaf], lo[at_leaf]))
            ray, node = ray[~at_leaf], node[~at_leaf]
            ray = np.concatenate([ray, ray])
            node = np.concatenate([self.left[node], self.right[node]])
        ray, leaf, lo = (np.concatenate(x) for x in zip(*found))
        order = np.lexsort((lo, ray))
        return ray[order], leaf[order], lo[order]

    def raycast_batch(self, O: np.ndarray, D: np.ndarray, t_min: float):
        """First hits of many rays: (t, face) arrays, t = inf and face = -1
        on a miss.

        Rays go RAY_BLOCK at a time. The slab pass walks the tree breadth
        first over (ray, node) pairs and lists the leaves each ray's slab
        interval reaches. Each ray's nearest-entry leaf bounds it; the
        bounded pass evaluates the ray's other leaves whose entry ties or
        beats that hit. A leaf entered after the final hit holds no face
        that wins or ties, so the (t, face) lex-min over the evaluated
        leaves is the brute-force winner.
        """
        best_t = np.full(len(O), np.inf)
        best_face = np.full(len(O), -1, dtype=np.int64)
        for a in range(0, len(O), RAY_BLOCK):
            o, d = O[a : a + RAY_BLOCK], D[a : a + RAY_BLOCK]
            ray, leaf, lo = self._ray_leaves(o, d, t_min)
            first = np.diff(ray, prepend=-1) != 0
            t1, f1 = self._ray_min(o, d, t_min, ray[first], leaf[first])
            bound = np.full(len(o), np.inf)
            bound[ray[first]] = t1
            rest = ~first & (lo <= bound[ray])
            t2, f2 = self._ray_min(o, d, t_min, ray[rest], leaf[rest])
            ray = np.concatenate([ray[first], ray[rest]])
            t, face = np.concatenate([t1, t2]), np.concatenate([f1, f2])
            order = np.lexsort((face, t, ray))
            win = order[np.diff(ray[order], prepend=-1) != 0]
            win = win[np.isfinite(t[win])]
            best_t[a + ray[win]] = t[win]
            best_face[a + ray[win]] = face[win]
        return best_t, best_face


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
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    heights = np.asarray(heights, dtype=float)
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
    used[ci, cj] = True
    used[ci + 1, cj] = True
    used[ci + 1, cj + 1] = True
    used[ci, cj + 1] = True
    index = np.full((ni, nj), -1, dtype=np.int64)
    ui, uj = np.nonzero(used)  # row-major, deterministic
    index[ui, uj] = np.arange(len(ui))
    pts = (
        np.asarray(origin, dtype=float)[None, :]
        + xs[ui][:, None] * np.asarray(u, dtype=float)[None, :]
        + ys[uj][:, None] * np.asarray(v, dtype=float)[None, :]
        + heights[ui, uj][:, None] * np.asarray(n, dtype=float)[None, :]
    )
    i00 = index[ci, cj]
    i10 = index[ci + 1, cj]
    i11 = index[ci + 1, cj + 1]
    i01 = index[ci, cj + 1]
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
    for p in mesh.vertices:
        lines.append(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_off(path) -> TriMesh:
    with open(path, "r", encoding="ascii") as fh:
        tokens = []
        for line in fh:
            hash_at = line.find("#")
            if hash_at >= 0:
                line = line[:hash_at]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ValueError(f"{path}: not an OFF file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated OFF header")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4  # skip edge count
    flat = tokens[pos : pos + 3 * nv]
    if len(flat) != 3 * nv:
        raise ValueError(f"{path}: truncated vertex block")
    vertices = np.array(flat, dtype=float).reshape(nv, 3)
    pos += 3 * nv
    block = tokens[pos : pos + 4 * nf]
    if len(block) != 4 * nf:
        raise ValueError(f"{path}: truncated face block")
    block = np.array(block, dtype=str).reshape(nf, 4)
    if np.any(block[:, 0] != "3"):
        raise ValueError(f"{path}: only triangle faces supported")
    return TriMesh(vertices, block[:, 1:].astype(np.int64))
