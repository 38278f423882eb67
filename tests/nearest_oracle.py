"""The batched closest-point oracle: every point's (d2, face) lex-min winner,
with its point, weights and signed distance, by a breadth-first tree walk.

The production batched query (`TriMesh.distances`) returns distances alone,
by a strict-bound walk. This is the walk that answered the full query
before it: it keeps every box that ties the bound, takes the (d2, face)
lex-min over the leaves it reaches and recomputes the winners alone. The
tests check the scalar single-point walk, hint and history included,
against it bit for bit over streams of points too long for brute force.
It reads the tree, the face table and the block sizes of `surfscan.mesh`.

It also holds the kernel in the (..., 3) layout of numpy's point arrays,
`closest_point_triangles`, which the tests take as their brute-force
reference: `surfscan.mesh` keeps its kernels on (3, ...) rows.
"""
import numpy as np

import surfscan.mesh as mesh_module
from surfscan.mesh import _region_weights


def dot3(a, b):
    # spelled out like the kernel's row product, so each lane rounds alike
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def closest_point_triangles(p, A, B, C):
    """Closest point on each triangle (A, B, C) to p, (..., 3) arrays
    broadcast together (one point against many faces, or a (points, 1, 3)
    set against them): (d2, cp, bary). The production kernel's weights on
    moved axes and its per-lane operations, so every lane is its bits."""
    p, A, B, C = np.broadcast_arrays(p, A, B, C)
    ab, ac, u, v = _region_weights(*(np.moveaxis(x, -1, 0) for x in (p, A, B, C)))
    ab, ac = np.moveaxis(ab, 0, -1), np.moveaxis(ac, 0, -1)
    cp = A + u[..., None] * ab + v[..., None] * ac
    diff = p - cp
    return dot3(diff, diff), cp, np.stack([1.0 - u - v, u, v], axis=-1)


def closest_points(mesh, points):
    """Vectorised closest_point over an (n, 3) array of points; any other
    shape is a ValueError.

    Returns (distance, face, point, barycentric) arrays of shapes
    (n,), (n,), (n, 3) and (n, 3); row i is bit-identical to
    closest_point(points[i]), tie-break and sign included.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3:
        raise ValueError(f"points must be (n, 3); got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("query points must be finite")
    acc = mesh._accel
    block = mesh_module.POINT_BLOCK
    parts = [nearest_batch(acc, P[a : a + block]) for a in range(0, max(len(P), 1), block)]
    d2, face, cp, bary = (np.concatenate(x) for x in zip(*parts))
    dist = np.sqrt(d2)
    below = dot3(P - cp, acc.face_normals[face]) < 0.0
    return np.where(below, -dist, dist), face, cp, bary


def box_d2(acc, P, node):
    # squared point-box distance per row of the (n, 3) points P
    g = np.maximum(np.maximum(acc.bmin[node] - P, P - acc.bmax[node]), 0.0)
    return dot3(g, g)


def point_min(acc, P, pt, leaf):
    # (d2, face) lex-min of each (point, leaf) pair, a chunk of pairs at
    # a time against their (chunk, LEAF_SIZE) face rows; rows of
    # leaf_faces ascend, so argmin picks the smallest tied face
    val = np.empty(len(leaf))
    face = np.empty(len(leaf), dtype=np.int64)
    for a in range(0, len(leaf), mesh_module.PAIR_CHUNK):
        rows = slice(a, a + mesh_module.PAIR_CHUNK)
        f = acc.leaf_faces[leaf[rows]]
        d2 = closest_point_triangles(P[pt[rows]][:, None, :], acc.A[f], acc.B[f], acc.C[f])[0]
        k = np.argmin(d2, axis=1)
        r = np.arange(len(k))
        val[rows] = d2[r, k]
        face[rows] = f[r, k]
    return val, face


def nearest_batch(acc, P):
    """Unsigned nearest for many points: (d2, face, cp, bary) arrays.

    Both passes walk the tree breadth first over (point, node) pairs.
    The seed pass follows each point's greedy nearer-box descent to one
    leaf, whose lex-min bounds the point, and keeps each sibling it
    passed over with that sibling's box distance. Every other leaf lies
    under exactly one of those siblings, so the bounded pass starts at
    them: it keeps the pairs whose box distance ties or beats the bound,
    and the lex-min over every leaf it reaches is the brute-force
    winner.
    """
    n = len(P)
    seed = np.zeros(n, dtype=np.int64)
    inner = np.arange(n)[acc.count[seed] == 0]  # none when the root is a leaf
    passed = [(inner[:0], inner[:0], np.zeros(0))]  # (point, sibling, its box distance)
    while len(inner):
        l, Q = acc.left[seed[inner]], P[inner]
        gl, gr = box_d2(acc, Q, l), box_d2(acc, Q, l + 1)
        near = gl <= gr
        seed[inner] = np.where(near, l, l + 1)
        passed.append((inner, np.where(near, l + 1, l), np.where(near, gr, gl)))
        inner = inner[acc.count[seed[inner]] == 0]
    pt = np.arange(n)
    bound, seed_face = point_min(acc, P, pt, seed)
    found = [(pt, bound, seed_face)]
    pt, node, g2 = (np.concatenate(x) for x in zip(*passed))
    while len(pt):
        keep = g2 <= bound[pt]
        pt, node = pt[keep], node[keep]
        at_leaf = acc.count[node] > 0
        found.append((pt[at_leaf], *point_min(acc, P, pt[at_leaf], node[at_leaf])))
        pt, node = pt[~at_leaf], node[~at_leaf]
        pt = np.concatenate([pt, pt])
        node = np.concatenate([acc.left[node], acc.left[node] + 1])
        g2 = box_d2(acc, P[pt], node)
    pt, d2, face = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((face, d2, pt))
    pt = pt[order]
    best_face = face[order[np.diff(pt, prepend=-1) != 0]]
    # recomputing the winners alone reproduces their batch lanes exactly
    d2, cp, bary = closest_point_triangles(P, *(x[best_face] for x in (acc.A, acc.B, acc.C)))
    return d2, best_face, cp, bary
