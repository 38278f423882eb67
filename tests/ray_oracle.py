"""The ray oracle: Moller-Trumbore in its textbook per-lane form, and the
brute-force first hit of rays over every face.

The production kernel computes a ray group's origin terms (tvec, qvec and
tnum) once per face and lets each (ray, face) lane gather them. This form
computes them in every lane, as the kernel did before that split, so the
tests check the split kernel against the formula it replaces, not against
itself. Its tolerances are the production ones.
"""
import numpy as np

from surfscan.mesh import BARY_EPS, PARALLEL_SIN


def dot3(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def moller_trumbore(O, D, A, eab, eac, area, t_min):
    """Rays (O, D) broadcast against faces (A, eab, eac, area), all (..., 3)
    rows of vectors: (t, u, v), with t = inf for misses; either side hits."""
    pvec = np.cross(D, eac)
    det = dot3(eab, pvec)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / det
        tvec = O - A
        u = dot3(tvec, pvec) * inv
        qvec = np.cross(tvec, eab)
        v = dot3(D, qvec) * inv
        t = dot3(eac, qvec) * inv
        sin_ok = np.abs(det) > np.sqrt(dot3(D, D)) * area * (2.0 * PARALLEL_SIN)
        hit = sin_ok & (u >= -BARY_EPS) & (v >= -BARY_EPS) & (u + v <= 1.0 + BARY_EPS)
    return np.where(hit & (t >= t_min), t, np.inf), u, v


def mesh_rays(mesh, O, D, t_min=0.0):
    """moller_trumbore of each ray (rows of O and D, broadcast together)
    against every face of mesh: (t, u, v) arrays of shape (rays, faces)."""
    acc = mesh._accel
    O, D = (np.asarray(x, dtype=float).reshape(-1, 1, 3) for x in (O, D))
    return moller_trumbore(O, D, acc.A, acc.eab, acc.eac, acc.face_areas, t_min)


def brute_rays(mesh, O, D, t_min=0.0):
    """The first hit of each ray (rows of D, from O: one origin or one per
    ray) over every face, 64 rays at a time: (t, face) arrays, t = inf and
    face = -1 on a miss. The first minimum of each row is the smallest tied
    face."""
    O = np.broadcast_to(O, np.shape(D))
    t = np.full(len(O), np.inf)
    face = np.full(len(O), -1, dtype=np.int64)
    for a in range(0, len(O), 64):
        rows = slice(a, a + 64)
        t_all = mesh_rays(mesh, O[rows], D[rows], t_min)[0]
        k = np.argmin(t_all, axis=1)
        tk = t_all[np.arange(len(k)), k]
        t[rows] = tk
        face[rows] = np.where(np.isfinite(tk), k, -1)
    return t, face
