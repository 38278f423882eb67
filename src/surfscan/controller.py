"""Impedance control in surface coordinates.

The torque law is tau = J_rho^T (K_rho (rho_d - rho) + D_rho (rhodot_d -
rhodot)), verbatim: no feedforward, gravity, or Coriolis terms. Gravity
is assumed perfectly compensated by the simulator. rho, rhodot and the
setpoint pair (rho_d, rhodot_d) are (6,) arrays that no call re-checks.

Setpoint generators cover the two experiment phases: a distance ramp
that establishes contact and holds a fixed penetration, and a constant
speed boustrophedon raster over the chart domain, each checked when built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import read_only

SYMMETRY_TOL = 1e-12
NULLSPACE_RANK_TOL = 1e-10


def check_spd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"{name} must be 6x6, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(m - m.T)) >= SYMMETRY_TOL:
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise ValueError(f"{name} must be positive-definite")
    return m


@dataclass(frozen=True)
class ImpedanceGains:
    """Symmetric positive-definite stiffness and damping.

    Row units follow the coordinate vector: N/m for (s1, s2, d), N·m per
    unit quaternion-vector error for the orientation rows.
    """

    stiffness: np.ndarray
    damping: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stiffness", check_spd(self.stiffness, "stiffness"))
        object.__setattr__(self, "damping", check_spd(self.damping, "damping"))


class Setpoint(NamedTuple):
    """Desired rho_d = (s1, s2, d, eps1, eps2, eps3) and rates rhodot_d, (6,) arrays."""

    rho_d: np.ndarray
    rhodot_d: np.ndarray


@dataclass(frozen=True)
class ContactProfile:
    """Distance ramp: approach at d_start, sink to d_hold, stay there."""

    d_start: float
    d_hold: float
    ramp_rate: float
    hold_duration: float = 5.0

    def __post_init__(self):
        if not self.d_start > self.d_hold:
            raise ValueError("d_start must exceed d_hold (approach decreases d)")
        if self.ramp_rate <= 0.0:
            raise ValueError("ramp_rate must be positive")
        if self.hold_duration < 0.0:
            raise ValueError("hold_duration must be non-negative")
        # the setpoint rates of the ramp and the hold, shared by every setpoint
        ramp = np.zeros(6)
        ramp[2] = -self.ramp_rate
        object.__setattr__(self, "_rates", (read_only(ramp), read_only(np.zeros(6))))

    @property
    def ramp_duration(self) -> float:
        return (self.d_start - self.d_hold) / self.ramp_rate

    @property
    def duration(self) -> float:
        return self.ramp_duration + self.hold_duration


def impedance_torque(
    gains: ImpedanceGains,
    sp: Setpoint,
    rho: np.ndarray,
    rhodot: np.ndarray,
    J_rho: np.ndarray,
) -> np.ndarray:
    """tau = J_rho^T (K (rho_d - rho) + D (rhodot_d - rhodot)), nothing else."""
    # .dot: the same bits as @ on these operands, at less cost per call
    return J_rho.T.dot(gains.stiffness.dot(sp.rho_d - rho) + gains.damping.dot(sp.rhodot_d - rhodot))


def contact_setpoints(profile: ContactProfile, t: float) -> Setpoint:
    """d_d(t) = max(d_hold, d_start - ramp_rate t) at s = (0, 0);
    orientation held. The rates are the profile's shared read-only
    vectors."""
    if not t >= 0.0:  # NaN fails too
        raise ValueError("time must be non-negative")
    d = profile.d_start - profile.ramp_rate * t
    ramp, hold = profile._rates
    if d > profile.d_hold:
        return Setpoint(np.array([0.0, 0.0, d, 0.0, 0.0, 0.0]), ramp)
    return Setpoint(np.array([0.0, 0.0, profile.d_hold, 0.0, 0.0, 0.0]), hold)


@dataclass(frozen=True)
class RasterPath:
    """Boustrophedon polyline over a rectangular chart domain, entered
    from s = (0, 0) by a straight glide to its first corner.

    Scan lines run along s1 and are stepped along s2. When the s2 span
    is narrower than the requested spacing the path degenerates to a
    single centre line. Otherwise lines are spread evenly edge to edge
    at an effective spacing no larger than requested, so every domain
    point lies within half a spacing of some line.
    """

    s_min: np.ndarray
    s_max: np.ndarray
    line_spacing: float
    speed: float
    d_hold: float

    def __post_init__(self):
        lo = np.asarray(self.s_min, dtype=float)
        hi = np.asarray(self.s_max, dtype=float)
        if lo.shape != (2,) or hi.shape != (2,):
            raise ValueError("domain corners must be 2-vectors")
        if np.any(lo > hi):
            raise ValueError("domain must satisfy s_min <= s_max")
        if self.line_spacing <= 0.0 or self.speed <= 0.0:
            raise ValueError("line spacing and speed must be positive")
        object.__setattr__(self, "s_min", lo)
        object.__setattr__(self, "s_max", hi)
        # segment table: length, start and direction (as floats) and the
        # setpoint rates (a read-only vector shared by every setpoint) of each
        # leg; a leg of length 0 is never entered, so its NaN direction is
        # never read
        w = self.waypoints()
        seg = np.diff(w, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        with np.errstate(invalid="ignore"):
            direction = seg / lengths[:, None]
        rates = np.zeros((len(seg), 6))
        rates[:, :2] = self.speed * direction
        table = tuple(zip(lengths.tolist(), w[:-1].tolist(), direction.tolist(), map(read_only, rates)))
        object.__setattr__(self, "_segments", table)
        object.__setattr__(self, "_end", (w[-1].tolist(), read_only(np.zeros(6))))
        object.__setattr__(self, "_total_length", float(np.sum(lengths)))

    def scan_lines(self) -> np.ndarray:
        """s2 value of each scan line."""
        span = self.s_max[1] - self.s_min[1]
        if span < self.line_spacing:
            return np.array([0.5 * (self.s_min[1] + self.s_max[1])])
        n = int(math.ceil(span / self.line_spacing)) + 1
        return np.linspace(self.s_min[1], self.s_max[1], n)

    def waypoints(self) -> np.ndarray:
        """s = (0, 0), where the contact approach leaves the probe, then both
        ends of every scan line, odd lines run backwards."""
        lines = np.repeat(self.scan_lines(), 2)
        s1 = np.resize([self.s_min[0], self.s_max[0], self.s_max[0], self.s_min[0]], len(lines))
        return np.vstack([np.zeros(2), np.column_stack([s1, lines])])

    @property
    def duration(self) -> float:
        return self._total_length / self.speed

    def setpoint(self, t: float) -> Setpoint:
        """Constant-speed traversal; holds the endpoint after the path ends.
        The rates are the leg's shared read-only vector."""
        if not t >= 0.0:  # NaN fails too
            raise ValueError("time must be non-negative")
        remaining = self.speed * t
        for length, (p1, p2), (u1, u2), rates in self._segments:
            if remaining < length:
                s1, s2 = p1 + remaining * u1, p2 + remaining * u2
                return Setpoint(np.array([s1, s2, self.d_hold, 0.0, 0.0, 0.0]), rates)
            remaining -= length
        (s1, s2), rates = self._end
        return Setpoint(np.array([s1, s2, self.d_hold, 0.0, 0.0, 0.0]), rates)


def nullspace_projector(J_rho: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto null(J_rho)."""
    J_rho = np.asarray(J_rho, dtype=float)
    if J_rho.ndim != 2:
        raise ValueError("J_rho must be a matrix")
    n = J_rho.shape[1]
    _, sv, vt = np.linalg.svd(J_rho)
    rank = int(np.sum(sv > NULLSPACE_RANK_TOL * max(sv[0], 1.0)))
    vr = vt[:rank]
    return np.eye(n) - vr.T @ vr


# the seven 6x6 minors of a 6x7 matrix, minor k without column k, as flat
# indices for one take (a (7, 6, 6) stack), and their signs
_MINOR_IDX = np.array([[[7 * i + j for j in range(7) if j != k] for i in range(6)] for k in range(7)])
_MINOR_SIGN = np.array([(-1.0) ** k for k in range(7)])


def nullspace_damping(J_rho: np.ndarray, qdot: np.ndarray, gain: float) -> np.ndarray:
    """tau_null = -gain N qdot; damps joint motion the task cannot see.

    A full-rank 6x7 J_rho has a 1-D null space spanned by its signed 6x6
    minors (the generalised cross product of its rows): N = u u^T, u that
    vector normalised. Its norm is the product of the singular values;
    when that cannot rule out a rank drop, N is the SVD projector.
    """
    if not gain >= 0.0:  # NaN fails too
        raise ValueError("gain must be non-negative")
    J_rho = np.asarray(J_rho, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    if J_rho.shape == (6, 7) and qdot.shape == (7,):
        n = _MINOR_SIGN * _umath_linalg.det(J_rho.take(_MINOR_IDX))
        size = math.sqrt(n.dot(n))
        flat = J_rho.ravel()
        frob = math.sqrt(flat.dot(flat))
        # sigma_min >= size / sigma_max^5 and sigma_max <= frob
        if size > NULLSPACE_RANK_TOL * max(frob, 1.0) * frob**5:
            u = n / size
            return -gain * (u * u.dot(qdot))
    N = nullspace_projector(J_rho)
    if qdot.shape != (N.shape[0],):
        raise ValueError(f"qdot must have {N.shape[0]} entries, got {qdot.shape}")
    return -gain * (N @ qdot)


def task_space_inertia(mass_matrix: np.ndarray, J_rho: np.ndarray) -> np.ndarray:
    """Lambda = (J M^-1 J^T)^-1, symmetrized against roundoff."""
    M = np.asarray(mass_matrix, dtype=float)
    J = np.asarray(J_rho, dtype=float)
    core = J @ np.linalg.solve(M, J.T)
    lam = np.linalg.inv(core)
    return 0.5 * (lam + lam.T)


def _spd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w.min() <= 0.0:
        raise ValueError("matrix must be positive-definite")
    return (v * np.sqrt(w)) @ v.T


def critical_damping(
    stiffness: np.ndarray,
    task_inertia: np.ndarray,
    zeta: float = 0.7,
) -> np.ndarray:
    """D = 2 zeta sqrt(K Lambda), realized through the symmetric
    factorization sqrt(L) sqrt(sqrt(L)^-1 K sqrt(L)^-1) sqrt(L) with
    L = Lambda, which equals the literal product root whenever K and
    Lambda commute and stays symmetric positive-definite otherwise."""
    if zeta <= 0.0:
        raise ValueError("damping ratio must be positive")
    K = check_spd(stiffness, "stiffness")
    lam = check_spd(task_inertia, "task inertia")
    root_lam = _spd_sqrt(lam)
    inv_root = np.linalg.inv(root_lam)
    inner = _spd_sqrt(inv_root @ K @ inv_root)
    d = 2.0 * zeta * (root_lam @ inner @ root_lam)
    return 0.5 * (d + d.T)
