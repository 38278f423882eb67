"""Compliant contact and closed-loop time stepping.

Dynamics are M(q) qdd = tau_impedance + tau_null + J_geom^T F_contact
with gravity assumed perfectly compensated and no velocity-product term
C(q, qdot) qdot (so kinetic energy gains 1/2 qdot^T Mdot qdot that no
torque supplies), integrated by semi-implicit Euler. Contact is a
frictionless normal penalty at the probe tip: F = f n with
f = k_t (-d) + c max(0, -ddot) while d < 0, never adhesive.

The loop state `SimState` is plain arrays, the scalar force f and the
chart's surface frame. `init_state` checks q and qdot once; after that
the divergence test is what catches a non-finite state. Each state comes
from one kinematics sweep (`arm_snapshot`), whose probe rotation matrix,
tip and Jacobian go straight to the chart: a step builds no `Pose`.

A step runs about a thousand times per simulated second, so its records
(`SimState`, `SurfaceFrame`, `ArmSnapshot`) are `NamedTuple`s, its 2-D
products `.dot` calls (the bits of `@`, at less cost), its 7x7 solve the
gufunc under `np.linalg.solve` (a singular M gives NaN: `DivergenceError`,
not LinAlgError), and its divergence test one sum of floats, falling back
to the entrywise test only when that sum is not finite.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .arm import ArmModel, arm_snapshot, check_velocity
from .chart import SurfaceChart, SurfaceFrame
from .controller import ImpedanceGains, Setpoint, impedance_torque, nullspace_damping
from .mesh import TriMesh, grid_surface_mesh

MAX_DT = 5e-3


class DivergenceError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class PhantomModel:
    """Penalty-contact parameters, stiffness and damping, which are the whole
    constitutive story. `mesh`, the ground-truth surface, is never read: the
    force comes from the chart's distance rho[2], so under `pipeline`, whose
    raster chart is the reconstructed mesh, the probe presses on that mesh.
    """

    mesh: TriMesh
    contact_stiffness: float
    contact_damping: float = 0.0

    def __post_init__(self):
        if self.contact_stiffness <= 0.0:
            raise ValueError("contact stiffness must be positive")
        if self.contact_damping < 0.0:
            raise ValueError("contact damping must be non-negative")


def _height_field(centre, extent: float, n: int, height) -> TriMesh:
    """An n x n grid over [-extent, extent]^2 about `centre`, each node raised
    by height(r2) along z, r2 its squared distance from the z axis."""
    if extent <= 0.0 or n < 2:
        raise ValueError("extent must be positive and n at least 2")
    xs = np.linspace(-extent, extent, n)
    r2 = xs[:, None] ** 2 + xs[None, :] ** 2
    return grid_surface_mesh(
        np.asarray(centre, dtype=float), np.array([1.0, 0, 0]), np.array([0.0, 1, 0]),
        np.array([0.0, 0, 1]), xs, xs, height(r2),
    )


def flat_phantom_mesh(centre, extent: float = 0.15, n: int = 31) -> TriMesh:
    """Level square top surface centred at `centre`."""
    return _height_field(centre, extent, n, np.zeros_like)


def cap_phantom_mesh(
    centre,
    sphere_radius: float = 0.10,
    cap_height: float = 0.04,
    extent: float = 0.12,
    n: int = 61,
) -> TriMesh:
    """Spherical cap rising from a flat skirt; `centre` is the skirt level
    under the apex. Default rim slope is about 53 degrees."""
    if not 0.0 < cap_height <= sphere_radius:
        raise ValueError("cap height must be in (0, sphere_radius]")
    return _height_field(centre, extent, n, lambda r2: np.maximum(
        np.sqrt(np.maximum(sphere_radius**2 - r2, 0.0)) - (sphere_radius - cap_height), 0.0))


class SimState(NamedTuple):
    """The loop's state at time t as plain arrays, all consistent with q;
    an immutable record (`_replace` gives a changed copy)."""

    t: float
    q: np.ndarray  # (7,) rad
    qdot: np.ndarray  # (7,) rad/s
    rho: np.ndarray  # (6,) (s1, s2, d, eps1, eps2, eps3)
    rhodot: np.ndarray  # (6,)
    J_rho: np.ndarray  # 6x7 task Jacobian
    frame: SurfaceFrame  # at the foot point; its face seeds the next query
    jacobian: np.ndarray  # 6x7 geometric Jacobian of the probe point
    mass: np.ndarray  # 7x7 joint-space mass matrix
    force_n: float  # contact force along frame.n, N


def contact_force(phantom: PhantomModel, d: float, ddot: float) -> float:
    """Penalty force along the surface normal at distance d moving at ddot."""
    if d >= 0.0:
        return 0.0
    f = phantom.contact_stiffness * (-d) + phantom.contact_damping * max(0.0, -ddot)
    return max(f, 0.0)


def init_state(
    model: ArmModel,
    chart: SurfaceChart,
    phantom: PhantomModel,
    q,
    qdot=None,
) -> SimState:
    """The loop's entry edge at t = 0: q and qdot are validated here, once."""
    q = np.asarray(q, dtype=float).reshape(7)
    qdot = np.zeros(7) if qdot is None else np.asarray(qdot, dtype=float).reshape(7)
    if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
        raise ValueError("joint state must be finite")
    return _state_at(model, chart, phantom, 0.0, q, qdot)


def _state_at(model, chart, phantom, t: float, q, qdot, hint=None) -> SimState:
    R_probe, tip, jacobian, mass = arm_snapshot(model, q)  # raises on a limit breach
    rho, rhodot, J, frame = chart.evaluate_probe(R_probe, tip, jacobian, qdot, hint)
    force_n = contact_force(phantom, float(rho[2]), float(rhodot[2]))
    return SimState(t, q, qdot, rho, rhodot, J, frame, jacobian, mass, force_n)


def step(
    model: ArmModel,
    chart: SurfaceChart,
    phantom: PhantomModel,
    gains: ImpedanceGains | None,
    setpoint: Setpoint,
    state: SimState,
    dt: float,
    nullspace_gain: float = 0.0,
) -> SimState:
    """One semi-implicit Euler step using the forces of `state`."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must be in (0, {MAX_DT}] s, got {dt}")
    t, q, qdot, rho, rhodot, J_rho, frame, jacobian, mass, force_n = state
    if gains is not None:
        tau = impedance_torque(gains, setpoint, rho, rhodot, J_rho)
    else:
        tau = np.zeros(7)
    if nullspace_gain > 0.0:
        tau = tau + nullspace_damping(J_rho, qdot, nullspace_gain)
    tau = tau + jacobian[:3].T.dot(force_n * frame.n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        qdd = _umath_linalg.solve1(mass, tau)
    qdot_new = qdot + dt * qdd
    q_new = q + dt * qdot_new
    # one test for both: the sum of the entries is finite when each entry is,
    # unless it overflows, and only then does the entrywise test decide (in
    # Python floats, where numpy's sums would warn on that overflow)
    entries = q_new.tolist() + qdot_new.tolist()
    if not math.isfinite(sum(entries)) and not all(map(math.isfinite, entries)):
        raise DivergenceError(
            f"integrator diverged at t = {t:.6f} s (step from dt = {dt})"
        )
    check_velocity(model, qdot_new)  # raises JointVelocityError
    return _state_at(model, chart, phantom, t + dt, q_new, qdot_new, frame.face)


def steady_state_force(k_controller: float, k_t: float, d_hold: float) -> float:
    """Equilibrium contact force of the controller spring in series with
    the contact spring, holding d at d_hold."""
    if k_controller <= 0.0 or k_t <= 0.0:
        raise ValueError("stiffnesses must be positive")
    if d_hold >= 0.0:
        raise ValueError("d_hold must command penetration (negative)")
    return k_controller * k_t / (k_controller + k_t) * (-d_hold)


CSV_HEADER = "t,q0,q1,q2,q3,q4,q5,q6,s1,s2,d,eps1,eps2,eps3,d_d,force_n"


@dataclass(frozen=True)
class ScanLog:
    """Samples of a run: an (n, 16) table in CSV_HEADER order, one row each;
    the named columns are views of it."""

    table: np.ndarray

    t = property(lambda log: log.table[:, 0])
    q = property(lambda log: log.table[:, 1:8])
    s1 = property(lambda log: log.table[:, 8])
    s2 = property(lambda log: log.table[:, 9])
    d = property(lambda log: log.table[:, 10])
    eps = property(lambda log: log.table[:, 11:14])
    d_d = property(lambda log: log.table[:, 14])
    force_n = property(lambda log: log.table[:, 15])

    def __post_init__(self):
        if self.table.shape[1:] != (16,) or len(self.table) == 0:
            raise ValueError("log must be a non-empty (n, 16) table")
        if not (np.diff(self.t) > 0.0).all():
            raise ValueError("log time must be strictly increasing")

    def __len__(self) -> int:
        return len(self.table)


def _write_row(row: np.ndarray, state: SimState, setpoint: Setpoint) -> None:
    """One sample into its table row, in CSV_HEADER order."""
    row[0] = state.t
    row[1:8] = state.q
    row[8:14] = state.rho  # s1, s2, d, eps1, eps2, eps3
    row[14] = setpoint.rho_d[2]
    row[15] = state.force_n


@dataclass
class Checkpoint:
    """The first `steps` steps of a run, shared with a later run that would
    take the same ones: same model, chart, phantom, gains, dt,
    `sample_every`, null-space gain and q0, and setpoints that agree up to
    step `steps`. The first run given it fills in its state after those
    steps and its rows logged so far; a run given a filled one starts there.
    """

    steps: int  # a multiple of sample_every
    state: SimState | None = None
    rows: np.ndarray | None = None  # a view of the filling run's table


def step_count(duration: float, dt: float) -> int:
    """The steps `simulate` takes to cover `duration` at `dt`."""
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(
            f"duration / dt must be a finite step count; got duration {duration} s, dt {dt} s")
    return max(1, int(round(steps)))


def simulate(
    model: ArmModel,
    chart: SurfaceChart,
    phantom: PhantomModel,
    gains: ImpedanceGains | None,
    setpoints,
    q0,
    duration: float,
    dt: float = 1e-3,
    sample_every: int = 1,
    nullspace_gain: float = 0.0,
    deadline: float | None = None,
    *,
    checkpoint: Checkpoint | None = None,
) -> ScanLog:
    """Run the loop for `duration` seconds; setpoints is t -> Setpoint.

    Samples every `sample_every` steps (always including t = 0 and the
    final state). On joint-limit (position or velocity) or divergence
    errors the partial log is attached to the exception as `partial_log`.

    With an empty `checkpoint`, the run fills it in at step
    `checkpoint.steps`. With a filled one, the run starts from its state
    and rows instead of from q0 and repeats none of its steps; step numbers
    stay those of the whole run, so the sampling, the deadline checks and
    the log are the same as without it.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must be in (0, {MAX_DT}] s, got {dt}")
    n_steps = step_count(duration, dt)
    if checkpoint is not None and not (
            0 < checkpoint.steps <= n_steps and checkpoint.steps % sample_every == 0):
        raise ValueError("checkpoint steps must be a positive multiple of sample_every, "
                         f"at most the run's {n_steps}; got {checkpoint.steps}")
    table = np.empty((1 + math.ceil(n_steps / sample_every), 16))
    if checkpoint is not None and checkpoint.state is not None:
        first, n, state = checkpoint.steps, len(checkpoint.rows), checkpoint.state
        table[:n] = checkpoint.rows
        sp = setpoints(state.t)
    else:
        first, n, state = 0, 1, init_state(model, chart, phantom, q0)
        sp = setpoints(0.0)
        _write_row(table[0], state, sp)
    fill = checkpoint.steps if checkpoint is not None and first == 0 else 0
    try:
        for k in range(first, n_steps):
            state = step(model, chart, phantom, gains, sp, state, dt, nullspace_gain)
            sp = setpoints(state.t)
            if (k + 1) % sample_every == 0 or k + 1 == n_steps:
                _write_row(table[n], state, sp)
                n += 1
                if k + 1 == fill:
                    checkpoint.state, checkpoint.rows = state, table[:n]
            if deadline is not None and k % 200 == 0 and time.monotonic() > deadline:
                raise TimeoutError(f"simulation exceeded its deadline at t = {state.t:.3f} s")
    except Exception as exc:
        exc.partial_log = ScanLog(table[:n])
        raise
    return ScanLog(table)


# ---------------------------------------------------------------------------
# log files
# ---------------------------------------------------------------------------


_ROW_FORMAT = ",".join(["%.9g"] * 16)
EXPORT_BLOCK = 256  # rows formatted by one % operation


def export_log(log: ScanLog, path) -> None:
    """CSV, 9 significant digits, LF endings; byte-stable for equal runs."""
    # a block of rows at a time: a whole-table tolist() would hold every
    # value as a Python float at once
    parts = [CSV_HEADER]
    for a in range(0, len(log.table), EXPORT_BLOCK):
        rows = log.table[a : a + EXPORT_BLOCK]
        parts.append("\n".join([_ROW_FORMAT] * len(rows)) % tuple(rows.ravel().tolist()))
    data = "\n".join(parts) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(data)


def parse_log(path) -> ScanLog:
    with open(path, "r", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    lines = text.split("\n")
    if not lines or lines[0].rstrip("\r") != CSV_HEADER:
        raise ValueError(f"{path}: unexpected log header")
    rows = []
    for number, ln in enumerate(lines[1:], start=2):
        ln = ln.rstrip("\r")
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 16:
            raise ValueError(f"{path}: line {number}: expected 16 columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {number}: non-finite value")
        rows.append(row)
    try:
        return ScanLog(np.array(rows))
    except ValueError as exc:  # no rows, or the time column out of order
        raise ValueError(f"{path}: {exc}") from None
