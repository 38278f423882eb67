"""7-DoF serial arm: kinematic description and the kinematics sweep.

Joints are revolute, described by a unit axis and a fixed parent-frame
transform (product-of-exponentials style, no DH tables). One sweep,
`arm_snapshot`, serves every caller: the seven joint transforms, stacked,
are chained as 4x4 homogeneous matrices; the probe frame is the flange
composed with the probe-tip offset; the Jacobian columns come from the
frame origins and world axes; and the mass matrix is the
composite-rigid-body algorithm on the links' 4x4 pseudo-inertias, summed
from the tip.

Gravity is assumed perfectly compensated by the drive electronics, so no
gravity vector appears anywhere in this package; the simulator integrates
the compensated dynamics directly. The model's `camera_offset` is schema
only: nothing reads it, since the reconstruct stage poses its camera by
`localization.orbit_trajectory`, independent of the arm.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .geometry import Pose, quat_to_matrix, read_only, skew
from .schema import (
    REQUIRED,
    Bound,
    ConfigKey,
    SchemaError,
    as_float,
    as_int,
    as_matrix,
    as_str,
    as_vector,
    list_of,
    load_yaml,
    read_node,
    vector,
)

_EYE = np.eye(3)
_EYE4 = np.eye(4)
_ONES = np.ones(7)
_ROLL = np.array([1, 2, 0, 2, 0, 1])  # rows k+1, then k+2, mod 3
# (z, v) @ _TWIST is the flattened twist matrix [[z^, v], [0, 0]], z^ = skew(z)
_TWIST = np.zeros((6, 4, 4))
_TWIST[:3, :3, :3] = [skew(e) for e in _EYE]
_TWIST[3:, :3, 3] = _EYE
_TWIST = _TWIST.reshape(6, 16)
_UPPER = np.triu(np.ones((7, 7), dtype=bool))


class JointLimitError(ValueError):
    """A joint coordinate or rate is outside the model limits."""

    def __init__(self, joint_index: int, value: float, lo: float, hi: float):
        self.joint_index = joint_index
        self.value = value
        super().__init__(
            f"joint {joint_index}: value {value:.6f} outside limits [{lo:.6f}, {hi:.6f}]"
        )


class JointVelocityError(JointLimitError):
    """A joint rate is outside the model's velocity limit."""


@dataclass(frozen=True)
class JointSpec:
    """One revolute joint: rotation axis in its own frame plus the fixed
    transform from the parent frame to this joint's frame. The axis is a
    read-only copy, the position limits a pair of floats."""

    name: str
    axis: np.ndarray  # unit 3-vector, joint frame
    origin: Pose  # parent frame -> joint frame (at q = 0)
    position_limits: tuple[float, float]  # rad
    velocity_limit: float  # rad/s

    def __post_init__(self):
        # each test is written so that NaN fails it
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(axis)
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError(f"joint '{self.name}': axis must be a finite unit vector, got {axis}")
        object.__setattr__(self, "axis", read_only(axis / n))
        lo, hi = limits = tuple(map(float, self.position_limits))
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"joint '{self.name}': position_limits must be finite and lo < hi")
        object.__setattr__(self, "position_limits", limits)
        if not 0.0 < self.velocity_limit < np.inf:
            raise ValueError(f"joint '{self.name}': velocity_limit must be positive and finite")


@dataclass(frozen=True)
class LinkInertia:
    """Rigid-body parameters of the link that moves with a joint, in that
    joint's frame: mass (kg), centre of mass (m), rotational inertia about
    the centre of mass (kg m^2). The arrays are read-only copies."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        com = np.array(self.com, dtype=float).reshape(3)
        inertia = np.array(self.inertia, dtype=float).reshape(3, 3)
        for name, value in (("mass", self.mass), ("com", com), ("inertia", inertia)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"link {name} must be finite, got {value}")
        if self.mass <= 0.0:
            raise ValueError(f"link mass must be positive, got {self.mass}")
        if np.max(np.abs(inertia - inertia.T)) > 1e-12:
            raise ValueError("inertia tensor must be symmetric")
        if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
            raise ValueError("inertia tensor must be positive-definite")
        object.__setattr__(self, "com", read_only(com))
        object.__setattr__(self, "inertia", read_only(inertia))


@dataclass(frozen=True)
class ArmModel:
    """Kinematic and rigid-body description of a 7-joint serial arm."""

    joints: tuple[JointSpec, ...]
    link_inertias: tuple[LinkInertia, ...]
    probe_offset: Pose  # flange -> probe tip
    camera_offset: Pose  # flange -> camera optical frame
    home_probe_pose: Pose | None = None  # documented FK(q=0) probe pose
    name: str = "arm"
    notes: str = ""

    def __post_init__(self):
        if len(self.joints) != 7:
            raise ValueError(f"model must have exactly 7 joints, got {len(self.joints)}")
        if len(self.link_inertias) != 7:
            raise ValueError("model must have exactly 7 link inertias")

    @functools.cached_property
    def _joint_constants(self) -> tuple:
        """Fixed pieces of the kinematics sweep, cached on the model: the
        joint-transform blocks, the joint axes in their parents' frames, the
        limits as plain lists, the probe offset from the flange as a (rotation
        matrix, translation) pair, and the link moments.

        With Rodrigues' Rot = I cos q + a a^T (1 - cos q) + [a]x sin q, joint
        i's transform L_i = [origin_R_i Rot(a_i, q_i), origin_t_i; 0 1] is
        blocks[:, i] weighted by (cos q_i, 1 - cos q_i, sin q_i, 1). Link i's
        moments about its joint frame's origin are the pseudo-inertia
        P = [[Sigma, m c], [m c^T, m]] with second moment
        Sigma = tr(I)/2 I3 - I + m c c^T; T P T^T holds them about the world.
        """
        origin_R = np.array([j.origin.rotation for j in self.joints])
        axes = np.array([j.axis for j in self.joints])
        blocks = np.zeros((4, 7, 4, 4))
        blocks[0, :, :3, :3] = origin_R @ _EYE
        blocks[1, :, :3, :3] = origin_R @ (axes[:, :, None] * axes[:, None, :])
        blocks[2, :, :3, :3] = origin_R @ np.array([skew(a) for a in axes])
        blocks[3, :, :3, 3] = [j.origin.translation for j in self.joints]
        blocks[3, :, 3, 3] = 1.0
        moments = np.zeros((7, 4, 4))
        for P, link in zip(moments, self.link_inertias):
            m, c, inertia = link.mass, link.com, link.inertia
            P[:3, :3] = 0.5 * np.trace(inertia) * _EYE - inertia + m * np.outer(c, c)
            P[:3, 3] = P[3, :3] = m * c
            P[3, 3] = m
        probe = self.probe_offset.rotation, self.probe_offset.translation
        lo_hi = [list(side) for side in zip(*(j.position_limits for j in self.joints))]
        vmax = [float(j.velocity_limit) for j in self.joints]
        # read-only like the model's own arrays: the reference model is shared
        axes = origin_R @ axes[:, :, None]
        return read_only(blocks), read_only(axes), lo_hi, vmax, probe, read_only(moments)


def check_limits(model: ArmModel, q: np.ndarray) -> None:
    lo, hi = model._joint_constants[2]
    for i, v in enumerate(q.tolist()):
        if not lo[i] <= v <= hi[i]:
            raise JointLimitError(i, v, lo[i], hi[i])


def check_velocity(model: ArmModel, qdot: np.ndarray) -> None:
    vmax = model._joint_constants[3]
    for i, v in enumerate(qdot.tolist()):
        if not abs(v) <= vmax[i]:
            raise JointVelocityError(i, v, -vmax[i], vmax[i])


def _chain(model: ArmModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World transforms T (8,4,4), T[0] the base and T[i + 1] = T[i] L_i
    joint i's frame after its own rotation, and the world joint axes
    z (7,3): joint i's axis in its parent's frame, rotated by T[i]."""
    blocks, axes = model._joint_constants[:2]
    c = np.cos(q)
    L = (blocks * np.array([c, 1.0 - c, np.sin(q), _ONES])[:, :, None, None]).sum(axis=0)
    T = np.empty((8, 4, 4))
    T[0] = _EYE4
    for i in range(7):
        np.dot(T[i], L[i], out=T[i + 1])
    return T, (T[:7, :3, :3] @ axes)[:, :, 0]


def _sweep(model: ArmModel, T: np.ndarray, z: np.ndarray, point: np.ndarray):
    """(J, M) from the chain (T, z): the 6x7 Jacobian at `point` and the
    7x7 mass matrix by the composite-rigid-body algorithm (Featherstone,
    *Rigid Body Dynamics Algorithms*, ch. 6).

    Summed from the tip, the links' pseudo-inertias T P T^T give the mass
    moments J^C_j of links j..7 about the world origin. Joint i moves a
    point r of those links at Xi_i [r; 1], with the twist matrix
    Xi_i = [[z_i^, v_i], [0, 0]] and v_i = p_i x z_i, so
    M_ij = tr(Xi_i J^C_j Xi_j^T), the Frobenius product of Xi_i and
    Xi_j J^C_j, for i <= j.
    """
    pT, zT = T[1:, :3, 3].T, z.T
    # rows k+1 and k+2 of the (3, 14) stacks, for np.cross's products:
    # v_j = p_j x z_j beside the Jacobian's z_j x (point - p_j)
    a = np.concatenate((pT, zT), axis=1)[_ROLL]
    b = np.concatenate((zT, point[:, None] - pT), axis=1)[_ROLL]
    vJ = a[:3] * b[3:] - a[3:] * b[:3]
    moments = T[1:] @ model._joint_constants[5] @ T[1:].transpose(0, 2, 1)
    composite = np.add.accumulate(moments[::-1])[::-1]
    twist = np.dot(np.concatenate((zT, vJ[:, :7])).T, _TWIST)
    # G[i, j] = <Xi_i, Xi_j J^C_j> is M_ij only on i <= j
    G = twist.dot((twist.reshape(7, 4, 4) @ composite).reshape(7, 16).T)
    return np.concatenate((vJ[:, 7:], zT)), np.where(_UPPER, G, G.T)


class ArmSnapshot(NamedTuple):
    """Everything the control loop needs at one joint configuration,
    computed from a single frame pass: the probe frame as a rotation
    matrix and its tip, the probe Jacobian at that tip and the joint-space
    mass matrix, as an immutable record."""

    R_probe: np.ndarray  # 3x3, probe axes in world coordinates
    tip: np.ndarray  # (3,) probe tip, world
    jacobian: np.ndarray  # 6x7, probe point
    mass: np.ndarray  # 7x7

    @property
    def probe(self) -> Pose:
        """The probe frame as a checked Pose, for callers outside the loop."""
        return Pose(self.R_probe, self.tip)


def arm_snapshot(model: ArmModel, q) -> ArmSnapshot:
    """Probe frame, Jacobian and mass matrix from one kinematics sweep.

    The probe frame is the flange's composed with the probe offset, and
    its tip is the point the Jacobian is taken at. Raises JointLimitError
    outside the position limits.
    """
    q = np.asarray(q, dtype=float).reshape(7)
    check_limits(model, q)
    T, z = _chain(model, q)
    R_off, t_off = model._joint_constants[4]
    R7, p7 = T[7, :3, :3], T[7, :3, 3]
    tip = p7 + R7.dot(t_off)  # .dot: the same bits as @ on 2-D operands, at less cost
    return ArmSnapshot(R7.dot(R_off), tip, *_sweep(model, T, z, tip))


# ---------------------------------------------------------------------------
# Model file I/O (schema version 1)
# ---------------------------------------------------------------------------

def _unit_quaternion(value, where: str) -> np.ndarray:
    """The rotation matrix of a pose's unit quaternion (w, x, y, z), the one quaternion read."""
    q = as_vector(value, 4, where)
    n = float(np.linalg.norm(q))
    if not abs(n - 1.0) <= 1e-6:  # NaN fails too
        raise SchemaError(f"{where}: quaternion norm {n} too far from 1")
    return quat_to_matrix(q / n if abs(n - 1.0) > 1e-12 else q)


# Each table's rows are the keys of one node, named as the arguments of the
# type it builds: Pose, JointSpec, LinkInertia and ArmModel.
POSE_ROWS = (
    ConfigKey("translation", REQUIRED, vector(3)),
    ConfigKey("rotation", REQUIRED, _unit_quaternion),
)
_pose = lambda value, where: read_node(value, POSE_ROWS, where, Pose)
JOINT_ROWS = (
    ConfigKey("name", REQUIRED, as_str),
    ConfigKey("axis", REQUIRED, vector(3)),
    ConfigKey("origin", REQUIRED, _pose),
    ConfigKey("position_limits", REQUIRED, vector(2)),
    ConfigKey("velocity_limit", REQUIRED, as_float),
)
LINK_ROWS = (
    ConfigKey("mass", REQUIRED, as_float),
    ConfigKey("com", REQUIRED, vector(3)),
    ConfigKey("inertia", REQUIRED, lambda value, where: as_matrix(value, 3, 3, where)),
)
MODEL_ROWS = (
    ConfigKey("model_version", REQUIRED, as_int, Bound("1", 1, 1, lo_closed=True, hi_closed=True)),
    ConfigKey("name", "arm", as_str),
    ConfigKey("notes", "", as_str),
    ConfigKey("joints", REQUIRED, list_of(JOINT_ROWS, JointSpec)),
    ConfigKey("link_inertias", REQUIRED, list_of(LINK_ROWS, LinkInertia)),
    ConfigKey("probe_offset", REQUIRED, _pose),
    ConfigKey("camera_offset", REQUIRED, _pose),
    ConfigKey("home_probe_pose", None,  # an explicit null is None too
              lambda value, where: None if value is None else _pose(value, where)),
)


def load_arm_model(path) -> ArmModel:
    """Parse an arm model file (YAML, ``model_version: 1``) through MODEL_ROWS.

    Unknown fields anywhere in the document are rejected, and every error
    names the file and the node.
    """
    doc = load_yaml(path)
    return read_node(doc, MODEL_ROWS, str(path), lambda model_version, **rest: ArmModel(**rest))


@functools.cache
def reference_arm() -> ArmModel:
    """The bundled representative 7-DoF model (see models/reference_arm.yaml).

    The file is parsed once per process: every call returns that one
    shared model, whose arrays are all read-only, so no run can change
    what the next one sees. Geometry is a stand-in at realistic desk
    scale, not calibrated against any physical arm.
    """
    with resources.as_file(resources.files("surfscan.models") / "reference_arm.yaml") as p:
        return load_arm_model(p)
