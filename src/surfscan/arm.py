"""7-DoF serial arm: kinematic description, forward kinematics, Jacobians,
and the joint-space mass matrix.

Joints are revolute, described by a unit axis and a fixed parent-frame
transform (product-of-exponentials style, no DH tables). Frame names:

* ``flange`` -- the moving frame after the last joint,
* ``probe``  -- flange composed with the probe-tip offset,
* ``camera`` -- flange composed with the camera optical-frame offset.

Gravity is assumed perfectly compensated by the drive electronics, so no
gravity vector appears anywhere in this package; the simulator integrates
the compensated dynamics directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .geometry import Pose, cross3, skew
from .schema import (
    SchemaError,
    as_float,
    as_matrix,
    as_vector,
    check_keys,
    get_required,
    load_yaml,
    require_mapping,
)

FRAMES = ("flange", "probe", "camera")

ORTHONORMAL_TOL = 1e-12
_EYE = np.eye(3)
_UPPER = np.triu(np.ones((7, 7), dtype=bool))
_STRICT_UPPER = np.triu(np.ones((7, 7), dtype=bool), 1)


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
    transform from the parent frame to this joint's frame."""

    name: str
    axis: np.ndarray  # unit 3-vector, joint frame
    origin: Pose  # parent frame -> joint frame (at q = 0)
    position_limits: tuple[float, float]  # rad
    velocity_limit: float  # rad/s

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"joint '{self.name}': axis must be unit length, got norm {n}")
        object.__setattr__(self, "axis", axis / n)
        lo, hi = self.position_limits
        if not lo < hi:
            raise ValueError(f"joint '{self.name}': empty position limit range")
        if self.velocity_limit <= 0.0:
            raise ValueError(f"joint '{self.name}': velocity limit must be positive")


@dataclass(frozen=True)
class LinkInertia:
    """Rigid-body parameters of the link that moves with a joint, in that
    joint's frame: mass (kg), centre of mass (m), rotational inertia about
    the centre of mass (kg m^2)."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"link mass must be positive, got {self.mass}")
        com = np.asarray(self.com, dtype=float).reshape(3)
        inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if np.max(np.abs(inertia - inertia.T)) > 1e-12:
            raise ValueError("inertia tensor must be symmetric")
        if np.min(np.linalg.eigvalsh(inertia)) <= 0.0:
            raise ValueError("inertia tensor must be positive-definite")
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "inertia", inertia)


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
        for pose in (self.probe_offset, self.camera_offset):
            R = pose.rotation_matrix()
            if np.max(np.abs(R.T @ R - np.eye(3))) > ORTHONORMAL_TOL * 10:
                raise ValueError("offset rotation is not orthonormal")

    @property
    def position_limits(self) -> np.ndarray:
        return np.array([j.position_limits for j in self.joints])

    @property
    def velocity_limits(self) -> np.ndarray:
        return np.array([j.velocity_limit for j in self.joints])


@dataclass(frozen=True)
class JointState:
    """Joint angles (rad) and velocities (rad/s)."""

    q: np.ndarray
    qdot: np.ndarray = field(default_factory=lambda: np.zeros(7))

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(7)
        qdot = np.asarray(self.qdot, dtype=float).reshape(7)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qdot))):
            raise ValueError("joint state must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qdot", qdot)


def check_limits(model: ArmModel, q: np.ndarray) -> None:
    lo, hi = _joint_constants(model)[5]
    for i, v in enumerate(q.tolist()):
        if not lo[i] <= v <= hi[i]:
            raise JointLimitError(i, v, lo[i], hi[i])


def check_velocity(model: ArmModel, qdot: np.ndarray) -> None:
    vmax = _joint_constants(model)[6]
    for i, v in enumerate(qdot.tolist()):
        if not abs(v) <= vmax[i]:
            raise JointVelocityError(i, v, -vmax[i], vmax[i])


def _joint_constants(model: ArmModel) -> tuple:
    """Per-joint fixed pieces of the frame recursion, cached on the model:
    origin rotation/translation, axes, the stacked Rodrigues building
    blocks, the position and velocity limits as plain lists, and each
    flange offset as a (rotation matrix, translation) pair by frame name."""
    cached = model.__dict__.get("_joint_constants")
    if cached is None:
        origin_R = [j.origin.rotation_matrix() for j in model.joints]
        origin_t = [j.origin.translation for j in model.joints]
        axes = np.array([j.axis for j in model.joints])
        outer = axes[:, :, None] * axes[:, None, :]
        K = np.array([skew(a) for a in axes])
        lo, hi = model.position_limits.T.tolist()
        offsets = {
            name: (pose.rotation_matrix(), pose.translation)
            for name, pose in (("probe", model.probe_offset), ("camera", model.camera_offset))
        }
        vmax = model.velocity_limits.tolist()
        cached = (origin_R, origin_t, axes, outer, K, (lo, hi), vmax, offsets)
        object.__setattr__(model, "_joint_constants", cached)
    return cached


def joint_frames(model: ArmModel, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World pose of every joint frame after its own rotation.

    Returns (R, p, z): rotations (7,3,3), origins (7,3) and world joint
    axes (7,3). No limit check; callers that accept external input check
    first.
    """
    q = np.asarray(q, dtype=float).reshape(7)
    origin_R, origin_t, axes, outer, K = _joint_constants(model)[:5]
    R = np.empty((7, 3, 3))
    p = np.empty((7, 3))
    z = np.empty((7, 3))
    Rw = _EYE
    pw = np.zeros(3)
    c = np.cos(q)[:, None, None]
    Rj = _EYE * c + outer * (1.0 - c) + K * np.sin(q)[:, None, None]  # Rodrigues
    for i in range(7):
        # origin translation is expressed in the parent frame
        pw = pw + Rw @ origin_t[i]
        Rw = Rw @ origin_R[i]
        z[i] = Rw @ axes[i]
        Rw = Rw @ Rj[i]
        R[i] = Rw
        p[i] = pw
    return R, p, z


def _checked_frames(model: ArmModel, q, frame: str):
    if frame not in FRAMES:
        raise ValueError(f"unknown frame '{frame}'; expected one of {FRAMES}")
    qv = np.asarray(q, dtype=float).reshape(7)
    check_limits(model, qv)
    return joint_frames(model, qv)


def _offset_frame(
    model: ArmModel, R7: np.ndarray, p7: np.ndarray, frame: str
) -> tuple[np.ndarray, np.ndarray]:
    """World rotation matrix and origin of `frame` from the flange's (R7, p7).

    forward_kinematics, geometric_jacobian and arm_snapshot all take a
    frame's origin from here, so a pose and its Jacobian share one point.
    """
    if frame == "flange":
        return R7, p7
    R_off, t_off = _joint_constants(model)[7][frame]
    return R7 @ R_off, p7 + R7 @ t_off


def forward_kinematics(model: ArmModel, q, frame: str = "probe") -> Pose:
    """Pose of the requested frame in the base frame.

    Raises JointLimitError if q is outside the model's position limits and
    ValueError for an unknown frame name.
    """
    R, p, _ = _checked_frames(model, q, frame)
    return Pose.from_rotation_matrix(*_offset_frame(model, R[6], p[6], frame))


def _jacobian_from_frames(p: np.ndarray, z: np.ndarray, pe: np.ndarray) -> np.ndarray:
    J = np.empty((6, 7))
    J[:3] = cross3(z, pe - p, (7, 3)).T
    J[3:] = z.T
    return J


def geometric_jacobian(model: ArmModel, q, frame: str = "probe") -> np.ndarray:
    """6x7 geometric Jacobian of the requested frame, base coordinates.

    Rows 0..2 map joint rates to the frame point's linear velocity (m/s),
    rows 3..5 to its angular velocity (rad/s): column i is
    (z_i x (p_e - p_i), z_i).
    """
    R, p, z = _checked_frames(model, q, frame)
    return _jacobian_from_frames(p, z, _offset_frame(model, R[6], p[6], frame)[1])


def _link_arrays(model: ArmModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # stacked (mass, com, inertia) arrays, cached on the frozen model
    cached = model.__dict__.get("_link_arrays")
    if cached is None:
        cached = (
            np.array([l.mass for l in model.link_inertias]),
            np.array([l.com for l in model.link_inertias]),
            np.array([l.inertia for l in model.link_inertias]),
        )
        for a in cached:
            a.setflags(write=False)
        object.__setattr__(model, "_link_arrays", cached)
    return cached


def _skew_batch(v: np.ndarray) -> np.ndarray:
    out = np.zeros((len(v), 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def _mass_from_frames(model: ArmModel, R: np.ndarray, p: np.ndarray, z: np.ndarray) -> np.ndarray:
    mass, com, inertia = _link_arrays(model)
    c = p + (R @ com[:, :, None])[:, :, 0]
    Ic = R @ inertia @ np.swapaxes(R, 1, 2)
    cx = _skew_batch(c)
    m = mass[:, None, None]
    spatial = np.empty((7, 6, 6))
    spatial[:, :3, :3] = Ic - m * (cx @ cx)
    spatial[:, :3, 3:] = m * cx
    spatial[:, 3:, :3] = -m * cx
    spatial[:, 3:, 3:] = m * _EYE
    # composite[i] = spatial[i] + ... + spatial[6], accumulated from the tip
    composite = np.add.accumulate(spatial[::-1])[::-1]
    S = np.concatenate([z, cross3(p, z, (7, 3))], axis=1)
    F = (composite @ S[:, :, None])[:, :, 0]
    # G[i, j] = S_i . (I^C_j S_j) is the mass matrix only on i <= j
    G = S @ F.T
    return np.where(_UPPER, G, 0.0) + np.where(_STRICT_UPPER, G, 0.0).T


def mass_matrix(model: ArmModel, q) -> np.ndarray:
    """Joint-space mass matrix via the composite-rigid-body recursion.

    Spatial inertias are expressed about the world origin with motion
    coordinates (omega, v_origin); the composite inertia of links i..7 is
    accumulated backwards and M_ij = S_i . (I^C_j S_j) for i <= j.
    """
    return _mass_from_frames(model, *joint_frames(model, q))


@dataclass(frozen=True)
class ArmSnapshot:
    """Everything the control loop needs at one joint configuration,
    computed from a single frame pass: the probe frame as a rotation
    matrix and its tip, the probe Jacobian at that tip and the joint-space
    mass matrix."""

    R_probe: np.ndarray  # 3x3, probe axes in world coordinates
    tip: np.ndarray  # (3,) probe tip, world
    jacobian: np.ndarray  # 6x7, probe point
    mass: np.ndarray  # 7x7

    @property
    def probe(self) -> Pose:
        """The probe frame as a checked Pose, for callers outside the loop."""
        return Pose.from_rotation_matrix(self.R_probe, self.tip)


def arm_snapshot(model: ArmModel, q) -> ArmSnapshot:
    """Probe frame, Jacobian and mass matrix sharing one kinematics sweep.

    Field values match forward_kinematics / geometric_jacobian /
    mass_matrix exactly; this just avoids recomputing the joint frames
    three times per control step. Raises JointLimitError outside the
    position limits.
    """
    R, p, z = _checked_frames(model, q, "probe")
    R_probe, tip = _offset_frame(model, R[6], p[6], "probe")
    J = _jacobian_from_frames(p, z, tip)
    return ArmSnapshot(R_probe, tip, J, _mass_from_frames(model, R, p, z))


# ---------------------------------------------------------------------------
# Model file I/O (schema version 1)
# ---------------------------------------------------------------------------

_JOINT_KEYS = ("name", "axis", "origin", "position_limits", "velocity_limit")
_LINK_KEYS = ("mass", "com", "inertia")
_POSE_KEYS = ("translation", "rotation")
_TOP_KEYS = (
    "model_version",
    "name",
    "notes",
    "joints",
    "link_inertias",
    "probe_offset",
    "camera_offset",
    "home_probe_pose",
)


def _pose_from_node(node, where: str) -> Pose:
    node = require_mapping(node, where)
    check_keys(node, _POSE_KEYS, where)
    t = as_vector(get_required(node, "translation", where), 3, f"{where}.translation")
    r = as_vector(get_required(node, "rotation", where), 4, f"{where}.rotation")
    return Pose(r, t)


def _pose_to_node(pose: Pose) -> dict:
    return {
        "translation": [float(x) for x in pose.translation],
        "rotation": [float(x) for x in pose.rotation],
    }


def load_arm_model(path) -> ArmModel:
    """Parse an arm model file (YAML, ``model_version: 1``).

    Unknown fields anywhere in the document are rejected.
    """
    doc = load_yaml(path)
    where = str(path)
    doc = require_mapping(doc, where)
    check_keys(doc, _TOP_KEYS, where)
    version = get_required(doc, "model_version", where)
    if version != 1:
        raise SchemaError(f"{where}: unsupported model_version {version!r}")
    joints = []
    joints_node = get_required(doc, "joints", where)
    if not isinstance(joints_node, list):
        raise SchemaError(f"{where}: 'joints' must be a list")
    for k, jnode in enumerate(joints_node):
        jwhere = f"{where}.joints[{k}]"
        jnode = require_mapping(jnode, jwhere)
        check_keys(jnode, _JOINT_KEYS, jwhere)
        limits = as_vector(get_required(jnode, "position_limits", jwhere), 2, jwhere)
        joints.append(
            JointSpec(
                name=str(get_required(jnode, "name", jwhere)),
                axis=as_vector(get_required(jnode, "axis", jwhere), 3, jwhere),
                origin=_pose_from_node(get_required(jnode, "origin", jwhere), f"{jwhere}.origin"),
                position_limits=(float(limits[0]), float(limits[1])),
                velocity_limit=as_float(get_required(jnode, "velocity_limit", jwhere), jwhere),
            )
        )
    links = []
    links_node = get_required(doc, "link_inertias", where)
    if not isinstance(links_node, list):
        raise SchemaError(f"{where}: 'link_inertias' must be a list")
    for k, lnode in enumerate(links_node):
        lwhere = f"{where}.link_inertias[{k}]"
        lnode = require_mapping(lnode, lwhere)
        check_keys(lnode, _LINK_KEYS, lwhere)
        links.append(
            LinkInertia(
                mass=as_float(get_required(lnode, "mass", lwhere), lwhere),
                com=as_vector(get_required(lnode, "com", lwhere), 3, lwhere),
                inertia=as_matrix(get_required(lnode, "inertia", lwhere), 3, 3, lwhere),
            )
        )
    home = None
    if doc.get("home_probe_pose") is not None:
        home = _pose_from_node(doc["home_probe_pose"], f"{where}.home_probe_pose")
    return ArmModel(
        joints=tuple(joints),
        link_inertias=tuple(links),
        probe_offset=_pose_from_node(get_required(doc, "probe_offset", where), f"{where}.probe_offset"),
        camera_offset=_pose_from_node(get_required(doc, "camera_offset", where), f"{where}.camera_offset"),
        home_probe_pose=home,
        name=str(doc.get("name", "arm")),
        notes=str(doc.get("notes", "")),
    )


def save_arm_model(model: ArmModel, path) -> None:
    doc = {
        "model_version": 1,
        "name": model.name,
        "notes": model.notes,
        "joints": [
            {
                "name": j.name,
                "axis": [float(x) for x in j.axis],
                "origin": _pose_to_node(j.origin),
                "position_limits": [float(j.position_limits[0]), float(j.position_limits[1])],
                "velocity_limit": float(j.velocity_limit),
            }
            for j in model.joints
        ],
        "link_inertias": [
            {
                "mass": float(l.mass),
                "com": [float(x) for x in l.com],
                "inertia": [[float(x) for x in row] for row in l.inertia],
            }
            for l in model.link_inertias
        ],
        "probe_offset": _pose_to_node(model.probe_offset),
        "camera_offset": _pose_to_node(model.camera_offset),
    }
    if model.home_probe_pose is not None:
        doc["home_probe_pose"] = _pose_to_node(model.home_probe_pose)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def reference_arm() -> ArmModel:
    """The bundled representative 7-DoF model (see models/reference_arm.yaml).

    Geometry is a stand-in at realistic desk scale, not calibrated against
    any physical arm.
    """
    with resources.as_file(resources.files("surfscan.models") / "reference_arm.yaml") as p:
        return load_arm_model(p)
