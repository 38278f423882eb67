"""Arm model tests.

`arm_snapshot` is the one kinematics entry point; the tests read the
probe pose, Jacobian and mass matrix from it, and per-joint frames from
the private chain `_chain` it runs. Oracles are written independently of
the package code: forward kinematics against an explicit
homogeneous-matrix chain with hand-written Rz/Ry blocks, Jacobians
against central finite differences, and the mass matrix against the
per-link point-Jacobian sum  M = sum_i Jv_i^T m_i Jv_i + Jw_i^T I_i Jw_i.
"""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from surfscan.arm import (
    JOINT_ROWS,
    LINK_ROWS,
    MODEL_ROWS,
    POSE_ROWS,
    ArmModel,
    JointLimitError,
    JointSpec,
    LinkInertia,
    _chain,
    _sweep,
    arm_snapshot,
    load_arm_model,
    reference_arm,
)
from surfscan.geometry import Pose
from surfscan.schema import REQUIRED, SchemaError

from helpers import pose_from_quat, save_arm_model

MODEL = reference_arm()
README = Path(__file__).resolve().parent.parent / "README.md"

# reference layout, duplicated here on purpose so the oracle does not
# depend on the YAML parser or the package's transform code
OFFSETS = [0.15, 0.10, 0.20, 0.10, 0.20, 0.08, 0.08]
AXES = "zyzyzyz"
PROBE_Z = 0.16


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0], [-s, 0.0, c, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _tz(d):
    T = np.eye(4)
    T[2, 3] = d
    return T


def chain_oracle(q, tool_z=PROBE_Z):
    T = np.eye(4)
    for off, ax, a in zip(OFFSETS, AXES, q):
        T = T @ _tz(off) @ (_rz(a) if ax == "z" else _ry(a))
    return T @ _tz(tool_z)


def oracle_joint_frames(q):
    """Per-joint world rotation, origin and axis from the matrix chain."""
    T = np.eye(4)
    Rs, ps, zs = [], [], []
    for off, ax, a in zip(OFFSETS, AXES, q):
        T = T @ _tz(off) @ (_rz(a) if ax == "z" else _ry(a))
        Rs.append(T[:3, :3].copy())
        ps.append(T[:3, 3].copy())
        axis = np.array([0.0, 0.0, 1.0]) if ax == "z" else np.array([0.0, 1.0, 0.0])
        zs.append(T[:3, :3] @ axis)  # axis invariant under its own rotation
    return np.array(Rs), np.array(ps), np.array(zs)


def joint_frames(model, q):
    """World rotation (7,3,3), origin (7,3) and axis (7,3) of every joint
    frame after its own rotation, from the package's chain."""
    T, z = _chain(model, np.asarray(q, dtype=float))
    return T[1:, :3, :3], T[1:, :3, 3], z


def pose_matrix(pose):
    """4x4 homogeneous matrix of a Pose."""
    T = np.eye(4)
    T[:3, :3] = pose.rotation
    T[:3, 3] = pose.translation
    return T


def random_q(rng, margin=0.85):
    hi = np.array([j.position_limits[1] for j in MODEL.joints])
    return (rng.uniform(-1.0, 1.0, 7) * margin) * hi


# frozen from chain_oracle([0.3, -0.5, 0.7, 1.1, -0.4, 0.6, -0.2])
FROZEN_Q = np.array([0.3, -0.5, 0.7, 1.1, -0.4, 0.6, -0.2])
FROZEN_T = np.array(
    [
        [0.683204380436546, -0.3380666492619148, 0.6472578429104872, 0.0722725534310841],
        [-0.3156911951768359, 0.6625247839223606, 0.6792642931705231, 0.30559954750262636],
        [-0.6584609660717454, -0.6684099425842279, 0.34591516996861094, 0.7992552956085771],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def test_frozen_pose():
    T = pose_matrix(arm_snapshot(MODEL, FROZEN_Q).probe)
    assert np.max(np.abs(T - FROZEN_T)) < 1e-12


def test_home_pose_matches_model_file():
    pose = arm_snapshot(MODEL, np.zeros(7)).probe
    assert MODEL.home_probe_pose is not None
    assert np.max(np.abs(pose.translation - MODEL.home_probe_pose.translation)) < 1e-12
    assert np.max(np.abs(pose.rotation - MODEL.home_probe_pose.rotation)) < 1e-12


def test_joint1_half_turn():
    q = np.zeros(7)
    q[0] = np.pi * 0.9  # stay inside the +-2.967 limit? pi*0.9 = 2.827, yes
    pose = arm_snapshot(MODEL, q).probe
    T = chain_oracle(q)
    assert np.max(np.abs(pose_matrix(pose) - T)) < 1e-12
    # rotation purely about base z, translation unchanged on the axis
    assert np.max(np.abs(pose.translation - np.array([0.0, 0.0, 1.07]))) < 1e-12


def test_fk_matches_chain_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = random_q(rng)
        T = pose_matrix(arm_snapshot(MODEL, q).probe)
        assert np.max(np.abs(T - chain_oracle(q, PROBE_Z))) < 1e-12
        flange = _chain(MODEL, q)[0][7]
        assert np.max(np.abs(flange - chain_oracle(q, 0.0))) < 1e-12


def test_fk_repeatable_bitwise():
    q = FROZEN_Q
    a = arm_snapshot(MODEL, q)
    b = arm_snapshot(MODEL, q)
    for x, y in ((a.R_probe, b.R_probe), (a.tip, b.tip), (a.jacobian, b.jacobian), (a.mass, b.mass)):
        assert np.array_equal(x, y)
    assert np.array_equal(a.probe.rotation, b.probe.rotation)


def test_limit_violation_reports_index():
    q = np.zeros(7)
    q[3] = 2.5  # above the 2.094 pitch limit
    with pytest.raises(JointLimitError) as exc:
        arm_snapshot(MODEL, q)
    assert exc.value.joint_index == 3


def fd_jacobian(chain, q, h=1e-6):
    """Central-difference 6x7 Jacobian of the end frame of a 4x4 chain."""
    R0 = chain(q)[:3, :3]
    J = np.zeros((6, 7))
    for i in range(7):
        dq = np.zeros(7)
        dq[i] = h
        Tp, Tm = chain(q + dq), chain(q - dq)
        J[:3, i] = (Tp[:3, 3] - Tm[:3, 3]) / (2.0 * h)
        W = (Tp[:3, :3] - Tm[:3, :3]) / (2.0 * h) @ R0.T
        J[3:, i] = [W[2, 1], W[0, 2], W[1, 0]]
    return J


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        q = random_q(rng)
        J = arm_snapshot(MODEL, q).jacobian
        fd = fd_jacobian(lambda x: pose_matrix(arm_snapshot(MODEL, x).probe), q)
        assert np.max(np.abs(J - fd)) < 1e-5


def test_jacobian_zero_linear_when_axis_hits_probe():
    # at home every roll joint's axis is the base z line, which passes
    # through the probe point
    J = arm_snapshot(MODEL, np.zeros(7)).jacobian
    for col in (0, 2, 4, 6):
        assert np.max(np.abs(J[:3, col])) < 1e-15


def test_jacobian_angular_columns_unit():
    rng = np.random.default_rng(3)
    for _ in range(50):
        J = arm_snapshot(MODEL, random_q(rng)).jacobian
        norms = np.linalg.norm(J[3:, :], axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_twist_matches_pose_differencing():
    rng = np.random.default_rng(13)
    dt = 1e-6
    for _ in range(60):
        q = random_q(rng)
        qd = rng.uniform(-1.0, 1.0, 7)
        snap = arm_snapshot(MODEL, q)
        tw = snap.jacobian @ qd
        p0 = snap.probe
        p1 = arm_snapshot(MODEL, q + dt * qd).probe
        v = (p1.translation - p0.translation) / dt
        W = (p1.rotation - p0.rotation) / dt @ p0.rotation.T
        w = np.array([W[2, 1], W[0, 2], W[1, 0]])
        assert np.max(np.abs(tw[:3] - v)) < 1e-5
        assert np.max(np.abs(tw[3:] - w)) < 1e-5


def point_jacobian_mass(Rs, ps, zs, links):
    """M = sum_i Jv_i^T m_i Jv_i + Jw_i^T I_i Jw_i over the links' centres
    of mass, from per-joint world frames and axes."""
    M = np.zeros((7, 7))
    for i, link in enumerate(links):
        c = ps[i] + Rs[i] @ link.com
        Iw = Rs[i] @ link.inertia @ Rs[i].T
        Jv = np.zeros((3, 7))
        Jw = np.zeros((3, 7))
        for k in range(i + 1):
            Jv[:, k] = np.cross(zs[k], c - ps[k])
            Jw[:, k] = zs[k]
        M += Jv.T @ (link.mass * Jv) + Jw.T @ Iw @ Jw
    return M


def mass_oracle(q):
    return point_jacobian_mass(*oracle_joint_frames(q), MODEL.link_inertias)


def test_mass_matrix_matches_point_jacobian_oracle():
    rng = np.random.default_rng(17)
    for _ in range(80):
        q = random_q(rng)
        M = arm_snapshot(MODEL, q).mass
        assert np.max(np.abs(M - mass_oracle(q))) < 1e-12


def test_mass_matrix_spd():
    rng = np.random.default_rng(19)
    for _ in range(40):
        M = arm_snapshot(MODEL, random_q(rng)).mass
        assert np.max(np.abs(M - M.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(M)) > 0.0


def test_joint_frames_axes_match_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = random_q(rng)
        R, p, z = joint_frames(MODEL, q)
        Ro, po, zo = oracle_joint_frames(q)
        assert np.max(np.abs(R - Ro)) < 1e-12
        assert np.max(np.abs(p - po)) < 1e-12
        assert np.max(np.abs(z - zo)) < 1e-12


def test_model_roundtrip(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    loaded = load_arm_model(path)
    for a, b in zip(MODEL.joints, loaded.joints):
        assert np.array_equal(a.axis, b.axis)
        assert np.array_equal(a.origin.translation, b.origin.translation)
        assert np.array_equal(a.origin.rotation, b.origin.rotation)
        assert a.position_limits == b.position_limits
        assert a.velocity_limit == b.velocity_limit
    for a, b in zip(MODEL.link_inertias, loaded.link_inertias):
        assert a.mass == b.mass
        assert np.array_equal(a.com, b.com)
        assert np.array_equal(a.inertia, b.inertia)
    assert np.array_equal(MODEL.probe_offset.translation, loaded.probe_offset.translation)
    assert np.array_equal(MODEL.camera_offset.translation, loaded.camera_offset.translation)


def test_general_model_roundtrip(tmp_path):
    """A model file written from rotation matrices reads back within
    rounding of the quaternion round trip."""
    path = tmp_path / "arm.yaml"
    save_arm_model(GENERAL_MODEL, path)
    loaded = load_arm_model(path)
    pairs = [(a.origin, b.origin) for a, b in zip(GENERAL_MODEL.joints, loaded.joints)]
    for a, b in pairs + [(GENERAL_MODEL.probe_offset, loaded.probe_offset)]:
        assert np.max(np.abs(a.rotation - b.rotation)) < 1e-15
        assert np.array_equal(a.translation, b.translation)


@pytest.mark.parametrize("rotation", [
    [10.0, 10.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 2e-3],  # norm 1 + 2e-6
    [float("nan"), 0.0, 0.0, 0.0],
    [1.0, float("inf"), 0.0, 0.0],
], ids=["large", "off-unit", "nan", "inf"])
def test_model_quaternion_must_be_unit(tmp_path, rotation):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    doc = yaml.safe_load(path.read_text())
    doc["joints"][2]["origin"]["rotation"] = rotation
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(SchemaError, match=r"arm\.yaml\.joints\[2\]\.origin\.rotation: quaternion norm"):
        load_arm_model(path)


def test_model_quaternion_near_unit_is_renormalised(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    doc = yaml.safe_load(path.read_text())
    doc["probe_offset"]["rotation"] = [0.0, 0.6 * (1.0 + 9e-7), 0.8 * (1.0 + 9e-7), 0.0]
    path.write_text(yaml.safe_dump(doc))
    R = load_arm_model(path).probe_offset.rotation
    want = np.array([[-0.28, 0.96, 0.0], [0.96, 0.28, 0.0], [0.0, 0.0, -1.0]])
    assert np.max(np.abs(R - want)) < 1e-15


def test_model_translation_must_be_finite(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    doc = yaml.safe_load(path.read_text())
    doc["camera_offset"]["translation"] = [0.0, float("nan"), 0.0]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(SchemaError, match=r"arm\.yaml\.camera_offset: pose translation must be finite"):
        load_arm_model(path)


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    text = path.read_text()
    path.write_text(text + "\nextra_field: 1\n")
    with pytest.raises(SchemaError, match="extra_field"):
        load_arm_model(path)


def test_malformed_yaml_is_a_schema_error(tmp_path):
    path = tmp_path / "arm.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(SchemaError, match="arm.yaml: malformed YAML"):
        load_arm_model(path)


def test_reference_arm_is_parsed_once():
    assert reference_arm() is reference_arm() is MODEL


@pytest.mark.parametrize(
    "array",
    [
        lambda m: m.joints[0].axis,
        lambda m: m.joints[3].origin.translation,
        lambda m: m.joints[3].origin.rotation,
        lambda m: m.link_inertias[2].com,
        lambda m: m.link_inertias[2].inertia,
        lambda m: m.probe_offset.translation,
        lambda m: m.camera_offset.rotation,
        lambda m: m.home_probe_pose.translation,
    ],
    ids=["axis", "origin.translation", "origin.rotation", "com", "inertia",
         "probe_offset.translation", "camera_offset.rotation", "home_probe_pose.translation"],
)
def test_shared_model_arrays_are_read_only(array):
    with pytest.raises(ValueError, match="read-only"):
        array(reference_arm())[0] = 1.0


def test_shared_sweep_constants_are_read_only():
    arm_snapshot(MODEL, np.zeros(7))
    blocks, axes, *_, probe_offset, moments = MODEL._joint_constants
    for a in (blocks, axes, moments, *probe_offset):
        assert not a.flags.writeable


def test_value_types_copy_the_callers_arrays():
    axis, com, inertia = np.array([0.0, 0.0, 1.0]), np.zeros(3), np.eye(3) * 1e-3
    origin = (np.eye(3), np.array([0.0, 0.0, 0.1]))
    joint = JointSpec("j", axis, Pose(*origin), (-1.0, 1.0), 1.0)
    link = LinkInertia(1.0, com, inertia)
    for mine in (axis, com, inertia, *origin):
        assert mine.flags.writeable
        mine[0] = 0.5  # the built values keep what they were given
    assert joint.axis.tolist() == [0.0, 0.0, 1.0]
    assert joint.origin.rotation.tolist() == np.eye(3).tolist()
    assert link.com.tolist() == [0.0, 0.0, 0.0] and link.inertia[0, 0] == 1e-3


def test_load_arm_model_reads_the_file_each_call(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    assert load_arm_model(path).joints[0].velocity_limit == MODEL.joints[0].velocity_limit
    joints = (dataclasses.replace(MODEL.joints[0], velocity_limit=0.25), *MODEL.joints[1:])
    save_arm_model(dataclasses.replace(MODEL, joints=joints), path)
    assert load_arm_model(path).joints[0].velocity_limit == 0.25
    assert reference_arm().joints[0].velocity_limit == MODEL.joints[0].velocity_limit


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    path.write_text(path.read_text().replace("model_version: 1", "model_version: 2"))
    with pytest.raises(SchemaError, match="model_version"):
        load_arm_model(path)


@pytest.mark.parametrize("edit, node, text", [
    (lambda doc: doc["link_inertias"][2].update(mass=-1.0), "link_inertias[2]",
     "link mass must be positive, got -1.0"),
    (lambda doc: doc.update(joints=doc["joints"][:6]), "", "model must have exactly 7 joints, got 6"),
    (lambda doc: doc["joints"][1].update(axis=[0.0, 0.0, 2.0]), "joints[1]",
     "axis must be a finite unit vector"),
    (lambda doc: doc["joints"][1].update(position_limits=[1.0, -1.0]), "joints[1]",
     "position_limits must be finite and lo < hi"),
    (lambda doc: doc["joints"][0].update(name=[1, 2]), "joints[0].name", "expected a string, got [1, 2]"),
    (lambda doc: doc.update(name=[1, 2]), "name", "expected a string, got [1, 2]"),
    (lambda doc: doc.update(notes=3), "notes", "expected a string, got 3"),
    (lambda doc: doc.update(model_version=1.0), "model_version", "expected an integer, got 1.0"),
    (lambda doc: doc.update(model_version=True), "model_version", "expected an integer, got True"),
    (lambda doc: doc.update(model_version=2), "model_version", "must be 1, got 2"),
    (lambda doc: doc["link_inertias"][1].pop("com"), "link_inertias[1]", "missing required key 'com'"),
    (lambda doc: doc.pop("probe_offset"), "", "missing required key 'probe_offset'"),
    (lambda doc: doc.update(joints={"name": "j"}), "joints", "expected a non-empty list of mappings"),
], ids=["mass", "six-joints", "axis", "limits", "joint-name", "name", "notes", "version-float",
        "version-bool", "version-2", "no-com", "no-probe-offset", "joints-mapping"])
def test_model_errors_name_the_file_and_the_node(tmp_path, edit, node, text):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    doc = yaml.safe_load(path.read_text())
    edit(doc)
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(SchemaError) as err:
        load_arm_model(path)
    where = f"{path}.{node}" if node else str(path)
    assert str(err.value).startswith(f"{where}: ") or str(err.value).startswith(f"{where} must")
    assert text in str(err.value)


@pytest.mark.parametrize("home", ["null", None], ids=["null", "absent"])
def test_home_probe_pose_may_be_null_or_absent(tmp_path, home):
    path = tmp_path / "arm.yaml"
    save_arm_model(dataclasses.replace(MODEL, home_probe_pose=None), path)
    if home is not None:
        path.write_text(path.read_text() + f"home_probe_pose: {home}\n")
    assert load_arm_model(path).home_probe_pose is None


def _written(default) -> str:
    """A row's default as the README's model table writes it."""
    if default is REQUIRED:
        return "required"
    return "none" if default is None else f"`{default}`" if default else '`""`'


def test_readme_table_lists_every_model_key():
    text = README.read_text()
    table = text[text.index("## Arm model file"):].partition("\n## ")[0]
    rows = {line.split("|")[1].strip(): line.split("|")[2:] for line in table.splitlines()
            if line.startswith("| `")}
    declared = [(prefix + key.name, key) for prefix, keys in (
        ("", MODEL_ROWS), ("joints[].", JOINT_ROWS), ("link_inertias[].", LINK_ROWS),
        ("<pose>.", POSE_ROWS)) for key in keys]
    assert sorted(rows) == sorted(f"`{name}`" for name, _ in declared)
    for name, key in declared:
        default, checked = (cell.strip() for cell in rows[f"`{name}`"][:2])
        assert default == _written(key.default), name
        assert checked, name


def test_model_validation():
    with pytest.raises(ValueError, match="7 joints"):
        ArmModel(
            joints=MODEL.joints[:6],
            link_inertias=MODEL.link_inertias[:6],
            probe_offset=MODEL.probe_offset,
            camera_offset=MODEL.camera_offset,
        )
    with pytest.raises(ValueError, match="positive"):
        LinkInertia(mass=-1.0, com=np.zeros(3), inertia=np.eye(3) * 1e-3)
    with pytest.raises(ValueError, match="positive-definite"):
        LinkInertia(mass=1.0, com=np.zeros(3), inertia=np.diag([1e-3, 1e-3, -1e-4]))
    with pytest.raises(ValueError, match="unit"):
        JointSpec(
            name="j",
            axis=np.array([0.0, 0.0, 2.0]),
            origin=Pose(),
            position_limits=(-1.0, 1.0),
            velocity_limit=1.0,
        )


@st.composite
def joint_box(draw, model=MODEL):
    """q anywhere in a model's position limits, endpoints included."""
    return np.array([
        draw(st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi)))
        for lo, hi in (j.position_limits for j in model.joints)
    ])


@settings(max_examples=200, deadline=None)
@given(joint_box())
def test_arm_snapshot_is_the_separate_sweeps(q):
    """The snapshot's mass matrix has the same bits as a separate sweep
    taken at the flange origin (the point moves only the Jacobian), and it
    is exactly symmetric and positive definite."""
    snap = arm_snapshot(MODEL, q)
    T, z = _chain(MODEL, q)
    assert np.array_equal(snap.mass, _sweep(MODEL, T, z, T[7, :3, 3])[1])
    assert np.array_equal(snap.mass, snap.mass.T)
    np.linalg.cholesky(snap.mass)  # raises LinAlgError unless positive definite


# R_probe is a product of fifteen rotation matrices; over 200k draws from
# the joint box its orthonormality error peaked at 1.44e-15 (6-7 ulps of 1).
ORTHONORMAL_BOUND = 2e-15


@settings(max_examples=200, deadline=None)
@given(joint_box())
def test_arm_snapshot_probe_frame(q):
    """The snapshot's tip is the point the Jacobian is taken at, bit for
    bit, and its rotation matrix is orthonormal and, bit for bit, the
    checked probe pose's rotation."""
    snap = arm_snapshot(MODEL, q)
    _, p, z = joint_frames(MODEL, q)
    J_at_tip = np.vstack([np.cross(z, snap.tip - p).T, z.T])
    assert np.array_equal(snap.jacobian, J_at_tip)
    R = snap.R_probe
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= ORTHONORMAL_BOUND
    assert np.array_equal(snap.probe.rotation, R)


@pytest.mark.parametrize("section, index, key, value", [
    ("link_inertias", 2, "mass", float("nan")),
    ("link_inertias", 1, "com", [0.0, float("inf"), 0.1]),
    ("link_inertias", 0, "inertia", [[float("nan"), 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]]),
    ("joints", 3, "axis", [float("nan"), 1.0, 0.0]),
    ("joints", 4, "velocity_limit", float("nan")),
    ("joints", 0, "position_limits", [float("-inf"), 1.0]),
])
def test_non_finite_model_value_rejected(tmp_path, section, index, key, value):
    path = tmp_path / "arm.yaml"
    save_arm_model(MODEL, path)
    doc = yaml.safe_load(path.read_text())
    doc[section][index][key] = value
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=key):
        load_arm_model(path)


@settings(max_examples=100, deadline=None)
@given(joint_box())
def test_sweep_matches_oracles_over_joint_box(q):
    R, p, z = joint_frames(MODEL, q)
    for got, want in zip((R, p, z), oracle_joint_frames(q)):
        assert np.max(np.abs(got - want)) < 1e-12
    snap = arm_snapshot(MODEL, q)
    assert np.max(np.abs(snap.mass - mass_oracle(q))) < 1e-12
    assert np.max(np.abs(snap.jacobian - fd_jacobian(chain_oracle, q))) < 1e-5


# A second model with nothing aligned: rotated joint origins, tilted axes,
# a rotated probe offset, off-axis centres of mass and full inertia
# tensors. On the reference arm every origin rotation is the identity and
# every centre of mass sits on the joint axis, so a transform composed in
# the wrong order would still pass there.

def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _rot(axis, angle):
    """Rodrigues' rotation about a unit axis."""
    a = _unit(axis)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _homog(R, t=(0.0, 0.0, 0.0)):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def _pose(axis, angle, t):
    """Pose whose rotation is the quaternion of (axis, angle)."""
    return pose_from_quat(np.array([np.cos(angle / 2.0), *(np.sin(angle / 2.0) * _unit(axis))]), t)


_rng = np.random.default_rng(2024)
GENERAL = [
    {
        "axis": _unit(_rng.normal(size=3)),
        "origin": (_rng.normal(size=3), _rng.uniform(-2.0, 2.0), _rng.uniform(-0.15, 0.15, 3)),
        "link": LinkInertia(
            mass=_rng.uniform(0.5, 4.0),
            com=_rng.uniform(-0.08, 0.08, 3),
            inertia=(lambda Q, e: Q @ np.diag(e) @ Q.T)(
                _rot(_rng.normal(size=3), _rng.uniform(0.0, np.pi)), _rng.uniform(0.01, 0.02, 3)),
        ),
    }
    for _ in range(7)
]
GENERAL_PROBE = (_rng.normal(size=3), 0.7, np.array([0.03, -0.02, 0.15]))
GENERAL_MODEL = ArmModel(
    joints=tuple(
        JointSpec(name=f"g{i}", axis=g["axis"], origin=_pose(*g["origin"]),
                  position_limits=(-2.5, 2.5), velocity_limit=2.0)
        for i, g in enumerate(GENERAL)
    ),
    link_inertias=tuple(g["link"] for g in GENERAL),
    probe_offset=_pose(*GENERAL_PROBE),
    camera_offset=Pose(),
)


def general_frames(q):
    """Per-joint world rotation, origin and axis from an explicit 4x4 chain."""
    T = np.eye(4)
    Rs, ps, zs = [], [], []
    for g, a in zip(GENERAL, q):
        axis, angle, t = g["origin"]
        T = T @ _homog(_rot(axis, angle), t) @ _homog(_rot(g["axis"], a))
        Rs.append(T[:3, :3].copy())
        ps.append(T[:3, 3].copy())
        zs.append(T[:3, :3] @ g["axis"])
    return np.array(Rs), np.array(ps), np.array(zs)


def general_chain(q):
    Rs, ps, _ = general_frames(q)
    axis, angle, t = GENERAL_PROBE
    return _homog(Rs[-1], ps[-1]) @ _homog(_rot(axis, angle), t)


@settings(max_examples=100, deadline=None)
@given(joint_box(GENERAL_MODEL))
def test_general_model_matches_oracles(q):
    R, p, z = joint_frames(GENERAL_MODEL, q)
    Rs, ps, zs = general_frames(q)
    for got, want in ((R, Rs), (p, ps), (z, zs)):
        assert np.max(np.abs(got - want)) < 1e-12
    snap = arm_snapshot(GENERAL_MODEL, q)
    assert np.max(np.abs(pose_matrix(snap.probe) - general_chain(q))) < 1e-12
    M = snap.mass
    assert np.max(np.abs(M - point_jacobian_mass(Rs, ps, zs, GENERAL_MODEL.link_inertias))) < 1e-12
    assert np.max(np.abs(snap.jacobian - fd_jacobian(general_chain, q))) < 1e-5
    assert np.array_equal(M, M.T)
    np.linalg.cholesky(snap.mass)
