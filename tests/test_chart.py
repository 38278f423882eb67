"""Surface-coordinate tests.

The flat chart under the arm's home probe position is the exactness
oracle: there the coordinate map is closed-form (s = xy offset, d =
height, frame = plane frame), so finite differences of the full
task_coordinates pipeline must match the task Jacobian tightly. The
orientation-error rate map gets its own quaternion-differencing oracle.
`SurfaceChart.evaluate_probe` computes in plain floats; the numpy
formulas in chart_oracle.py check it to 1e-14 on a flat, a tilted and a
cap chart.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfscan.arm import _chain, arm_snapshot, reference_arm
from surfscan.chart import ChartBoundaryError, DegenerateFrameError, SurfaceChart
from surfscan.geometry import Pose, quat_to_matrix
from surfscan.localization import ScenePlane
from surfscan.mesh import TriMesh, grid_surface_mesh
from surfscan.sim import cap_phantom_mesh

from chart_oracle import (
    SurfaceFrame,
    chart_coords,
    closest_point,
    contains,
    embed,
    eps_rate_map,
    frame_rotation,
    orientation_error,
)
from chart_oracle import evaluate_probe as oracle_evaluate_probe
from helpers import plane_embed, pose_from_quat, quat_from_axis_angle, quat_from_matrix

MODEL = reference_arm()
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def flat_chart(z=1.0, extent=0.2, n=11):
    xs = np.linspace(-extent / 2, extent / 2, n)
    mesh = grid_surface_mesh(np.array([0.0, 0.0, z]), EX, EY, EZ, xs, xs, np.zeros((n, n)))
    return SurfaceChart(mesh, ScenePlane(np.array([0.0, 0.0, z]), EZ))


def dome_chart(z=1.0, extent=0.24, n=49, a=1.5):
    # gentle paraboloid bump, a height field so the chart is a bijection
    xs = np.linspace(-extent / 2, extent / 2, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h = 0.03 - a * (X**2 + Y**2)
    h = np.maximum(h, 0.0)
    mesh = grid_surface_mesh(np.array([0.0, 0.0, z]), EX, EY, EZ, xs, xs, h)
    return SurfaceChart(mesh, ScenePlane(np.array([0.0, 0.0, z]), EZ))


FLAT = flat_chart()
DOME = dome_chart()


def task_coordinates(chart, probe_pose) -> np.ndarray:
    """rho of a probe pose through the chart's checked closest_point."""
    point, dist, frame = closest_point(chart, probe_pose.translation)
    _, eps = orientation_error(probe_pose.rotation, frame)
    return np.array([float(point.s[0]), float(point.s[1]), dist, *eps.tolist()])


def task_jacobian(chart, model, q):
    """6x7 J with rhodot = J @ qdot from one kinematics sweep; exact on flat charts."""
    snap = arm_snapshot(model, q)
    return chart.evaluate_probe(snap.R_probe, snap.tip, snap.jacobian, np.zeros(7))[2]


def coordinate_map(frame: SurfaceFrame, eta: float, eps: np.ndarray) -> np.ndarray:
    """T with rhodot = T @ (v, omega) of the probe, frame held frozen."""
    T = np.zeros((6, 6))
    T[0, :3] = frame.t1
    T[1, :3] = frame.t2
    T[2, :3] = frame.n
    T[3:, 3:] = eps_rate_map(eta, eps)
    return T


def test_aligned_probe_above_flat():
    pose = Pose(np.eye(3), np.array([0.03, -0.04, 1.02]))
    rho = task_coordinates(FLAT, pose)
    assert np.max(np.abs(rho - np.array([0.03, -0.04, 0.02, 0, 0, 0]))) < 1e-12


def test_penetration_is_negative():
    pose = Pose(np.eye(3), np.array([0.0, 0.0, 0.997]))
    rho = task_coordinates(FLAT, pose)
    assert abs(rho[2] + 0.003) < 1e-12


def test_tilt_90_degrees():
    q = quat_from_axis_angle(EX, math.pi / 2)  # tilt about t1
    pose = pose_from_quat(q, np.array([0.0, 0.0, 1.05]))
    rho = task_coordinates(FLAT, pose)
    assert abs(np.linalg.norm(rho[3:]) - math.sin(math.pi / 4)) < 1e-12


def test_eps_zero_only_when_aligned():
    rng = np.random.default_rng(0)
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.1, 2.5)
        pose = pose_from_quat(quat_from_axis_angle(axis, angle), np.array([0.0, 0.0, 1.03]))
        rho = task_coordinates(FLAT, pose)
        assert np.linalg.norm(rho[3:]) > 1e-3


def test_eps_reapplication():
    # rotating the probe by the error quaternion lands it on the frame
    rng = np.random.default_rng(1)
    for _ in range(100):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, 2.6)
        q = quat_from_axis_angle(axis, angle)
        pose = pose_from_quat(q, np.array([0.02, 0.01, 1.04]))
        _, _, frame = closest_point(FLAT, pose.translation)
        eta, eps = orientation_error(pose.rotation, frame)
        err_q = np.concatenate([[eta], eps])
        fixed = Pose(quat_to_matrix(err_q) @ pose.rotation, pose.translation)
        assert np.linalg.norm(task_coordinates(FLAT, fixed)[3:]) < 1e-9


def test_eps_rate_map_against_quaternion_differencing():
    rng = np.random.default_rng(2)
    dt = 1e-7
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        R = quat_to_matrix(q)
        frame_R = np.eye(3)
        # error rotation for probe R against the identity frame
        eq = quat_from_matrix(frame_R @ R.T)
        if eq[0] < 0.1:
            continue  # stay off the eta = 0 canonicalisation kink
        w = rng.normal(size=3)
        Rp = quat_to_matrix(quat_from_axis_angle(w, np.linalg.norm(w) * dt)) @ R
        eq2 = quat_from_matrix(frame_R @ Rp.T)
        fd = (eq2[1:] - eq[1:]) / dt
        analytic = eps_rate_map(eq[0], eq[1:]) @ (w / np.linalg.norm(w) * np.linalg.norm(w))
        assert np.max(np.abs(fd - analytic)) < 1e-5


def probe_over_chart_states(rng, n, spread=0.06):
    """Joint states whose probe stays over the flat chart."""
    out = []
    while len(out) < n:
        q = rng.uniform(-spread, spread, 7)
        pos = arm_snapshot(MODEL, q).probe.translation
        s = chart_coords(FLAT, pos)
        if contains(FLAT, s) and pos[2] > 1.001:
            out.append(q)
    return out


def test_task_jacobian_matches_finite_difference():
    rng = np.random.default_rng(3)
    dt = 1e-6
    for q in probe_over_chart_states(rng, 150):
        qd = rng.uniform(-1.0, 1.0, 7)
        J = task_jacobian(FLAT, MODEL, q)
        rho0 = task_coordinates(FLAT, arm_snapshot(MODEL, q).probe)
        rho1 = task_coordinates(FLAT, arm_snapshot(MODEL, q + dt * qd).probe)
        fd = (rho1 - rho0) / dt
        assert np.max(np.abs(J @ qd - fd)) < 1e-4


def test_task_jacobian_d_row_is_normal_projection():
    rng = np.random.default_rng(4)
    for q in probe_over_chart_states(rng, 20):
        J_rho = task_jacobian(FLAT, MODEL, q)
        J_geom = arm_snapshot(MODEL, q).jacobian
        assert np.max(np.abs(J_rho[2] - EZ @ J_geom[:3])) < 1e-12


def test_task_jacobian_nullspace():
    rng = np.random.default_rng(5)
    for q in probe_over_chart_states(rng, 20):
        J = task_jacobian(FLAT, MODEL, q)
        _, s, vt = np.linalg.svd(J)
        null = vt[-1]
        assert np.max(np.abs(J @ null)) < 1e-9
        # and the full pipeline barely moves along it
        dt = 1e-6
        pose0 = arm_snapshot(MODEL, q).probe
        pose1 = arm_snapshot(MODEL, q + dt * null).probe
        drho = task_coordinates(FLAT, pose1) - task_coordinates(FLAT, pose0)
        assert np.max(np.abs(drho / dt)) < 1e-4


def evaluate_oracle(chart, model, q, qdot):
    """(rho, rhodot, J_rho, frame) from the snapshot's checked probe pose
    and Jacobian, the chart's closest_point, each with its own checks,
    and the probe rotation matrix of the joint chain (flange times
    offset).

    The rotation is built by the same expression as arm_snapshot's, so the
    check of the orientation rows is not independent of the code;
    test_fk_matches_chain_oracle and test_frozen_pose check the probe
    rotation against independent oracles to 1e-12."""
    snap = arm_snapshot(model, q)
    R_probe = _chain(model, q)[0][7, :3, :3] @ model.probe_offset.rotation
    point, dist, frame = closest_point(chart, snap.probe.translation)
    eta, eps = orientation_error(R_probe, frame)
    rho = np.array([float(point.s[0]), float(point.s[1]), dist, *eps.tolist()])
    J = coordinate_map(frame, eta, eps) @ snap.jacobian
    return rho, J @ qdot, J, frame


def test_evaluate_bundle_consistent():
    rng = np.random.default_rng(6)
    for chart in (FLAT, DOME):
        for q in probe_over_chart_states(rng, 10):
            qd = rng.uniform(-0.5, 0.5, 7)
            snap = arm_snapshot(MODEL, q)
            rho, rhodot, J, n, face = chart.evaluate_probe(snap.R_probe, snap.tip, snap.jacobian, qd)
            assert np.max(np.abs(rho - task_coordinates(chart, snap.probe))) < 1e-12
            assert np.max(np.abs(J - task_jacobian(chart, MODEL, q))) < 1e-12
            assert np.max(np.abs(rhodot - J @ qd)) < 1e-12
            # the float pass equals the numpy formulas, each with its own
            # checks, to the last few ulps (the fused dot kernels round once
            # per product-sum, the float sums twice)
            o_rho, o_rhodot, o_J, o_frame = evaluate_oracle(chart, MODEL, q, qd)
            assert np.max(np.abs(rho - o_rho)) <= 1e-14
            assert np.max(np.abs(rhodot - o_rhodot)) <= 1e-14 and np.max(np.abs(J - o_J)) <= 1e-14
            assert face == o_frame.face and np.max(np.abs(n - o_frame.n)) <= 1e-14
            # a hint changes nothing
            hinted = chart.evaluate_probe(snap.R_probe, snap.tip, snap.jacobian, qd, (face + 7) % 50)
            assert np.array_equal(hinted[0], rho) and np.array_equal(hinted[2], J)


def test_evaluate_probe_checks_the_chart_boundary():
    q = np.zeros(7)
    snap = arm_snapshot(MODEL, q)
    far = snap.tip + np.array([1.0, 0.0, 0.0])
    with pytest.raises(ChartBoundaryError):
        FLAT.evaluate_probe(snap.R_probe, far, snap.jacobian, np.zeros(7))


def tilted_chart(n=21, extent=0.2):
    """A gently bumped sheet over a plane whose normal is not +z, so every
    frame axis and the chart's u axis have three non-zero components."""
    normal = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
    plane = ScenePlane(np.array([0.1, -0.05, 0.9]), normal)
    u, v, nn = plane.frame()
    xs = np.linspace(-extent / 2, extent / 2, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h = 0.01 * np.exp(-(X**2 + Y**2) / 0.002)
    return SurfaceChart(grid_surface_mesh(plane.centre, u, v, nn, xs, xs, h), plane)


def cap_chart():
    base = np.array([0.0, 0.0, 0.8])
    return SurfaceChart(cap_phantom_mesh(base, n=31), ScenePlane(base, EZ))


TILTED = tilted_chart()
CAP = cap_chart()
PROPERTY_CHARTS = {"flat": FLAT, "tilted": TILTED, "cap": CAP}


@st.composite
def probe_queries(draw):
    """(chart, R_probe, tip, probe_jacobian, qdot): a random probe rotation
    and a tip inside the chart domain, from 1 cm below the plane to
    5 cm above the mesh's top."""
    chart = PROPERTY_CHARTS[draw(st.sampled_from(sorted(PROPERTY_CHARTS)))]
    unit = st.floats(-1.0, 1.0)
    q = np.array(draw(st.tuples(unit, unit, unit, unit).filter(lambda q: np.dot(q, q) > 0.01)))
    R_probe = quat_to_matrix(q / np.linalg.norm(q))
    # off the domain's edge by more than the embedding's rounding
    inner = st.floats(0.001, 0.999)
    f = np.array(draw(st.tuples(inner, inner)))
    s = chart.s_min + f * (chart.s_max - chart.s_min)
    top = float(chart.plane.height_of(chart.mesh.vertices).max())
    height = draw(st.floats(-0.01, top + 0.05))
    tip = plane_embed(chart.plane, s + np.asarray(chart._s_origin), height=height)
    jac = draw(st.lists(unit, min_size=42, max_size=42))
    qdot = draw(st.lists(unit, min_size=7, max_size=7))
    return chart, R_probe, tip, np.array(jac).reshape(6, 7), np.array(qdot)


@settings(max_examples=300, deadline=None)
@given(probe_queries())
def test_evaluate_probe_matches_the_numpy_formulas(query):
    chart, R_probe, tip, jac, qdot = query
    o_rho, o_rhodot, o_J, o_frame, o_eta = oracle_evaluate_probe(chart, R_probe, tip, jac, qdot)
    # at eta = 0 the canonical sign flips eps whole, and one ulp of R_err decides it
    assume(o_eta > 1e-12)
    rho, rhodot, J, n, face = chart.evaluate_probe(R_probe, tip, jac, qdot)
    assert face == o_frame.face
    for got, want in ((rho, o_rho), (rhodot, o_rhodot), (J, o_J), (n, o_frame.n)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14


def test_evaluate_probe_boundary_error_carries_the_clamped_s():
    snap = arm_snapshot(MODEL, np.zeros(7))
    for chart in (FLAT, TILTED, CAP):
        for offset in ((1.0, 0.0, 0.0), (0.0, -0.4, 0.0), (-0.3, 0.5, 0.02)):
            tip = chart.anchor + np.array(offset)
            with pytest.raises(ChartBoundaryError) as exc:
                chart.evaluate_probe(snap.R_probe, tip, snap.jacobian, np.zeros(7))
            with pytest.raises(ChartBoundaryError) as want:
                oracle_evaluate_probe(chart, snap.R_probe, tip, snap.jacobian, np.zeros(7))
            assert str(exc.value) == str(want.value)
            assert np.max(np.abs(exc.value.s - want.value.s)) <= 1e-15
            assert np.array_equal(exc.value.clamped, np.clip(exc.value.s, chart.s_min, chart.s_max))
            assert not np.array_equal(exc.value.clamped, exc.value.s)


def trap_chart():
    """A level sheet with two traps above it: a vertical wall whose normal
    is the chart's u axis (+x), and a pillow of two opposite faces on the
    same three vertices, whose vertex normals cancel."""
    vertices = np.array([
        [-0.1, -0.1, 0.0], [0.1, -0.1, 0.0], [0.1, 0.1, 0.0], [-0.1, 0.1, 0.0],
        [0.05, -0.05, 0.01], [0.05, 0.05, 0.01], [0.05, 0.05, 0.1], [0.05, -0.05, 0.1],
        [-0.06, -0.02, 0.05], [-0.02, -0.02, 0.05], [-0.04, 0.02, 0.05],
    ])
    faces = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7], [8, 9, 10], [8, 10, 9]])
    return SurfaceChart(TriMesh(vertices, faces), ScenePlane(np.zeros(3), EZ))


def test_evaluate_probe_degenerate_frames():
    chart = trap_chart()
    snap = arm_snapshot(MODEL, np.zeros(7))
    for tip, face, message in (
        ((0.06, 0.0, 0.05), 2, "surface normal parallel to the chart axis on face 2"),
        ((-0.04, -0.005, 0.06), 4, "interpolated normal vanished on face 4"),
    ):
        tip = np.array(tip)
        assert chart.mesh.closest_point(tip).face == face
        with pytest.raises(DegenerateFrameError) as exc:
            chart.evaluate_probe(snap.R_probe, tip, snap.jacobian, np.zeros(7))
        with pytest.raises(DegenerateFrameError) as want:
            oracle_evaluate_probe(chart, snap.R_probe, tip, snap.jacobian, np.zeros(7))
        assert str(exc.value) == str(want.value) == message
    # the sheet itself is a proper chart
    rho = chart.evaluate_probe(snap.R_probe, np.array([0.0, -0.08, 0.02]), snap.jacobian, np.zeros(7))[0]
    assert abs(rho[2] - 0.02) < 1e-15


def test_embed_round_trip_curved():
    rng = np.random.default_rng(7)
    lo, hi = DOME.s_min * 0.95, DOME.s_max * 0.95
    for _ in range(1000):
        s = rng.uniform(lo, hi)
        point, frame = embed(DOME, s)
        back, dist, _ = closest_point(DOME, frame.point)
        assert np.max(np.abs(back.s - s)) < 1e-9
        assert abs(dist) < 1e-9


def test_frames_orthonormal_everywhere():
    rng = np.random.default_rng(8)
    for chart in (FLAT, DOME):
        lo, hi = chart.s_min * 0.98, chart.s_max * 0.98
        for _ in range(200):
            s = rng.uniform(lo, hi)
            _, frame = embed(chart, s)
            B = np.column_stack([frame.t1, frame.t2, frame.n])
            assert np.max(np.abs(B.T @ B - np.eye(3))) < 1e-10
            assert np.linalg.det(B) > 0.99999


def test_embed_height_invariant_flat():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s = rng.uniform(-0.09, 0.09, 2)
        h = rng.uniform(0.005, 0.1)
        _, frame = embed(FLAT, s)
        pose = Pose(frame_rotation(frame), frame.point + h * frame.n)
        rho = task_coordinates(FLAT, pose)
        assert np.max(np.abs(rho - np.array([s[0], s[1], h, 0, 0, 0]))) < 1e-9


def test_embed_height_approx_curved():
    # on a faceted curved mesh the smoothed normal is not the face
    # normal, so the round trip is only short-range exact
    rng = np.random.default_rng(10)
    for _ in range(50):
        s = rng.uniform(DOME.s_min * 0.5, DOME.s_max * 0.5)
        h = 0.01
        _, frame = embed(DOME, s)
        pose = Pose(frame_rotation(frame), frame.point + h * frame.n)
        rho = task_coordinates(DOME, pose)
        assert abs(rho[2] - h) < 5e-4
        assert np.max(np.abs(rho[:2] - s)) < 2e-3
        assert np.linalg.norm(rho[3:]) < 0.05


def test_anchor_is_origin():
    point, frame = embed(DOME, np.zeros(2))
    assert np.max(np.abs(frame.point - DOME.anchor)) < 1e-9


def test_boundary_errors():
    with pytest.raises(ChartBoundaryError) as exc:
        embed(FLAT, np.array([0.5, 0.0]))
    assert np.max(np.abs(exc.value.clamped - np.array([0.1, 0.0]))) < 1e-12
    pose = Pose(np.eye(3), np.array([5.0, 0.0, 1.05]))
    with pytest.raises(ChartBoundaryError):
        task_coordinates(FLAT, pose)


def test_orientation_error_canonical():
    rng = np.random.default_rng(11)
    _, frame = embed(FLAT, np.zeros(2))
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        eta, eps = orientation_error(quat_to_matrix(q), frame)
        assert eta >= 0.0
        assert np.linalg.norm(eps) <= 1.0 + 1e-12
