"""Closed-loop simulator tests: contact law, integrator, energy audit,
steady-state force, and the log file format."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from surfscan.arm import JointLimitError, JointVelocityError, arm_snapshot, reference_arm
from surfscan.chart import SurfaceChart
from surfscan.controller import (
    _MINOR_IDX,
    ContactProfile,
    ImpedanceGains,
    RasterPath,
    Setpoint,
    contact_setpoints,
)
from surfscan.geometry import Pose
from surfscan.localization import ScenePlane
from surfscan.mesh import grid_surface_mesh
from surfscan.sim import (
    CSV_HEADER,
    EXPORT_BLOCK,
    Checkpoint,
    DivergenceError,
    PhantomModel,
    ScanLog,
    cap_phantom_mesh,
    contact_force,
    export_log,
    flat_phantom_mesh,
    init_state,
    parse_log,
    simulate,
    steady_state_force,
    step,
)

from energy_oracle import audited_run

MODEL = reference_arm()

# bent scan posture: pitch offsets cancel so the probe axis points
# straight down and the elbow keeps the vertical direction controllable
Q_SCAN = np.array([0.0, 0.5, 0.0, -1.0, 0.0, 0.5, 0.0])
TIP = arm_snapshot(MODEL, Q_SCAN).probe.translation

UP = np.array([0.0, 0.0, 1.0])

# D_dd of 140 is near critical for K_dd = 500 against the measured
# vertical task inertia (about 9.9 kg) at the scan posture
GAINS = ImpedanceGains(
    np.diag([300.0, 300.0, 500.0, 5.0, 5.0, 1.0]),
    np.diag([35.0, 35.0, 140.0, 0.9, 0.9, 0.4]),
)


def flat_rig(d_start: float, k_t: float = 500.0, damping: float = 20.0, tip=None):
    """Flat phantom placed so the probe starts exactly d_start above it."""
    tip = TIP if tip is None else tip
    centre = tip - np.array([0.0, 0.0, d_start])
    mesh = flat_phantom_mesh(centre)
    chart = SurfaceChart(mesh, ScenePlane(centre, UP))
    phantom = PhantomModel(mesh, contact_stiffness=k_t, contact_damping=damping)
    return chart, phantom


def hold_setpoint(d_d: float) -> Setpoint:
    return Setpoint(rho_at(d_d), np.zeros(6))


# ---------------------------------------------------------------------------
# contact law
# ---------------------------------------------------------------------------


def rho_at(d: float) -> np.ndarray:
    return np.array([0.0, 0.0, d, 0.0, 0.0, 0.0])


def test_no_force_above_surface():
    _, phantom = flat_rig(0.01)
    assert contact_force(phantom, 0.01, 0.0) == 0.0
    # exactly on the surface counts as no contact too, even approaching
    assert contact_force(phantom, 0.0, -0.5) == 0.0


def test_penetration_force_matches_spring_law():
    _, phantom = flat_rig(0.01, k_t=500.0, damping=0.0)
    assert contact_force(phantom, -0.002, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_contact_damping_only_resists_approach():
    _, phantom = flat_rig(0.01, k_t=500.0, damping=50.0)
    # approaching
    assert contact_force(phantom, -0.002, -0.01) == pytest.approx(1.0 + 50.0 * 0.01, abs=1e-12)
    # separating: damping term drops out entirely
    assert contact_force(phantom, -0.002, 0.01) == pytest.approx(1.0, abs=1e-15)


def test_contact_force_never_adhesive():
    rng = np.random.default_rng(11)
    for _ in range(500):
        phantom = PhantomModel(
            flat_phantom_mesh(np.zeros(3)),
            contact_stiffness=float(rng.uniform(10.0, 5000.0)),
            contact_damping=float(rng.uniform(0.0, 200.0)),
        )
        d = float(rng.uniform(-0.01, 0.01))
        fn = contact_force(phantom, d, float(rng.normal(0.0, 0.05)))
        assert fn >= 0.0
        if d >= 0.0:
            assert fn == 0.0


def test_phantom_validation():
    mesh = flat_phantom_mesh(np.zeros(3))
    with pytest.raises(ValueError):
        PhantomModel(mesh, contact_stiffness=0.0)
    with pytest.raises(ValueError):
        PhantomModel(mesh, contact_stiffness=500.0, contact_damping=-1.0)
    with pytest.raises(ValueError):
        flat_phantom_mesh(np.zeros(3), extent=-0.1)
    with pytest.raises(ValueError):
        cap_phantom_mesh(np.zeros(3), sphere_radius=0.05, cap_height=0.06)


def test_cap_mesh_lies_on_sphere():
    mesh = cap_phantom_mesh(np.zeros(3), sphere_radius=0.10, cap_height=0.04, n=41)
    v = mesh.vertices
    assert np.max(v[:, 2]) == pytest.approx(0.04, abs=1e-12)
    sphere_centre = np.array([0.0, 0.0, 0.04 - 0.10])
    r_xy = np.hypot(v[:, 0], v[:, 1])
    rim = np.sqrt(0.10**2 - 0.06**2)
    on_cap = r_xy < rim - 1e-9
    radii = np.linalg.norm(v[on_cap] - sphere_centre, axis=1)
    assert np.max(np.abs(radii - 0.10)) < 1e-12
    # skirt is exactly flat
    assert np.all(v[r_xy > rim + 1e-9, 2] == 0.0)


@pytest.mark.parametrize("kind, centre, args", [
    ("flat", (0.0, 0.0, 0.0), (0.15, 31)),
    ("flat", (0.1, -0.2, 0.3), (0.05, 2)),
    ("cap", (0.0, 0.0, 0.0), (0.10, 0.04, 0.12, 61)),
    ("cap", (-0.3, 0.2, 0.7), (0.05, 0.05, 0.03, 7)),  # a hemisphere cut inside its rim
])
def test_phantom_meshes_are_their_height_fields(kind, centre, args):
    # the grid, heights and axes written out, against the builders' shared helper
    extent, n = args[-2:]
    xs = np.linspace(-extent, extent, n)
    if kind == "flat":
        mesh, heights = flat_phantom_mesh(centre, *args), np.zeros((n, n))
    else:
        mesh = cap_phantom_mesh(centre, *args)
        radius, height = args[:2]
        r2 = xs[:, None] ** 2 + xs[None, :] ** 2
        heights = np.maximum(np.sqrt(np.maximum(radius**2 - r2, 0.0)) - (radius - height), 0.0)
    want = grid_surface_mesh(np.array(centre), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                             np.array([0.0, 0.0, 1.0]), xs, xs, heights)
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.faces, want.faces)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_init_state_reports_placement_distance():
    chart, phantom = flat_rig(0.010)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    assert st.rho[2] == pytest.approx(0.010, abs=1e-9)
    assert abs(st.rho[0]) < 1e-9 and abs(st.rho[1]) < 1e-9
    # pitch offsets cancel at the scan posture, so alignment is exact
    assert np.linalg.norm(st.rho[3:]) < 1e-12
    assert st.force_n == 0.0
    assert np.array_equal(st.qdot, np.zeros(7))


@pytest.mark.parametrize("q, qdot", [
    (np.array([np.nan, 0.5, 0.0, -1.0, 0.0, 0.5, 0.0]), None),
    (Q_SCAN, np.array([0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 0.0])),
    (Q_SCAN[:6], None),
    (Q_SCAN, np.zeros(8)),
], ids=["q-nan", "qdot-inf", "q-short", "qdot-long"])
def test_init_state_rejects_a_bad_joint_state(q, qdot):
    chart, phantom = flat_rig(0.010)
    with pytest.raises(ValueError):
        init_state(MODEL, chart, phantom, q, qdot)


def test_free_equilibrium_is_exact():
    """No controller, no contact: the state must not move at all."""
    chart, phantom = flat_rig(0.010)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    for _ in range(50):
        st = step(MODEL, chart, phantom, None, hold_setpoint(0.01), st, 1e-3)
    assert np.array_equal(st.q, Q_SCAN)
    assert np.array_equal(st.qdot, np.zeros(7))


def test_step_builds_no_pose(monkeypatch):
    """The probe frame goes from the kinematics sweep to the chart as a
    rotation matrix and a point: a step constructs no Pose."""
    chart, phantom = flat_rig(0.001)
    st = init_state(MODEL, chart, phantom, Q_SCAN)

    def forbidden(self):
        raise AssertionError("a Pose was constructed inside the control step")

    monkeypatch.setattr(Pose, "__post_init__", forbidden)
    for _ in range(5):
        st = step(MODEL, chart, phantom, GAINS, hold_setpoint(-0.002), st, 1e-3, 1.0)
    assert st.t == pytest.approx(5e-3)


def test_step_dt_validation():
    chart, phantom = flat_rig(0.010)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    sp = hold_setpoint(0.01)
    with pytest.raises(ValueError):
        step(MODEL, chart, phantom, None, sp, st, 0.0)
    with pytest.raises(ValueError):
        step(MODEL, chart, phantom, None, sp, st, 6e-3)
    with pytest.raises(ValueError):
        step(MODEL, chart, phantom, None, sp, st, -1e-3)
    # simulate checks dt before its step count divides by it
    for dt in (0.0, float("nan")):
        with pytest.raises(ValueError, match="dt must be in"):
            simulate(MODEL, chart, phantom, None, lambda t: sp, Q_SCAN, 0.01, dt=dt)


def test_step_gufuncs_are_the_public_linalg_bit_for_bit():
    # the step's solve and the damping's minors call numpy's gufuncs
    # without their wrappers: the same bits on the masses and task
    # Jacobians of a short run, a rank-deficient J_rho among them
    chart, phantom = flat_rig(0.001)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    states = [st]
    for _ in range(40):
        st = step(MODEL, chart, phantom, GAINS, hold_setpoint(-0.002), st, 1e-3, 1.0)
        states.append(st)
    rng = np.random.default_rng(2)
    deficient = states[-1].J_rho.copy()
    deficient[5] = 0.5 * deficient[4]
    for st, J in [(st, st.J_rho) for st in states] + [(states[-1], deficient)]:
        b = rng.standard_normal(7)
        assert _umath_linalg.solve1(st.mass, b).tobytes() == np.linalg.solve(st.mass, b).tobytes()
        minors = J.take(_MINOR_IDX)
        assert _umath_linalg.det(minors).tobytes() == np.linalg.det(minors).tobytes()
    assert not np.linalg.det(deficient.take(_MINOR_IDX)).any()


@pytest.mark.parametrize("mass", [lambda m: np.zeros((7, 7)), lambda m: m * (np.arange(7) != 3)],
                         ids=["zero", "rank-6"])
def test_a_singular_mass_is_a_divergence_error(mass):
    # the solve gives NaN where np.linalg.solve raises LinAlgError, and
    # the divergence test stops that step, with no warning
    chart, phantom = flat_rig(0.001)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    bad = st._replace(mass=mass(st.mass))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(bad.mass, np.ones(7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            step(MODEL, chart, phantom, GAINS, hold_setpoint(-0.002), bad, 1e-3)


def _nan_at(v: np.ndarray, i: int) -> np.ndarray:
    v = v.copy()
    v[i] = np.nan
    return v


@pytest.mark.parametrize("make_bad, gains", [
    # the largest finite contact force overflows the 7x7 solve to inf
    pytest.param(lambda st: {"force_n": np.finfo(float).max}, None, id="force-overflow"),
    # impedance_torque does not check its inputs: a NaN in rho or rhodot
    # reaches the integrator, and the divergence test stops the step
    pytest.param(lambda st: {"rho": _nan_at(st.rho, 2)}, GAINS, id="rho-nan"),
    pytest.param(lambda st: {"rhodot": _nan_at(st.rhodot, 4)}, GAINS, id="rhodot-nan"),
])
def test_divergence_error_on_overflow(make_bad, gains):
    chart, phantom = flat_rig(0.010)
    st = init_state(MODEL, chart, phantom, Q_SCAN)
    bad = st._replace(**make_bad(st))
    with pytest.raises(DivergenceError):
        step(MODEL, chart, phantom, gains, hold_setpoint(0.01), bad, 1e-3)


def test_huge_finite_rates_are_a_velocity_breach_not_divergence():
    # the sum of the state's entries overflows to inf while every entry is
    # finite: the entrywise test clears the state, and the velocity limit
    # stops it
    chart, phantom = flat_rig(0.010)
    qdot = np.zeros(7)
    qdot[4] = qdot[5] = 0.9e308
    st = init_state(MODEL, chart, phantom, Q_SCAN, qdot)
    assert st.force_n == 0.0 and 0.9e308 + 0.9e308 == math.inf
    with pytest.raises(JointVelocityError, match="joint 4"):
        step(MODEL, chart, phantom, None, hold_setpoint(0.01), st, 1e-3)


def test_step_raises_on_joint_limit():
    lo, _ = MODEL.joints[3].position_limits
    q = Q_SCAN.copy()
    q[3] = lo + 1e-6
    # the folded posture puts the tip elsewhere; centre the rig under it
    tip = arm_snapshot(MODEL, q).probe.translation
    chart, phantom = flat_rig(0.010, tip=tip)
    qdot = np.zeros(7)
    qdot[3] = -0.01
    st = init_state(MODEL, chart, phantom, q, qdot)
    with pytest.raises(JointLimitError) as ei:
        step(MODEL, chart, phantom, None, hold_setpoint(0.01), st, 1e-3)
    assert ei.value.joint_index == 3


def test_simulate_attaches_partial_log_on_limit_breach():
    # shrink one joint's travel so the contact reach trips it mid-run
    joints = list(MODEL.joints)
    joints[1] = dataclasses.replace(joints[1], position_limits=(0.48, 0.52))
    tight = dataclasses.replace(MODEL, joints=tuple(joints))
    chart, phantom = flat_rig(0.010)
    with pytest.raises(JointLimitError) as ei:
        simulate(tight, chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), Q_SCAN, 2.0)
    log = ei.value.partial_log
    assert log is not None and len(log) >= 1
    assert log.t[0] == 0.0


def slow_model(limit: float):
    return dataclasses.replace(
        MODEL, joints=tuple(dataclasses.replace(j, velocity_limit=limit) for j in MODEL.joints)
    )


def test_step_raises_on_velocity_limit():
    chart, phantom = flat_rig(0.010)
    qdot = np.zeros(7)
    qdot[2] = 0.2
    st = init_state(MODEL, chart, phantom, Q_SCAN, qdot)
    step(slow_model(0.3), chart, phantom, None, hold_setpoint(0.01), st, 1e-3)
    with pytest.raises(JointVelocityError, match="joint 2") as ei:
        step(slow_model(0.1), chart, phantom, None, hold_setpoint(0.01), st, 1e-3)
    assert isinstance(ei.value, ValueError) and ei.value.joint_index == 2
    assert ei.value.value > 0.1


def test_step_raises_on_negative_velocity_past_limit():
    chart, phantom = flat_rig(0.010)
    qdot = np.zeros(7)
    qdot[4] = -0.2
    st = init_state(MODEL, chart, phantom, Q_SCAN, qdot)
    with pytest.raises(JointVelocityError, match="joint 4") as ei:
        step(slow_model(0.1), chart, phantom, None, hold_setpoint(0.01), st, 1e-3)
    assert ei.value.joint_index == 4 and ei.value.value < -0.1


def test_simulate_attaches_partial_log_on_velocity_breach():
    chart, phantom = flat_rig(0.010)
    with pytest.raises(JointVelocityError) as ei:
        simulate(slow_model(0.05), chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), Q_SCAN, 2.0)
    log = ei.value.partial_log
    assert log is not None and log.t[0] == 0.0 and len(log) >= 2
    # every logged step kept its rates within the limit
    assert np.abs(np.diff(log.q, axis=0)).max() / 1e-3 <= 0.05 * (1.0 + 1e-9)


def test_simulate_deadline_timeout():
    chart, phantom = flat_rig(0.010)
    with pytest.raises(TimeoutError) as ei:
        simulate(
            MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(0.01), Q_SCAN, 1.0,
            deadline=0.0,  # monotonic clock is far past zero already
        )
    assert ei.value.partial_log is not None


def test_simulate_argument_validation():
    chart, phantom = flat_rig(0.010)
    sp = lambda t: hold_setpoint(0.01)
    with pytest.raises(ValueError):
        simulate(MODEL, chart, phantom, GAINS, sp, Q_SCAN, 0.0)
    with pytest.raises(ValueError):
        simulate(MODEL, chart, phantom, GAINS, sp, Q_SCAN, 1.0, sample_every=0)


@pytest.mark.parametrize("every", [1, 3])
def test_simulate_resumed_from_a_checkpoint_repeats_the_whole_run(every):
    chart, phantom = flat_rig(0.010)

    def run(duration, checkpoint=None, q0=Q_SCAN):
        return simulate(MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), q0, duration,
                        sample_every=every, checkpoint=checkpoint).table

    checkpoint = Checkpoint(6)
    first = run(0.008, checkpoint)
    assert checkpoint.state.t == first[6 // every, 0] and np.shares_memory(checkpoint.rows, first)
    assert np.array_equal(first, run(0.008))  # filling it changes nothing
    # the resumed run takes neither q0 nor its first steps again
    assert np.array_equal(run(0.02, checkpoint, q0=None), run(0.02))


@pytest.mark.parametrize("steps", [0, 4, 30])
def test_simulate_rejects_a_checkpoint_off_its_sampled_steps(steps):
    chart, phantom = flat_rig(0.010)
    with pytest.raises(ValueError, match="checkpoint steps"):
        simulate(MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(0.01), Q_SCAN, 0.02,
                 sample_every=3, checkpoint=Checkpoint(steps))


def test_simulate_names_duration_and_dt_when_the_step_count_overflows():
    # only quotients that overflow to inf: a huge finite step count would
    # allocate its log table before failing
    chart, phantom = flat_rig(0.010)
    sp = lambda t: hold_setpoint(0.01)
    for duration, dt in ((1e308, 1e-3), (math.inf, 1e-3)):
        with pytest.raises(ValueError, match=r"duration / dt .* duration .* s, dt 0\.001 s"):
            simulate(MODEL, chart, phantom, GAINS, sp, Q_SCAN, duration, dt=dt)


def test_sample_every_keeps_first_and_last():
    chart, phantom = flat_rig(0.010)

    def run(every):
        return simulate(
            MODEL, chart, phantom, None, lambda t: hold_setpoint(0.01), Q_SCAN,
            duration=0.010, dt=1e-3, sample_every=every,
        )

    final = init_state(MODEL, chart, phantom, Q_SCAN)
    for _ in range(10):  # 10 steps: not a multiple of 3 or 7
        final = step(MODEL, chart, phantom, None, hold_setpoint(0.01), final, 1e-3)
    every_step = run(1)
    for every in (1, 3, 7, 10, 10**6):
        log = run(every)
        kept = sorted({*range(0, 11, every), 10})
        assert len(log) == 1 + math.ceil(10 / every) == len(kept), every
        # no unwritten row: every value finite, time strictly increasing,
        # and each row the state of its step
        assert np.isfinite(log.table).all() and (np.diff(log.t) > 0.0).all(), every
        assert np.array_equal(log.table, every_step.table[kept]), every
        assert log.t[-1] == final.t and np.array_equal(log.q[-1], final.q), every
        assert log.force_n[-1] == final.force_n and log.d[-1] == final.rho[2], every
    log = run(3)
    assert len(log) == 5  # steps 0, 3, 6, 9, 10
    assert log.t[0] == 0.0
    assert log.t[-1] == pytest.approx(0.010, abs=1e-12)
    assert log.t[1] == pytest.approx(0.003, abs=1e-12)


def test_nullspace_damping_drains_self_motion():
    """Task impedance cannot see internal motion; the nullspace term kills it."""
    chart, phantom = flat_rig(0.010)
    st0 = init_state(MODEL, chart, phantom, Q_SCAN)
    N = np.eye(7) - np.linalg.pinv(st0.J_rho) @ st0.J_rho
    v = N @ np.random.default_rng(5).normal(0.0, 1.0, 7)
    assert np.linalg.norm(v) > 1e-6
    qdot0 = 0.3 * v / np.linalg.norm(v)
    ke0 = 0.5 * float(qdot0 @ (st0.mass @ qdot0))
    sp = hold_setpoint(0.01)  # matches the initial pose, so only qdot0 acts

    # gain must stay modest: the wrist roll inertia is about 1e-3, so an
    # explicit damping torque k N qdot is only stable for k dt / m < 2
    st = init_state(MODEL, chart, phantom, Q_SCAN, qdot0)
    for _ in range(1000):
        st = step(MODEL, chart, phantom, GAINS, sp, st, 1e-3, nullspace_gain=0.5)
    ke1 = 0.5 * float(st.qdot @ (st.mass @ st.qdot))
    assert ke1 < 0.05 * ke0  # residual rings in the softly damped wrist mode
    # posture coasts a little along the self-motion manifold, then stops
    assert np.max(np.abs(st.q - Q_SCAN)) < 0.2

    # without the term nothing opposes the self-motion and it just coasts
    st = init_state(MODEL, chart, phantom, Q_SCAN, qdot0)
    for _ in range(1000):
        st = step(MODEL, chart, phantom, GAINS, sp, st, 1e-3)
    ke_free = 0.5 * float(st.qdot @ (st.mass @ st.qdot))
    assert ke_free > 0.9 * ke0


# ---------------------------------------------------------------------------
# contact runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ramp_run():
    """Approach from 10 mm, ramp to 4 mm penetration, hold."""
    chart, phantom = flat_rig(0.010, k_t=500.0, damping=20.0)
    profile = ContactProfile(d_start=0.010, d_hold=-0.004, ramp_rate=0.005)
    log = simulate(
        MODEL, chart, phantom, GAINS,
        lambda t: contact_setpoints(profile, t),
        Q_SCAN, duration=6.0, dt=1e-3,
    )
    return profile, log


def test_no_force_at_a_distance(ramp_run):
    _, log = ramp_run
    above = log.d > 0.0
    assert above.any()
    assert np.max(np.abs(log.force_n[above])) == 0.0


def test_ramp_force_monotone_within_ripple(ramp_run):
    profile, log = ramp_run
    sel = (log.t >= 2.0) & (log.t <= profile.ramp_duration) & (log.d < 0.0)
    f = log.force_n[sel]
    assert len(f) > 100
    drop = np.max(np.maximum.accumulate(f) - f)
    assert drop <= 0.05 * log.force_n[-1]


def test_hold_force_settles_to_series_value(ramp_run):
    _, log = ramp_run
    expected = steady_state_force(500.0, 500.0, -0.004)
    assert expected == pytest.approx(1.0, abs=1e-15)
    assert abs(log.force_n[-1] - expected) <= 0.02 * expected
    # at rest the force is the contact spring reading alone
    assert abs(log.force_n[-1] - 500.0 * (-log.d[-1])) < 1e-3


def test_energy_balance_within_one_percent():
    chart, phantom = flat_rig(0.002, k_t=500.0, damping=20.0)
    trace = audited_run(MODEL, chart, phantom, GAINS, hold_setpoint(-0.004), Q_SCAN,
                        duration=5.0, dt=1e-3)
    # the oracle visits the states simulate logs, bit for bit
    log = simulate(MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), Q_SCAN,
                   duration=0.5, dt=1e-3)
    assert len(trace.t) == 5001
    assert np.array_equal(trace.t[:len(log)], log.t) and np.array_equal(trace.d[:len(log)], log.d)
    assert trace.balance_error() < 0.01
    assert np.min(trace.d) < 0.0  # the audit run does reach contact
    assert np.all(np.diff(trace.dissipated) >= 0.0)


def test_convergence_first_order_in_dt():
    """Global error must roughly halve when dt halves (free-space reach)."""
    chart, phantom = flat_rig(0.010)
    target = Setpoint(np.array([0.02, 0.0, 0.005, 0.0, 0.0, 0.0]), np.zeros(6))
    ends = {}
    for dt in (1e-3, 5e-4, 6.25e-5):
        log = simulate(
            MODEL, chart, phantom, GAINS, lambda t: target, Q_SCAN,
            duration=0.3, dt=dt, sample_every=10**6,
        )
        ends[dt] = log.q[-1]
    e1 = np.max(np.abs(ends[1e-3] - ends[6.25e-5]))
    e2 = np.max(np.abs(ends[5e-4] - ends[6.25e-5]))
    assert e1 > 0.0 and e2 > 0.0
    ratio = e1 / e2
    assert 1.5 <= ratio <= 2.5


def test_steady_state_force_examples():
    assert steady_state_force(500.0, 500.0, -0.004) == pytest.approx(1.0, abs=1e-15)
    # rigid contact limit: all deflection lands on the controller spring
    assert steady_state_force(200.0, 1e12, -0.003) == pytest.approx(0.6, rel=1e-9)
    with pytest.raises(ValueError):
        steady_state_force(0.0, 500.0, -0.004)
    with pytest.raises(ValueError):
        steady_state_force(500.0, -1.0, -0.004)
    with pytest.raises(ValueError):
        steady_state_force(500.0, 500.0, 0.001)


def equilibrium_force_oracle(k_ctrl: float, k_t: float, d_hold: float) -> float:
    """Contact force at the root of the 1-D force balance, by bisection."""

    def net(d):
        return k_ctrl * (d_hold - d) + k_t * max(-d, 0.0)

    lo, hi = d_hold, 0.0
    assert net(lo) > 0.0 and net(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if net(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    d_eq = 0.5 * (lo + hi)
    return k_t * (-d_eq)


def test_steady_state_force_matches_root_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        k_ctrl = float(rng.uniform(100.0, 2000.0))
        k_t = float(rng.uniform(100.0, 2000.0))
        d_hold = float(rng.uniform(-0.006, -0.001))
        f = steady_state_force(k_ctrl, k_t, d_hold)
        assert f == pytest.approx(equilibrium_force_oracle(k_ctrl, k_t, d_hold), rel=1e-9)


# ---------------------------------------------------------------------------
# log files
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def short_run():
    chart, phantom = flat_rig(0.002)
    log = simulate(
        MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), Q_SCAN,
        duration=0.3, dt=1e-3, sample_every=5,
    )
    return log


def test_export_format(short_run, tmp_path):
    path = tmp_path / "log.csv"
    export_log(short_run, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(short_run) + 1
    for ln in lines[1:]:
        assert len(ln.split(",")) == 16


def test_export_parse_round_trip(short_run, tmp_path):
    p1 = tmp_path / "a.csv"
    export_log(short_run, p1)
    back = parse_log(p1)
    assert len(back) == len(short_run)
    # 9 significant digits survive the trip exactly
    p2 = tmp_path / "b.csv"
    export_log(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("n", [1, EXPORT_BLOCK, 2 * EXPORT_BLOCK + 37])
def test_block_export_is_the_row_at_a_time_form(tmp_path, n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 16)) * 10.0 ** rng.integers(-20, 20, (n, 16))
    table[:, 0] = np.cumsum(rng.uniform(1e-4, 1e-2, n))
    table[::3, 5] = -0.0
    export_log(ScanLog(table), tmp_path / "log.csv")
    row = ",".join(["%.9g"] * 16)
    expect = "\n".join([CSV_HEADER] + [row % tuple(r.tolist()) for r in table]) + "\n"
    assert (tmp_path / "log.csv").read_bytes() == expect.encode()


def test_identical_runs_export_identical_bytes(tmp_path):
    blobs = []
    for k in range(2):
        chart, phantom = flat_rig(0.002)
        log = simulate(
            MODEL, chart, phantom, GAINS, lambda t: hold_setpoint(-0.004), Q_SCAN,
            duration=0.3, dt=1e-3,
        )
        p = tmp_path / f"run{k}.csv"
        export_log(log, p)
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]


def test_parse_rejects_malformed(tmp_path, short_run):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,log\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_log(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_log(bad2)
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    with pytest.raises(ValueError):
        parse_log(empty)


def test_parse_names_the_file_and_line_of_a_bad_cell(tmp_path, short_run):
    good = tmp_path / "good.csv"
    export_log(short_run, good)
    lines = good.read_text().split("\n")
    cells = lines[2].split(",")
    cells[5] = "x"
    lines[2] = ",".join(cells)
    bad = tmp_path / "garbage.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"garbage\.csv: line 3: could not convert"):
        parse_log(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_cells(tmp_path, short_run, value):
    good = tmp_path / "good.csv"
    export_log(short_run, good)
    lines = good.read_text().split("\n")
    lines[1] = ",".join([lines[1].split(",")[0]] + [value] * 15)
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"nan\.csv: line 2: non-finite value"):
        parse_log(bad)


def test_scanlog_validation():
    table = np.zeros((4, 16))
    table[:, 0] = np.linspace(0.0, 0.3, 4)
    ScanLog(table)  # fine
    ScanLog(table[:1])  # one sample is a log
    with pytest.raises(ValueError, match="strictly increasing"):
        ScanLog(table[::-1].copy())
    with pytest.raises(ValueError, match="strictly increasing"):
        ScanLog(table[[0, 1, 1, 2]])
    for bad in (table[:, :15], np.zeros((0, 16)), table[0], table[None]):
        with pytest.raises(ValueError, match=r"non-empty \(n, 16\) table"):
            ScanLog(bad)


def test_scanlog_columns_match_the_csv_header(tmp_path):
    # a short raster from a rolled and tilted start: s1, s2, eps and the
    # force all move, so no two columns hold the same values
    chart, phantom = flat_rig(0.0005)
    path = RasterPath(np.array([-0.004, -0.003]), np.array([0.004, 0.003]), 0.003, 0.05, -0.004)
    q0 = Q_SCAN + np.array([0.0, 0.0, 0.0, 0.0, 0.05, 0.0, 0.1])
    log = simulate(MODEL, chart, phantom, GAINS, path.setpoint, q0, duration=0.1, sample_every=4)
    export_log(log, tmp_path / "log.csv")
    lines = (tmp_path / "log.csv").read_text().splitlines()
    csv = dict(zip(lines[0].split(","), np.array([ln.split(",") for ln in lines[1:]], dtype=float).T))
    assert len({c.tobytes() for c in csv.values()}) == 16  # 16 distinct columns
    columns = {name: csv[name] for name in ("t", "s1", "s2", "d", "d_d", "force_n")}
    columns["q"] = np.column_stack([csv[f"q{j}"] for j in range(7)])
    columns["eps"] = np.column_stack([csv[f"eps{j}"] for j in (1, 2, 3)])
    back = parse_log(tmp_path / "log.csv")
    for name, column in columns.items():
        assert np.array_equal(getattr(back, name), column), name
        # the CSV keeps 9 significant digits
        np.testing.assert_allclose(getattr(log, name), column, rtol=1e-8, atol=0.0, err_msg=name)


def test_scanlog_row_layout(short_run):
    r = short_run.table[0]
    assert r.shape == (16,)
    assert r[0] == short_run.t[0]
    assert np.array_equal(r[1:8], short_run.q[0])
    assert r[10] == short_run.d[0]
    assert r[15] == short_run.force_n[0]
