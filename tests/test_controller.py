"""Impedance law, setpoint generators, nullspace damping."""
import math

import numpy as np
import pytest

from surfscan import controller
from surfscan.controller import (
    ContactProfile,
    ImpedanceGains,
    RasterPath,
    Setpoint,
    contact_setpoints,
    critical_damping,
    impedance_torque,
    nullspace_damping,
    nullspace_projector,
    task_space_inertia,
)


def random_rho(rng, scale=0.3) -> np.ndarray:
    return rng.uniform(-scale, scale, 6)


# a representative gain set (our values; the source gives none)
DEFAULT_GAINS = ImpedanceGains(
    np.diag([300.0, 300.0, 500.0, 5.0, 5.0, 1.0]),
    np.diag([35.0, 35.0, 45.0, 0.9, 0.9, 0.4]),
)


def random_spd(rng, n, shift) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T) + shift * np.eye(n)


# ---------------------------------------------------------------------------
# impedance_torque
# ---------------------------------------------------------------------------


def test_zero_error_gives_exactly_zero_torque():
    rng = np.random.default_rng(0)
    gains = DEFAULT_GAINS
    J = rng.standard_normal((6, 7))
    rho = random_rho(rng)
    rhodot = rng.standard_normal(6)
    sp = Setpoint(rho, rhodot.copy())
    tau = impedance_torque(gains, sp, rho, rhodot, J)
    assert np.array_equal(tau, np.zeros(7))


def test_unit_distance_row_maps_five_newtons():
    gains = ImpedanceGains(np.diag([300.0, 300.0, 500.0, 5.0, 5.0, 1.0]), np.eye(6))
    J = np.zeros((6, 7))
    J[2, 0] = 1.0
    rho = np.array([0.0, 0.0, -0.013, 0.0, 0.0, 0.0])
    sp = Setpoint(np.array([0.0, 0.0, -0.003, 0.0, 0.0, 0.0]), np.zeros(6))
    tau = impedance_torque(gains, sp, rho, np.zeros(6), J)
    assert tau[0] == pytest.approx(5.0, abs=1e-12)
    assert np.array_equal(tau[1:], np.zeros(6))


def _torque_oracle(K, D, sp: Setpoint, rho, rhodot, J):
    """Same expression, summed element by element in plain Python."""
    e = [sp.rho_d[j] - rho[j] for j in range(6)]
    ve = [sp.rhodot_d[j] - rhodot[j] for j in range(6)]
    f = [
        sum(K[i][j] * e[j] for j in range(6)) + sum(D[i][j] * ve[j] for j in range(6))
        for i in range(6)
    ]
    return np.array([sum(J[i][k] * f[i] for i in range(6)) for k in range(7)])


def test_torque_matches_expression_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        K = random_spd(rng, 6, 8.0)
        D = random_spd(rng, 6, 8.0)
        gains = ImpedanceGains(K, D)
        J = rng.standard_normal((6, 7))
        rho = random_rho(rng)
        sp = Setpoint(random_rho(rng), rng.standard_normal(6))
        rhodot = rng.standard_normal(6)
        tau = impedance_torque(gains, sp, rho, rhodot, J)
        expect = _torque_oracle(K, D, sp, rho, rhodot, J)
        assert np.max(np.abs(tau - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_torque_superposition():
    rng = np.random.default_rng(2)
    gains = DEFAULT_GAINS
    J = rng.standard_normal((6, 7))
    rho0 = np.zeros(6)
    for _ in range(50):
        va = rng.uniform(-0.2, 0.2, 6)
        vb = rng.uniform(-0.2, 0.2, 6)
        ra = rng.standard_normal(6)
        rb = rng.standard_normal(6)
        tau_a = impedance_torque(gains, Setpoint(va, ra), rho0, np.zeros(6), J)
        tau_b = impedance_torque(gains, Setpoint(vb, rb), rho0, np.zeros(6), J)
        tau_ab = impedance_torque(
            gains, Setpoint(va + vb, ra + rb), rho0, np.zeros(6), J
        )
        assert np.max(np.abs(tau_ab - (tau_a + tau_b))) < 1e-12 * max(
            1.0, np.max(np.abs(tau_ab))
        )


def test_gain_scaling_scales_torque():
    rng = np.random.default_rng(3)
    K = random_spd(rng, 6, 8.0)
    D = random_spd(rng, 6, 8.0)
    J = rng.standard_normal((6, 7))
    rho = random_rho(rng)
    sp = Setpoint(random_rho(rng), rng.standard_normal(6))
    rhodot = rng.standard_normal(6)
    tau = impedance_torque(ImpedanceGains(K, D), sp, rho, rhodot, J)
    # powers of two scale each partial sum exactly
    tau2 = impedance_torque(ImpedanceGains(2.0 * K, 2.0 * D), sp, rho, rhodot, J)
    assert np.array_equal(tau2, 2.0 * tau)
    tau3 = impedance_torque(ImpedanceGains(3.0 * K, 3.0 * D), sp, rho, rhodot, J)
    assert np.max(np.abs(tau3 - 3.0 * tau)) < 1e-12 * max(1.0, np.max(np.abs(tau3)))


def test_gain_validation():
    good = np.diag([1.0, 2, 3, 4, 5, 6.0])
    bad_sym = good.copy()
    bad_sym[0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        ImpedanceGains(bad_sym, good)
    with pytest.raises(ValueError, match="positive-definite"):
        ImpedanceGains(np.diag([1.0, 1, 1, 1, 1, 0.0]), good)
    with pytest.raises(ValueError, match="6x6"):
        ImpedanceGains(np.eye(3), good)


# ---------------------------------------------------------------------------
# contact setpoints
# ---------------------------------------------------------------------------

PROFILE = ContactProfile(d_start=0.02, d_hold=-0.003, ramp_rate=0.01, hold_duration=4.0)


def test_ramp_start():
    sp = contact_setpoints(PROFILE, 0.0)
    assert sp.rho_d[2] == 0.02
    assert sp.rhodot_d[2] == -0.01
    assert np.array_equal(sp.rho_d[3:], np.zeros(3))


def test_ramp_end_holds():
    assert PROFILE.ramp_duration == pytest.approx(2.3)
    sp = contact_setpoints(PROFILE, 100.0)
    assert sp.rho_d[2] == -0.003
    assert np.array_equal(sp.rhodot_d, np.zeros(6))


def test_ramp_is_continuous_and_rate_bounded():
    ts = np.linspace(0.0, 2.0 * PROFILE.duration, 800)
    ds = np.array([contact_setpoints(PROFILE, t).rho_d[2] for t in ts])
    dt = ts[1] - ts[0]
    assert np.all(np.abs(np.diff(ds)) <= PROFILE.ramp_rate * dt * (1.0 + 1e-9))
    assert np.all(np.diff(ds) <= 0.0)  # monotone descent
    assert ds[-1] == PROFILE.d_hold


def contact_oracle(profile: ContactProfile, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(rho_d, rhodot_d) by the array formula: d_d = max(d_hold, d_start -
    ramp_rate t), and rate -ramp_rate on d while that is above d_hold."""
    rhodot = np.zeros(6)
    if profile.d_start - profile.ramp_rate * t > profile.d_hold:
        rhodot[2] = -profile.ramp_rate
    d_d = max(profile.d_hold, profile.d_start - profile.ramp_rate * t)
    return np.array([0.0, 0.0, float(d_d), 0.0, 0.0, 0.0]), rhodot


def loop_times(end: float, dt: float) -> np.ndarray:
    """The times a simulation loop reaches, accumulated step by step."""
    ts, t = [0.0], 0.0
    while t < end:
        t = t + dt
        ts.append(t)
    return np.array(ts)


def test_contact_setpoints_match_the_array_formula_bit_for_bit():
    profiles = (
        PROFILE,
        ContactProfile(d_start=0.005, d_hold=-0.002, ramp_rate=0.01, hold_duration=0.5),
        ContactProfile(d_start=0.0, d_hold=-0.001, ramp_rate=0.003, hold_duration=0.0),
    )
    for profile in profiles:
        switch = profile.ramp_duration
        ts = np.concatenate([
            np.linspace(0.0, 2.0 * profile.duration + 1.0, 2001),
            [switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)],
            loop_times(profile.duration + 0.2, 1e-3),
        ])
        for t in ts:
            sp = contact_setpoints(profile, float(t))
            rho_d, rhodot_d = contact_oracle(profile, float(t))
            assert sp.rho_d.tobytes() == rho_d.tobytes()
            assert sp.rhodot_d.tobytes() == rhodot_d.tobytes()


def test_contact_profile_validation():
    with pytest.raises(ValueError, match="exceed"):
        ContactProfile(d_start=-0.005, d_hold=0.0, ramp_rate=0.01)
    with pytest.raises(ValueError, match="ramp_rate"):
        ContactProfile(d_start=0.02, d_hold=0.0, ramp_rate=0.0)
    # each check fails on NaN and infinity
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exceed"):
            ContactProfile(d_start=bad, d_hold=-0.004, ramp_rate=0.005)
        with pytest.raises(ValueError, match="exceed"):
            ContactProfile(d_start=0.01, d_hold=bad, ramp_rate=0.005)
        with pytest.raises(ValueError, match="ramp_rate"):
            ContactProfile(0.01, -0.004, bad)
        with pytest.raises(ValueError, match="hold_duration"):
            ContactProfile(0.01, -0.004, 0.005, bad)
    for t in (-0.1, float("nan")):  # NaN fails the guard too
        with pytest.raises(ValueError, match="non-negative"):
            contact_setpoints(PROFILE, t)


# ---------------------------------------------------------------------------
# raster setpoints
# ---------------------------------------------------------------------------


def square_path(spacing=0.05, speed=0.02) -> RasterPath:
    return RasterPath(
        np.array([0.0, 0.0]), np.array([0.1, 0.1]), spacing, speed, d_hold=-0.003
    )


def test_square_raster_has_three_lines_and_expected_length():
    path = square_path()
    assert len(path.scan_lines()) == 3
    assert path.duration * path.speed == pytest.approx(0.4, abs=1e-12)


def test_raster_speed_never_exceeds_configured():
    path = square_path()
    for t in np.linspace(0.0, path.duration * 1.2, 500):
        sp = path.setpoint(t)
        assert np.linalg.norm(sp.rhodot_d[:2]) <= path.speed + 1e-12
        assert sp.rho_d[2] == path.d_hold
        assert np.array_equal(sp.rhodot_d[2:], np.zeros(4))


def test_raster_position_is_continuous():
    path = square_path()
    ts = np.linspace(0.0, path.duration * 1.1, 1200)
    s = np.array([path.setpoint(t).rho_d[:2] for t in ts])
    step = np.linalg.norm(np.diff(s, axis=0), axis=1)
    assert np.all(step <= path.speed * (ts[1] - ts[0]) + 1e-9)


def test_raster_covers_domain_within_half_spacing():
    path = square_path()
    lines = path.scan_lines()
    grid = np.linspace(0.0, 0.1, 41)
    for s2 in grid:
        assert np.min(np.abs(lines - s2)) <= path.line_spacing / 2.0 + 1e-12


def test_raster_holds_endpoint_after_finish():
    path = square_path()
    end = path.setpoint(path.duration + 5.0)
    last = path.waypoints()[-1]
    assert (end.rho_d[0], end.rho_d[1]) == (last[0], last[1])
    assert np.array_equal(end.rhodot_d, np.zeros(6))


def test_narrow_domain_falls_back_to_single_centre_line():
    path = RasterPath(np.array([0.0, 0.0]), np.array([0.1, 0.03]), 0.05, 0.02, -0.003)
    lines = path.scan_lines()
    assert len(lines) == 1
    assert lines[0] == pytest.approx(0.015, abs=1e-15)
    cover = np.linspace(0.0, 0.03, 13)
    assert np.all(np.abs(lines[0] - cover) <= 0.025 + 1e-12)


def test_span_of_one_spacing_gets_two_lines():
    # the single centre line is only for spans narrower than the spacing
    path = RasterPath(np.array([0.0, 0.0]), np.array([0.1, 0.05]), 0.05, 0.02, -0.003)
    assert path.scan_lines().tolist() == [0.0, 0.05]


def raster_setpoints(s_min, s_max, line_spacing, speed, t, d_hold) -> Setpoint:
    """One-shot raster setpoint: a fresh path per call."""
    return RasterPath(s_min, s_max, line_spacing, speed, d_hold).setpoint(t)


def test_raster_setpoints_function_matches_path():
    sp = raster_setpoints([0.0, 0.0], [0.1, 0.1], 0.05, 0.02, 3.0, -0.003)
    sp2 = square_path().setpoint(3.0)
    assert sp.rho_d == pytest.approx(sp2.rho_d, abs=0)
    assert np.array_equal(sp.rhodot_d, sp2.rhodot_d)


def rebuilt_setpoint(path: RasterPath, t: float):
    """(s1, s2, rhodot) with the waypoints rebuilt and walked on every call,
    by the array formula s = p + remaining * direction."""
    w = path.waypoints()
    seg = np.diff(w, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    remaining = path.speed * t
    for p, delta, length in zip(w[:-1], seg, lengths):
        if remaining < length:
            direction = delta / length
            s = p + remaining * direction
            rhodot = np.zeros(6)
            rhodot[:2] = path.speed * direction
            return s[0], s[1], rhodot
        remaining -= length
    return w[-1][0], w[-1][1], np.zeros(6)


def test_tabled_setpoint_matches_per_call_rebuild():
    paths = (
        square_path(),
        RasterPath(np.array([-0.031, -0.017]), np.array([0.029, 0.0234]), 0.007, 0.013, -0.004),
        RasterPath(np.array([0.0, 0.0]), np.array([0.1, 0.03]), 0.05, 0.02, -0.003),  # one line
        RasterPath(np.array([0.02, 0.0]), np.array([0.02, 0.05]), 0.01, 0.02, -0.003),  # no width
    )
    for path in paths:
        ends = np.cumsum(np.linalg.norm(np.diff(path.waypoints(), axis=0), axis=1)) / path.speed
        ts = np.concatenate([
            np.linspace(0.0, 1.3 * path.duration, 700),
            ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
            [path.duration, path.duration + 10.0],
            loop_times(1.05 * path.duration, path.duration / 997.0),
        ])
        for t in ts:
            sp = path.setpoint(float(t))
            s1, s2, rhodot = rebuilt_setpoint(path, float(t))
            expect = np.array([float(s1), float(s2), path.d_hold, 0.0, 0.0, 0.0])
            assert sp.rho_d.tobytes() == expect.tobytes()
            assert sp.rhodot_d.tobytes() == rhodot.tobytes()
        legs = np.linalg.norm(np.diff(path.waypoints(), axis=0), axis=1)
        assert path.duration == float(np.sum(legs)) / path.speed


def test_setpoint_rates_are_shared_and_read_only():
    path = square_path()
    setpoints = [contact_setpoints(PROFILE, t) for t in (0.0, 1.0, 100.0)]
    setpoints += [path.setpoint(t) for t in (0.0, 3.0, 7.0, path.duration + 1.0)]
    for sp in setpoints:
        with pytest.raises(ValueError, match="read-only"):
            sp.rhodot_d[2] = 1.0
        sp.rho_d[0] = 1.0  # the position is each call's own array
    assert contact_setpoints(PROFILE, 0.5).rhodot_d is contact_setpoints(PROFILE, 1.0).rhodot_d
    assert path.setpoint(2.0).rhodot_d is path.setpoint(3.0).rhodot_d
    assert contact_setpoints(PROFILE, 0.0).rho_d[0] == 0.0 and path.setpoint(0.0).rho_d[0] == 0.0


def test_raster_glides_from_the_origin_to_its_first_corner():
    # a domain that leaves out s = (0, 0), where the contact approach ends
    path = RasterPath(np.array([0.03, -0.04]), np.array([0.07, 0.02]), 0.01, 0.02, -0.003)
    corner = np.array([0.03, -0.04])
    assert np.array_equal(path.waypoints()[:2], [[0.0, 0.0], corner])
    t_corner = float(np.linalg.norm(corner)) / path.speed
    start = path.setpoint(0.0)
    assert np.array_equal(start.rho_d, [0.0, 0.0, path.d_hold, 0.0, 0.0, 0.0])
    direction = corner / np.linalg.norm(corner)
    for t in (0.0, 0.3 * t_corner, np.nextafter(t_corner, 0.0)):
        sp = path.setpoint(t)
        np.testing.assert_allclose(sp.rho_d[:2], path.speed * t * direction, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sp.rhodot_d[:2], path.speed * direction, rtol=1e-15, atol=0)
    at_corner = path.setpoint(t_corner)
    np.testing.assert_allclose(at_corner.rho_d[:2], corner, rtol=0, atol=1e-15)
    assert np.array_equal(at_corner.rhodot_d[:2], [path.speed, 0.0])  # the first scan line


def test_raster_validation():
    with pytest.raises(ValueError, match="positive"):
        square_path(spacing=0.0)
    with pytest.raises(ValueError, match="s_min"):
        RasterPath(np.array([0.2, 0.0]), np.array([0.1, 0.1]), 0.05, 0.02, -0.003)
    # each check fails on NaN and infinity
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive"):
            square_path(spacing=bad)
        with pytest.raises(ValueError, match="positive"):
            square_path(speed=bad)
        for corner in (np.array([bad, 0.0]), np.array([0.0, -bad])):
            with pytest.raises(ValueError, match="s_min"):
                RasterPath(corner, np.array([0.1, 0.1]), 0.05, 0.02, -0.003)
    for t in (-0.1, float("nan")):  # NaN fails the guard too
        with pytest.raises(ValueError, match="non-negative"):
            square_path().setpoint(t)


# ---------------------------------------------------------------------------
# nullspace damping
# ---------------------------------------------------------------------------


def test_null_projector_annihilates_task_rows():
    rng = np.random.default_rng(4)
    for _ in range(50):
        J = rng.standard_normal((6, 7))
        N = nullspace_projector(J)
        assert np.max(np.abs(J @ N)) < 1e-9
        assert np.max(np.abs(N - N.T)) < 1e-12
        assert np.max(np.abs(N @ N - N)) < 1e-12


def test_zero_velocity_gives_zero_torque():
    rng = np.random.default_rng(5)
    J = rng.standard_normal((6, 7))
    assert np.array_equal(nullspace_damping(J, np.zeros(7), 2.0), np.zeros(7))


def test_row_space_motion_is_untouched():
    rng = np.random.default_rng(6)
    for _ in range(50):
        J = rng.standard_normal((6, 7))
        qdot = J.T @ rng.standard_normal(6)
        tau = nullspace_damping(J, qdot, 3.0)
        assert np.max(np.abs(tau)) < 1e-8 * max(1.0, np.max(np.abs(qdot)))


def test_nullspace_power_is_dissipative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        J = rng.standard_normal((6, 7))
        qdot = rng.standard_normal(7)
        tau = nullspace_damping(J, qdot, 1.5)
        assert float(qdot @ tau) <= 1e-12


def test_rank_deficient_jacobian_damps_everything_lost():
    qdot = np.ones(7)
    tau = nullspace_damping(np.zeros((6, 7)), qdot, 2.0)
    assert np.allclose(tau, -2.0 * qdot, atol=1e-15)
    for gain in (-1.0, float("nan")):  # NaN fails the guard too, on either branch
        with pytest.raises(ValueError, match="non-negative"):
            nullspace_damping(np.zeros((6, 7)), qdot, gain)
        with pytest.raises(ValueError, match="non-negative"):
            nullspace_damping(np.eye(6, 7), qdot, gain)


def test_closed_form_null_torque_matches_projector():
    rng = np.random.default_rng(11)
    for scale in (1e-2, 1.0, 30.0):
        for _ in range(200):
            J = scale * rng.standard_normal((6, 7))
            qdot = rng.standard_normal(7)
            tau = nullspace_damping(J, qdot, 0.5)
            expect = -0.5 * (nullspace_projector(J) @ qdot)
            assert np.max(np.abs(tau - expect)) < 1e-12


def _counting_projector(monkeypatch):
    calls = []
    original = controller.nullspace_projector

    def counted(J):
        calls.append(J)
        return original(J)

    monkeypatch.setattr(controller, "nullspace_projector", counted)
    return calls


def test_full_rank_jacobian_skips_the_svd(monkeypatch):
    calls = _counting_projector(monkeypatch)
    J = np.random.default_rng(12).standard_normal((6, 7))
    nullspace_damping(J, np.ones(7), 1.0)
    assert calls == []


def test_rank_drop_takes_the_svd_fallback(monkeypatch):
    rng = np.random.default_rng(13)
    qdot = rng.standard_normal(7)
    dup_cols = rng.standard_normal((6, 7))
    dup_cols[:, 5:] = dup_cols[:, 3:5]  # two duplicated columns: rank 5
    dup_row = rng.standard_normal((6, 7))
    dup_row[5] = dup_row[0]  # rank 5
    calls = _counting_projector(monkeypatch)
    for k, J in enumerate((dup_cols, dup_row)):
        tau = nullspace_damping(J, qdot, 2.0)
        assert len(calls) == k + 1
        N = nullspace_projector(J)
        assert np.linalg.matrix_rank(N) == 2  # no single null vector spans it
        assert np.array_equal(tau, -2.0 * (N @ qdot))


# ---------------------------------------------------------------------------
# critical damping
# ---------------------------------------------------------------------------


def test_commuting_case_matches_scalar_rule():
    k = np.array([300.0, 300.0, 500.0, 5.0, 5.0, 1.0])
    lam = np.array([4.0, 3.0, 5.0, 0.2, 0.3, 0.1])
    D = critical_damping(np.diag(k), np.diag(lam), zeta=0.7)
    expect = np.diag(2.0 * 0.7 * np.sqrt(k * lam))
    assert np.max(np.abs(D - expect)) < 1e-10


def test_general_case_is_spd_and_transform_consistent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        K = random_spd(rng, 6, 8.0)
        lam = random_spd(rng, 6, 8.0)
        D = critical_damping(K, lam, zeta=0.7)
        assert np.max(np.abs(D - D.T)) < 1e-12
        assert np.linalg.eigvalsh(D).min() > 0.0
        # in normalized coordinates the damping must read 2 zeta sqrt(K~)
        w, v = np.linalg.eigh(lam)
        inv_root = (v / np.sqrt(w)) @ v.T
        k_tilde = inv_root @ K @ inv_root
        wk, vk = np.linalg.eigh(k_tilde)
        sqrt_k = (vk * np.sqrt(wk)) @ vk.T
        assert np.max(np.abs(inv_root @ D @ inv_root - 1.4 * sqrt_k)) < 1e-9


def test_task_space_inertia_matches_direct_inverse():
    rng = np.random.default_rng(9)
    for _ in range(30):
        M = random_spd(rng, 7, 10.0)
        J = rng.standard_normal((6, 7))
        lam = task_space_inertia(M, J)
        direct = np.linalg.inv(J @ np.linalg.inv(M) @ J.T)
        assert np.max(np.abs(lam - direct)) < 1e-9 * max(1.0, np.max(np.abs(direct)))
        assert np.array_equal(lam, lam.T)


def test_critical_damping_scales_with_zeta():
    rng = np.random.default_rng(10)
    K = random_spd(rng, 6, 8.0)
    lam = random_spd(rng, 6, 8.0)
    d1 = critical_damping(K, lam, zeta=0.5)
    d2 = critical_damping(K, lam, zeta=1.0)
    assert np.max(np.abs(d2 - 2.0 * d1)) < 1e-10
