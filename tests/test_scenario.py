"""Scenario runner and CLI tests: config parsing, synthetic fiducials,
stage orchestration, reports, determinism, and exit codes."""
import copy
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from surfscan.arm import JointLimitError, JointVelocityError, reference_arm
from surfscan.cli import _COMMAND_STAGES, main
from surfscan.geometry import Pose
from surfscan.localization import alignment_pose, fit_plane, ScenePlane
from surfscan import scenario, sim
from surfscan.scenario import (
    STAGES,
    ScenarioConfig,
    StageError,
    load_config,
    parse_config,
    run_scenario,
    synthetic_markers,
)
from surfscan.schema import SchemaError
from surfscan.sim import ScanLog, parse_log

from helpers import save_arm_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# small cap pipeline with every noise source switched on, so byte-level
# determinism actually exercises the seeded streams
FAST_DOC = {
    "name": "fast",
    "seed": 7,
    "phantom": {"kind": "cap", "extent": 0.12, "grid_n": 41},
    "markers": {"noise_sigma": 0.001},
    "camera": {"fx": 90.0, "fy": 90.0, "cx": 60.0, "cy": 45.0, "width": 120, "height": 90,
               "depth_noise_sigma": 0.001},
    "reconstruction": {"n_views": 4},
    "contact": {"hold_duration": 1.0},
    "sim": {"sample_every": 5},
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_defaults_from_empty_doc():
    cfg = parse_config({})
    assert cfg.name == "scenario"
    assert cfg.seed == 0
    assert cfg.phantom_kind == "flat"
    assert cfg.damping is None  # critical damping resolved at run time
    assert cfg.stiffness.shape == (6, 6)
    assert cfg.dt == pytest.approx(1e-3)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError, match="bogus"):
        parse_config({"bogus": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(SchemaError, match="controller"):
        parse_config({"controller": {"stiffnes": [1, 2, 3, 4, 5, 6]}})


def test_phantom_kind_rules():
    with pytest.raises(SchemaError, match="flat|cap|mesh"):
        parse_config({"phantom": {"kind": "sphere"}})
    with pytest.raises(SchemaError, match="mesh"):
        parse_config({"phantom": {"kind": "mesh"}})  # no file given
    with pytest.raises(SchemaError, match="mesh"):
        parse_config({"phantom": {"kind": "flat", "mesh": "x.off"}})


def test_damping_accepts_critical_or_gains():
    assert parse_config({"controller": {"damping": "critical"}}).damping is None
    cfg = parse_config({"controller": {"damping": [30.0, 30.0, 90.0, 1.0, 1.0, 0.5]}})
    assert np.allclose(np.diag(cfg.damping), [30, 30, 90, 1, 1, 0.5])
    with pytest.raises(SchemaError, match="critical"):
        parse_config({"controller": {"damping": "soft"}})


def test_stiffness_vector_expands_to_diagonal():
    cfg = parse_config({"controller": {"stiffness": [1, 2, 3, 4, 5, 6]}})
    assert np.array_equal(cfg.stiffness, np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))


def test_bad_scalar_values_rejected():
    with pytest.raises(SchemaError, match="d_start"):
        parse_config({"contact": {"d_start": -0.01}})
    with pytest.raises(SchemaError):
        parse_config({"raster": {"speed": 0.0}})
    with pytest.raises(SchemaError):
        parse_config({"raster": {"half_extents": [0.03, -0.02]}})
    # values the control loop trusts are config errors, not stage failures
    for section, key, value in (
        ("sim", "dt", 0.01), ("sim", "dt", 0.0), ("sim", "dt", -1e-3),
        ("sim", "dt", float("nan")), ("sim", "sample_every", 0),
        ("controller", "nullspace_gain", -1.0),
        # and so are the values the localize and reconstruct stages trust
        ("camera", "view_distance", 0.0), ("camera", "view_angle_deg", 90.0),
        ("camera", "view_angle_deg", -1.0), ("camera", "view_angle_deg", float("nan")),
        ("reconstruction", "n_views", 1), ("reconstruction", "resolution", 0.0),
        ("reconstruction", "resolution", float("nan")), ("reconstruction", "chart_margin", -0.01),
        ("reconstruction", "chart_margin", float("nan")),
        # and so are the phantom, marker, contact and raster values
        ("phantom", "grid_n", 1), ("phantom", "extent", 0.0), ("phantom", "extent", float("nan")),
        ("phantom", "sphere_radius", 0.0), ("phantom", "cap_height", 0.0),
        ("phantom", "cap_height", 0.2), ("phantom", "cap_height", float("nan")),
        ("phantom", "contact_stiffness", 0.0), ("phantom", "contact_damping", -1.0),
        ("markers", "size", 0.0), ("markers", "noise_sigma", -1e-3),
        ("markers", "noise_sigma", float("nan")), ("contact", "ramp_rate", 0.0),
        ("contact", "hold_duration", -1.0), ("contact", "d_hold", 0.0),
        ("contact", "d_hold", float("nan")), ("raster", "d_hold", 1e-3),
        ("raster", "speed", float("nan")), ("raster", "line_spacing", float("nan")),
        ("raster", "settle_time", -1.0),
    ):
        with pytest.raises(SchemaError, match=f"{section}.{key}"):
            parse_config({section: {key: value}})
    with pytest.raises(SchemaError, match="raster.half_extents"):
        parse_config({"raster": {"half_extents": [0.03, float("nan")]}})
    # intrinsics errors are config errors that name the camera field
    for key, value in (
        ("width", 0), ("height", -1), ("fx", 0.0), ("fy", float("nan")), ("cx", 500.0),
        ("depth_noise_sigma", -0.1),
    ):
        with pytest.raises(SchemaError, match=f"config.camera: .*{key}"):
            parse_config({"camera": {key: value}})
    cfg = parse_config({"sim": {"dt": 5e-3}, "controller": {"nullspace_gain": 0.0}})
    assert (cfg.dt, cfg.nullspace_gain) == (5e-3, 0.0)
    cfg = parse_config({"camera": {"view_angle_deg": 0.0},
                        "reconstruction": {"n_views": 2, "chart_margin": 0.0}})
    assert (cfg.view_angle, cfg.n_views, cfg.chart_margin) == (0.0, 2, 0.0)
    cfg = parse_config({"phantom": {"grid_n": 2, "cap_height": 0.1, "contact_damping": 0.0},
                        "markers": {"noise_sigma": 0.0}, "contact": {"hold_duration": 0.0}})
    assert (cfg.phantom_grid_n, cfg.cap_height, cfg.contact_damping) == (2, 0.1, 0.0)
    assert (cfg.marker_noise_sigma, cfg.hold_duration) == (0.0, 0.0)


def test_shipped_configs_parse(tmp_path):
    for name in ("scan_flat.yaml", "pipeline_cap.yaml"):
        cfg = load_config(CONFIG_DIR / name)
        assert isinstance(cfg, ScenarioConfig)
    assert load_config(CONFIG_DIR / "pipeline_cap.yaml").phantom_kind == "cap"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.yaml")


# ---------------------------------------------------------------------------
# synthetic fiducials
# ---------------------------------------------------------------------------


def _plane_and_pose():
    plane = ScenePlane(np.array([0.3, -0.1, 0.2]), np.array([0.0, 0.0, 1.0]))
    return plane, alignment_pose(plane, math.pi / 4, 0.30)


def test_markers_lie_on_plane_and_fit_back():
    plane, pose = _plane_and_pose()
    markers = synthetic_markers(plane, pose, (0.10, 0.09), 0.02)
    assert [m.marker_id for m in markers] == [0, 1, 2, 3]
    R = pose.rotation
    for m in markers:
        world = m.corners @ R.T + pose.translation
        # exact plane membership and the configured marker side length
        assert np.max(np.abs((world - plane.centre) @ plane.normal)) < 1e-12
        assert np.linalg.norm(world[0] - world[1]) == pytest.approx(0.02)
    fitted = fit_plane(markers, pose)
    assert abs(float(fitted.normal @ plane.normal)) > 1.0 - 1e-12


def test_marker_noise_is_seeded():
    plane, pose = _plane_and_pose()
    a = synthetic_markers(plane, pose, (0.1, 0.1), 0.02, 0.001, np.random.default_rng(3))
    b = synthetic_markers(plane, pose, (0.1, 0.1), 0.02, 0.001, np.random.default_rng(3))
    c = synthetic_markers(plane, pose, (0.1, 0.1), 0.02, 0.001, np.random.default_rng(4))
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.corners, mb.corners)
    assert not np.array_equal(a[0].corners, c[0].corners)


def test_marker_argument_validation():
    plane, pose = _plane_and_pose()
    with pytest.raises(ValueError):
        synthetic_markers(plane, pose, (0.1, -0.1), 0.02)
    with pytest.raises(ValueError):
        synthetic_markers(plane, pose, (0.1, 0.1), 0.0)
    with pytest.raises(ValueError):
        synthetic_markers(plane, pose, (0.1, 0.1), 0.02, noise_sigma=0.001)


# ---------------------------------------------------------------------------
# stage orchestration
# ---------------------------------------------------------------------------


def test_stage_name_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_scenario({}, tmp_path, stages=("warmup",))
    with pytest.raises(ValueError, match="duplicate"):
        run_scenario({}, tmp_path, stages=("localize", "localize"))
    with pytest.raises(ValueError, match="localize"):
        run_scenario({}, tmp_path, stages=("reconstruct",))
    with pytest.raises(ValueError, match="localize"):
        run_scenario({}, tmp_path, stages=("reconstruct", "localize"))


def test_localize_writes_artifacts_and_metrics(tmp_path):
    res = run_scenario({}, tmp_path / "run", stages=("localize",))
    assert res.passed
    assert (tmp_path / "run" / "markers.yaml").is_file()
    assert (tmp_path / "run" / "plane.yaml").is_file()
    assert res.metrics["localize"]["plane_normal_error_rad"] < 1e-9
    text = res.report_path.read_text()
    assert text.endswith("overall: PASS\n")
    assert "[localize]" in text
    with open(tmp_path / "run" / "plane.yaml", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    assert np.allclose(doc["normal"], [0.0, 0.0, 1.0])


FAR_VIEW = {"camera": {"view_distance": 123456.7, "view_angle_deg": 45.0}}


def test_localize_distance_bound_scales_with_view_distance(tmp_path):
    # the pose's rounding at this distance is about 1.5e-11 m, past an
    # absolute 1e-12 m bound
    res = run_scenario(FAR_VIEW, tmp_path, stages=("localize",))
    assert res.passed
    assert 0.0 < res.metrics["localize"]["alignment_distance_error_m"] < 1e-12 * 123456.7


def test_localize_distance_check_fails_a_relative_pose_error(tmp_path, monkeypatch):
    true_pose = scenario.alignment_pose

    def pushed_back(plane, angle, distance):
        # the camera 1e-9 of the distance too far back along its axis
        pose = true_pose(plane, angle, distance)
        return Pose(pose.rotation, plane.centre + (1.0 + 1e-9) * (pose.translation - plane.centre))

    monkeypatch.setattr(scenario, "alignment_pose", pushed_back)
    res = run_scenario(FAR_VIEW, tmp_path, stages=("localize",))
    assert not res.passed
    lines = res.report_path.read_text().splitlines()
    assert [x for x in lines if "[FAIL]" in x] == [x for x in lines if x.startswith("alignment_distance")]
    assert res.metrics["localize"]["alignment_angle_error_rad"] < 1e-12


@pytest.mark.parametrize("deg", [1e-4, 1e-6])
def test_localize_angles_hold_at_small_view_angles(tmp_path, deg):
    # acos of the cosine read 1.6e-11 and 2.6e-9 rad here on a true pose
    res = run_scenario({"camera": {"view_angle_deg": deg}}, tmp_path, stages=("localize",))
    assert res.passed
    assert res.metrics["localize"]["alignment_angle_error_rad"] < 1e-12
    assert res.metrics["localize"]["plane_normal_error_rad"] < 1e-9


@pytest.mark.parametrize("deg", [0.0, 1e-6, 45.0])
def test_localize_angle_check_fails_a_pose_rotated_by_1e_9(tmp_path, monkeypatch, deg):
    true_pose = scenario.alignment_pose
    c, s = math.cos(1e-9), math.sin(1e-9)

    def rotated(plane, angle, distance):
        # the camera turned 1e-9 rad about its own x axis, in the tilt plane
        pose = true_pose(plane, angle, distance)
        return Pose(pose.rotation @ np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]),
                    pose.translation)

    monkeypatch.setattr(scenario, "alignment_pose", rotated)
    res = run_scenario({"camera": {"view_angle_deg": deg}}, tmp_path, stages=("localize",))
    assert not res.passed
    assert res.metrics["localize"]["alignment_angle_error_rad"] == pytest.approx(1e-9, rel=1e-3)


def test_seed_override_changes_noise_draws(tmp_path):
    doc = {"markers": {"noise_sigma": 0.002}}
    r0 = run_scenario(doc, tmp_path / "a", stages=("localize",))
    r3 = run_scenario(doc, tmp_path / "b", stages=("localize",), seed=3)
    assert "seed: 3" in r3.report_path.read_text()
    assert (tmp_path / "a" / "markers.yaml").read_bytes() != (
        tmp_path / "b" / "markers.yaml"
    ).read_bytes()


@pytest.mark.parametrize("seed, message", [
    (-1, "override.seed must be non-negative, got -1"),
    (1.5, "override.seed: expected an integer, got 1.5"),
    (True, "override.seed: expected an integer, got True"),
])
def test_seed_override_is_read_like_the_seed_key(tmp_path, seed, message):
    with pytest.raises(SchemaError, match=message):
        run_scenario({}, tmp_path / "run", stages=("localize",), seed=seed)
    assert not (tmp_path / "run").exists()


def test_failed_check_reports_fail_but_completes(tmp_path):
    res = run_scenario({"markers": {"noise_sigma": 0.05}}, tmp_path, stages=("localize",))
    assert not res.passed
    text = res.report_path.read_text()
    assert "[FAIL]" in text
    assert text.endswith("overall: FAIL\n")


def test_stage_timeout_keeps_partial_artifacts(tmp_path):
    # rendering one depth view takes far longer than the budget, so the
    # deadline check before the second view fires on any machine
    with pytest.raises(StageError, match="stage reconstruct") as err:
        run_scenario({}, tmp_path, stages=("localize", "reconstruct"),
                     stage_timeout=1e-3)
    assert err.value.stage == "reconstruct"
    # completed-stage artifacts survive and the report flags the failure
    assert (tmp_path / "markers.yaml").is_file()
    text = (tmp_path / "report.txt").read_text()
    assert "FAILED:" in text
    assert text.endswith("overall: FAIL (stage reconstruct did not finish)\n")


@pytest.mark.parametrize("timeout", [0.0, -5.0, math.nan, math.inf])
def test_stage_timeout_must_be_positive_and_finite(timeout, tmp_path):
    with pytest.raises(ValueError, match="stage_timeout must be positive and finite"):
        run_scenario({}, tmp_path / "run", stages=("localize",), stage_timeout=timeout)
    assert not (tmp_path / "run").exists()


def test_failed_simulation_writes_partial_log(tmp_path):
    # shrink one joint's travel so the contact reach trips it mid-run
    model = reference_arm()
    joints = list(model.joints)
    joints[1] = dataclasses.replace(joints[1], position_limits=(0.48, 0.52))
    save_arm_model(dataclasses.replace(model, joints=tuple(joints)), tmp_path / "tight.yaml")
    doc = {"arm": {"model": str(tmp_path / "tight.yaml")}, "contact": {"hold_duration": 1.0}}
    with pytest.raises(StageError, match="stage contact") as err:
        run_scenario(doc, tmp_path / "run", stages=("contact",))
    assert isinstance(err.value.__cause__, JointLimitError)
    assert not (tmp_path / "run" / "contact_log.csv").exists()
    log = parse_log(tmp_path / "run" / "contact_log.partial.csv")
    assert log.t[0] == 0.0 and len(log) >= 2
    # the CSV keeps 9 significant digits of the attached log
    np.testing.assert_allclose(log.q, err.value.__cause__.partial_log.q, rtol=1e-8, atol=0.0)
    assert "FAILED:" in (tmp_path / "run" / "report.txt").read_text()


def test_velocity_breach_writes_partial_log(tmp_path):
    model = reference_arm()
    joints = tuple(dataclasses.replace(j, velocity_limit=0.01) for j in model.joints)
    save_arm_model(dataclasses.replace(model, joints=joints), tmp_path / "slow.yaml")
    doc = {"arm": {"model": str(tmp_path / "slow.yaml")}, "contact": {"hold_duration": 1.0}}
    with pytest.raises(StageError, match="stage contact") as err:
        run_scenario(doc, tmp_path / "run", stages=("contact",))
    assert isinstance(err.value.__cause__, JointVelocityError)
    assert not (tmp_path / "run" / "contact_log.csv").exists()
    log = parse_log(tmp_path / "run" / "contact_log.partial.csv")
    assert log.t[0] == 0.0 and len(log) >= 2
    assert "FAILED:" in (tmp_path / "run" / "report.txt").read_text()


def test_raster_on_truth_chart(tmp_path):
    doc = {
        "contact": {"d_start": 0.004},
        "raster": {"half_extents": [0.01, 0.008], "speed": 0.02, "settle_time": 1.0},
    }
    res = run_scenario(doc, tmp_path, stages=("raster",))
    assert res.passed
    assert res.metrics["raster"]["chart"] == 0  # no reconstruction ran
    assert res.metrics["raster"]["frac_d_within_1mm"] == 1.0
    assert res.metrics["raster"]["max_abs_d_err_m"] < 1e-3
    assert (tmp_path / "raster_log.csv").is_file()
    assert res.logs["raster"].t[-1] > 0.0


# a short contact ramp, then a raster whose first corner is off s = (0, 0)
TRACED_DOC = {
    "phantom": {"grid_n": 11},
    "contact": {"d_start": 0.002, "d_hold": -0.001, "ramp_rate": 0.05, "hold_duration": 0.01},
    "raster": {"half_extents": [0.003, 0.002], "line_spacing": 0.002, "speed": 0.05,
               "d_hold": -0.001, "settle_time": 0.02},
    "sim": {"dt": 0.005},
}


def _record_setpoints(monkeypatch, calls, schedules):
    """Count the frozen setpoint names' calls, and each stage's setpoint
    evaluations and schedule, through scenario.simulate."""
    for owner, name in ((scenario, "contact_setpoints"), (scenario.RasterPath, "setpoint")):
        original = vars(owner)[name]

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    simulate = scenario.simulate

    def recorded(model, chart, phantom, gains, setpoints, *args, **kwargs):
        def evaluated(t):
            calls["evaluations"] += 1
            return setpoints(t)

        schedules.append(setpoints)
        return simulate(model, chart, phantom, gains, evaluated, *args, **kwargs)

    monkeypatch.setattr(scenario, "simulate", recorded)


def test_every_stage_setpoint_goes_through_a_frozen_name(tmp_path, monkeypatch):
    calls, schedules = {"contact_setpoints": 0, "setpoint": 0, "evaluations": 0}, []
    _record_setpoints(monkeypatch, calls, schedules)
    res = run_scenario(TRACED_DOC, tmp_path, stages=("contact", "raster"))
    assert calls["setpoint"] > 0
    assert calls["contact_setpoints"] + calls["setpoint"] == calls["evaluations"]
    # sample_every 1: one row per evaluation, n_steps + 1 per stage, less the
    # rows both stages take from their shared approach run (all 15: the
    # contact's 14 steps end inside the raster's approach), plus the one
    # setpoint each stage resumes on
    contact, raster = res.logs["contact"].table, res.logs["raster"].table
    shared = len(contact)
    assert np.array_equal(raster[:shared], contact)
    assert calls["evaluations"] == len(contact) + len(raster) - shared + 2


def test_raster_schedule_is_continuous_across_the_approach_join(tmp_path, monkeypatch):
    calls, schedules = {"contact_setpoints": 0, "setpoint": 0, "evaluations": 0}, []
    _record_setpoints(monkeypatch, calls, schedules)
    res = run_scenario(TRACED_DOC, tmp_path, stages=("raster",))
    t = res.logs["raster"].t
    s = np.array([schedules[0](float(x)).rho_d[:2] for x in t])
    step = np.linalg.norm(np.diff(s, axis=0), axis=1)
    speed, dt = TRACED_DOC["raster"]["speed"], TRACED_DOC["sim"]["dt"]
    assert s[0].tolist() == [0.0, 0.0] and step.max() > 0.0
    assert np.all(step <= speed * dt * (1.0 + 1e-9))


def _traced(**sections) -> dict:
    """TRACED_DOC with the given keys of each section replaced."""
    doc = copy.deepcopy(TRACED_DOC)
    for section, keys in sections.items():
        doc.setdefault(section, {}).update(keys)
    return doc


def _count_steps(monkeypatch) -> list:
    """[calls]: a counter of sim.step calls from now on."""
    calls, original = [0], sim.step

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "step", counted)
    return calls


# (overrides of TRACED_DOC, K). The raster's approach is 16 steps; one step
# of margin leaves 15 that the raster may share, in multiples of sample_every
# and at most the contact's own steps (14 with the 0.01 s hold, 12 without).
SHARED_CASES = {
    "approach-bound": (_traced(contact={"hold_duration": 0.05}), 15),
    "sample-every-3": (_traced(contact={"hold_duration": 0.05}, sim={"sample_every": 3}), 15),
    "sample-every-7": (_traced(contact={"hold_duration": 0.05}, sim={"sample_every": 7}), 14),
    "contact-bound": (TRACED_DOC, 14),
    "no-hold": (_traced(contact={"hold_duration": 0.0}), 12),
    "other-d-hold": (_traced(contact={"hold_duration": 0.05}, raster={"d_hold": -0.002}), 0),
}


@pytest.mark.parametrize("case", SHARED_CASES)
def test_scan_raster_resumes_from_the_contact_steps_it_shares(case, tmp_path, monkeypatch):
    """The raster of a contact + raster run takes the contact stage's first
    K steps as they are and writes the raster-only run's log byte for byte;
    so does the contact."""
    doc, shared = SHARED_CASES[case]
    steps = _count_steps(monkeypatch)
    taken = {}
    for name, stages in (("scan", ("contact", "raster")), ("contact", ("contact",)),
                         ("raster", ("raster",))):
        before = steps[0]
        run_scenario(doc, tmp_path / name, stages=stages)
        taken[name] = steps[0] - before
    assert taken["contact"] + taken["raster"] - taken["scan"] == shared
    for name in ("contact", "raster"):
        log = f"{name}_log.csv"
        assert (tmp_path / "scan" / log).read_bytes() == (tmp_path / name / log).read_bytes()


@pytest.mark.parametrize("stages", [("localize", "reconstruct", "contact", "raster"),
                                    ("localize", "contact", "reconstruct", "raster")])
def test_raster_on_the_reconstructed_chart_shares_no_contact_steps(stages, tmp_path):
    # a two-view reconstruction of a coarse cap, which the raster tracks
    doc = _traced(phantom={"kind": "cap", "grid_n": 21}, contact={"hold_duration": 0.05},
                  camera={"fx": 48.0, "fy": 48.0, "cx": 32.0, "cy": 24.0, "width": 64, "height": 48},
                  reconstruction={"n_views": 2, "resolution": 0.01})
    run_scenario(doc, tmp_path / "scan", stages=stages)
    run_scenario(doc, tmp_path / "pipeline", stages=("localize", "reconstruct", "raster"))
    log = "raster_log.csv"
    assert (tmp_path / "scan" / log).read_bytes() == (tmp_path / "pipeline" / log).read_bytes()


def test_raster_failing_after_the_shared_steps_keeps_the_raster_only_partial_log(tmp_path):
    # joint 0 stays put on the approach and turns once the path moves the
    # probe sideways, so this limit trips only after the shared steps
    model = reference_arm()
    joints = list(model.joints)
    joints[0] = dataclasses.replace(joints[0], position_limits=(-0.001, 0.001))
    save_arm_model(dataclasses.replace(model, joints=tuple(joints)), tmp_path / "tight.yaml")
    doc = _traced(arm={"model": str(tmp_path / "tight.yaml")}, contact={"hold_duration": 0.05})
    for name, stages in (("scan", ("contact", "raster")), ("raster", ("raster",))):
        with pytest.raises(StageError, match="stage raster") as err:
            run_scenario(doc, tmp_path / name, stages=stages)
        assert isinstance(err.value.__cause__, JointLimitError)
        assert not (tmp_path / name / "raster_log.csv").exists()
    partial = tmp_path / "raster" / "raster_log.partial.csv"
    assert len(parse_log(partial)) > 16  # past the 15 shared steps
    assert (tmp_path / "scan" / "raster_log.partial.csv").read_bytes() == partial.read_bytes()


def test_scan_rerun_is_byte_identical(tmp_path):
    """Two contact + raster runs that share the approach give the same bytes."""
    doc = SHARED_CASES["sample-every-3"][0]
    digests = []
    for name in ("a", "b"):
        run_scenario(doc, tmp_path / name, stages=("contact", "raster"))
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (tmp_path / name).iterdir()})
    assert set(digests[0]) == {"contact_log.csv", "raster_log.csv", "report.txt"}
    assert digests[0] == digests[1]


def test_seeded_rerun_is_byte_identical(tmp_path):
    """Same config and seed must reproduce every artifact bit for bit."""
    a = run_scenario(FAST_DOC, tmp_path / "a", stages=("localize", "reconstruct", "contact"))
    b = run_scenario(FAST_DOC, tmp_path / "b", stages=("localize", "reconstruct", "contact"))
    assert a.passed and b.passed
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b
    assert "contact_log.csv" in names_a
    assert "recon.off" in names_a
    assert "depth_00.pfm" in names_a
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_contact_rerun_on_the_shared_model_is_byte_identical(tmp_path):
    """Both runs use the one reference_arm() model; the first cannot change
    what the second sees."""
    doc = {"contact": {"hold_duration": 0.3}, "sim": {"sample_every": 5}}
    run_scenario(doc, tmp_path / "a", stages=("contact",))
    run_scenario(doc, tmp_path / "b", stages=("contact",))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "contact_log.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_command_stage_map():
    assert _COMMAND_STAGES["localize"] == ("localize",)
    assert _COMMAND_STAGES["reconstruct"] == ("localize", "reconstruct")
    assert _COMMAND_STAGES["scan"] == ("contact", "raster")
    assert _COMMAND_STAGES["pipeline"] == ("localize", "reconstruct", "raster")
    for stages in _COMMAND_STAGES.values():
        assert all(s in STAGES for s in stages)


def test_cli_localize_passes(tmp_path, capsys):
    assert main(["localize", "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert (tmp_path / "run" / "report.txt").is_file()


def test_cli_runs_as_a_module_from_the_source_tree(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "surfscan", "localize", "--out", str(tmp_path / "run")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("overall: PASS\n")
    assert (tmp_path / "run" / "report.txt").is_file()


def test_cli_seed_flag(tmp_path, capsys):
    assert main(["localize", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert "seed: 5" in capsys.readouterr().out
    assert main(["localize", "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "seed" in err
    assert not (tmp_path / "run").exists()


def test_cli_failed_checks_exit_1(tmp_path, capsys):
    cfg = tmp_path / "noisy.yaml"
    cfg.write_text(yaml.safe_dump({"markers": {"noise_sigma": 0.05}}))
    code = main(["localize", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_cli_q_start_outside_the_model_limits_exits_2(tmp_path, capsys):
    # joint 1's limit on the reference arm is 2.094 rad; the parse cannot
    # see it, the model load must
    cfg = tmp_path / "q_start.yaml"
    cfg.write_text(yaml.safe_dump({"arm": {"q_start": [0.0, 2.5, 0.0, -1.0, 0.0, 0.5, 0.0]}}))
    code = main(["localize", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: arm.q_start: joint 1: value 2.500000 outside limits")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_phantom_extent_too_small_for_its_grid_exits_2(tmp_path, capsys):
    # in bound on its own, but 31 points over 2e-7 m leave degenerate faces
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(yaml.safe_dump({"phantom": {"extent": 1.0e-7}}))
    code = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phantom.extent: 1e-07: degenerate face")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rotation", [[2.0, 0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0, 0.0]],
                         ids=["non-unit", "nan"])
def test_cli_model_quaternion_not_unit_exits_2(tmp_path, capsys, rotation):
    model = tmp_path / "arm.yaml"
    save_arm_model(reference_arm(), model)
    doc = yaml.safe_load(model.read_text())
    doc["joints"][5]["origin"]["rotation"] = rotation
    model.write_text(yaml.safe_dump(doc))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"arm": {"model": str(model)}}))
    code = main(["localize", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: arm.model: {model}.joints[5].origin.rotation: quaternion norm")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_model_error_names_the_file_and_node_and_exits_2(tmp_path, capsys):
    model = tmp_path / "arm.yaml"
    save_arm_model(reference_arm(), model)
    doc = yaml.safe_load(model.read_text())
    doc["link_inertias"][2]["mass"] = -1.0
    model.write_text(yaml.safe_dump(doc))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"arm": {"model": str(model)}}))
    code = main(["localize", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: arm.model: {model}.link_inertias[2]: link mass must be positive")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_cli_out_that_cannot_be_made_exits_2(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "sub" if under else blocker
    code = main(["localize", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "a file\n"


def test_approach_max_force_counts_only_samples_above_the_surface(tmp_path, monkeypatch):
    # forces at and below the surface (d <= 0) belong to the ramp, not the approach
    table = np.zeros((5, 16))
    table[:, 0] = 0.1 * np.arange(5)  # t
    table[:, 10] = [0.02, 5e-4, 0.0, -1e-3, -2e-3]  # d
    table[:, 15] = [0.0, 0.5, 7.0, 9.0, 9.0]  # force_n
    log = ScanLog(table)
    monkeypatch.setattr(scenario, "simulate", lambda *args, **kwargs: log)
    result = run_scenario({}, tmp_path, stages=("contact",))
    assert result.metrics["contact"]["approach_max_force_n"] == 0.5


def test_malformed_config_yaml_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(SchemaError, match="bad.yaml: malformed YAML"):
        load_config(path)


def test_cli_malformed_config_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    code = main(["localize", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.yaml: malformed YAML" in err and "Traceback" not in err


def test_cli_config_errors_exit_2(tmp_path, capsys):
    code = main(["localize", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"bogus": 1}))
    code = main(["localize", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err
    for section, key, value in (
        ("sim", "dt", 0.01), ("sim", "sample_every", 0), ("controller", "nullspace_gain", -1.0),
        ("reconstruction", "n_views", 1), ("reconstruction", "resolution", 0.0),
        ("camera", "view_distance", 0.0), ("phantom", "grid_n", 1), ("phantom", "cap_height", 0.5),
        ("phantom", "contact_stiffness", 0.0), ("markers", "size", 0.0),
        ("contact", "d_hold", 0.0), ("raster", "d_hold", 0.0),
    ):
        bad.write_text(yaml.safe_dump({section: {key: value}}))
        command = "localize" if section in ("phantom", "markers") else "scan"
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
    bad.write_text(yaml.safe_dump({"camera": {"width": 0}}))
    code = main(["reconstruct", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert "camera:" in err and "width" in err and "Traceback" not in err
    # files the config names: one error line naming the file, no --out
    model = tmp_path / "arm_bogus.yaml"
    save_arm_model(reference_arm(), model)
    model.write_text(model.read_text() + "bogus: 1\n")
    for section, key, path in (
        ("arm", "model", tmp_path / "arm_missing.yaml"),
        ("arm", "model", model),
        ("phantom", "mesh", tmp_path / "phantom_missing.off"),
    ):
        node = {key: str(path), **({"kind": "mesh"} if section == "phantom" else {})}
        bad.write_text(yaml.safe_dump({section: node}))
        code = main(["localize", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key}: ") and err.count("\n") == 1
        assert path.name in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_cli_stage_timeout_exit_1(tmp_path, capsys):
    code = main(["reconstruct", "--out", str(tmp_path), "--stage-timeout", "0.001"])
    assert code == 1
    assert "stage reconstruct" in capsys.readouterr().err
    assert (tmp_path / "report.txt").is_file()


@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf", "soon"])
def test_cli_stage_timeout_must_be_positive_and_finite(value, tmp_path, capsys):
    # nan would switch the timeout off, and 0 or -5 would make --out, then fail the stage
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--out", str(tmp_path / "run"), f"--stage-timeout={value}"])
    assert exc.value.code == 2
    assert "--stage-timeout" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_phantom_label_is_an_unknown_key(tmp_path, capsys):
    bad = tmp_path / "label.yaml"
    bad.write_text(yaml.safe_dump({"phantom": {"label": "water:glycerine:gelatine 45:45:10"}}))
    assert main(["localize", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'label'" in err
    assert not (tmp_path / "run").exists()


def test_cli_report_reads_the_verdict_from_the_last_line(tmp_path, capsys):
    # the scenario name goes on the report's first line
    config = tmp_path / "named.yaml"
    config.write_text(yaml.safe_dump({"name": "overall: PASS", "markers": {"noise_sigma": 0.05}}))
    out = str(tmp_path / "run")
    assert main(["localize", "--config", str(config), "--out", out]) == 1
    assert (tmp_path / "run" / "report.txt").read_text().endswith("overall: FAIL\n")
    assert main(["report", "--out", out]) == 1


def test_cli_report_command(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    (tmp_path / "report.txt").write_text("stub\noverall: FAIL\n")
    assert main(["report", "--out", str(tmp_path)]) == 1
    (tmp_path / "report.txt").write_text("stub\noverall: PASS\n")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_requires_out_flag():
    with pytest.raises(SystemExit):
        main(["localize"])
