"""Scenario runner and CLI tests: config parsing, synthetic fiducials,
stage orchestration, reports, determinism, and exit codes."""
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from surfscan.arm import JointLimitError, JointVelocityError, reference_arm
from surfscan.cli import _COMMAND_STAGES, main
from surfscan.localization import alignment_pose, fit_plane, ScenePlane
from surfscan import scenario
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


def test_seed_override_changes_noise_draws(tmp_path):
    doc = {"markers": {"noise_sigma": 0.002}}
    r0 = run_scenario(doc, tmp_path / "a", stages=("localize",))
    r3 = run_scenario(doc, tmp_path / "b", stages=("localize",), seed=3)
    assert "seed: 3" in r3.report_path.read_text()
    assert (tmp_path / "a" / "markers.yaml").read_bytes() != (
        tmp_path / "b" / "markers.yaml"
    ).read_bytes()


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


def test_cli_seed_flag(tmp_path, capsys):
    assert main(["localize", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert "seed: 5" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["localize", "--seed", "-1", "--out", str(tmp_path)])


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
