"""The names the benchmark calls or patches (perfbench/, listed in ROADMAP
under aim 2) resolve, and the patchable ones are looked up at call time.

perfbench's tracer replaces each function at the attribute its callers
read and counts the calls. A refactor that binds one of them at import
(`from .sim import step as _step`, say) or inlines it leaves the patch
unseen; the counting wrappers below fail on that in a couple of seconds.
"""
from collections import Counter

import numpy as np
import pytest

import surfscan.arm as arm
import surfscan.scenario as scenario
import surfscan.sim as sim
from surfscan.chart import SurfaceChart
from surfscan.controller import RasterPath
from surfscan.mesh import TriMesh
from surfscan.scenario import ScenarioResult, run_scenario

FROZEN = {
    arm: ("arm_snapshot", "reference_arm", "load_arm_model"),
    sim: ("arm_snapshot", "step", "impedance_torque", "nullspace_damping",
          "flat_phantom_mesh", "cap_phantom_mesh"),
    scenario: ("arm_snapshot", "contact_setpoints", "simulate", "export_log", "save_off",
               "render_depth", "fuse_views", "extract_mesh", "mesh_error", "save_pfm",
               "fit_plane", "load_config", "run_scenario"),
    SurfaceChart: ("evaluate_probe",),
    RasterPath: ("setpoint",),
    TriMesh: ("closest_point", "raycast", "raycast_batch", "sample_surface"),
}

# a short contact ramp and a one-line raster on a coarse flat phantom
SCAN_DOC = {
    "phantom": {"grid_n": 11},
    "contact": {"d_start": 0.002, "d_hold": -0.001, "ramp_rate": 0.05, "hold_duration": 0.01},
    "raster": {"half_extents": [0.002, 0.001], "line_spacing": 0.002, "speed": 0.05,
               "d_hold": -0.001, "settle_time": 0.0},
    "sim": {"dt": 0.005},
}
# two small depth views of a coarse cap
RECONSTRUCT_DOC = {
    "phantom": {"kind": "cap", "grid_n": 21},
    "camera": {"fx": 24.0, "fy": 24.0, "cx": 16.0, "cy": 12.0, "width": 32, "height": 24},
    "reconstruction": {"n_views": 2, "resolution": 0.01},
}


@pytest.mark.parametrize("owner", FROZEN, ids=lambda o: o.__name__)
def test_frozen_names_resolve_where_the_tracer_patches_them(owner):
    for name in FROZEN[owner]:
        assert callable(vars(owner).get(name)), f"{owner.__name__}.{name}"


def test_arm_snapshot_and_closest_point_results_keep_their_fields():
    model = arm.reference_arm()
    snap = arm.arm_snapshot(model, np.zeros(7))
    assert snap.probe.translation.shape == (3,)
    assert snap.jacobian.shape == (6, 7) and snap.mass.shape == (7, 7)
    hit = sim.flat_phantom_mesh(np.zeros(3)).closest_point(np.array([0.0, 0.0, 0.1]), 0)
    assert hit.distance == pytest.approx(0.1) and hit.face >= 0
    assert {"logs", "passed"} <= set(ScenarioResult.__dataclass_fields__)


def _count_calls(monkeypatch, calls, owner, name):
    original = vars(owner)[name]

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_patched_names_are_looked_up_at_call_time(monkeypatch, tmp_path):
    calls = Counter()
    for owner, name in ((sim, "step"), (scenario, "simulate"), (scenario, "contact_setpoints"),
                        (RasterPath, "setpoint"), (scenario, "render_depth"),
                        (scenario, "mesh_error")):
        _count_calls(monkeypatch, calls, owner, name)
    run_scenario(SCAN_DOC, tmp_path / "scan", stages=("contact", "raster"))
    run_scenario(RECONSTRUCT_DOC, tmp_path / "reconstruct", stages=("localize", "reconstruct"))
    # the scan's contact and raster resume the approach they share, its own call
    assert calls["simulate"] == 3 and calls["step"] > 0 and calls["contact_setpoints"] > 0
    assert calls["setpoint"] > 0
    assert calls["render_depth"] == 2 and calls["mesh_error"] == 1
