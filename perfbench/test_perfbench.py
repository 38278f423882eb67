"""The benchmark's own tests: `python -m pytest perfbench` from the repository root.

They use shrunken configs so they finish in well under a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _small_variant(kind: str, tmp: Path) -> tuple[dict, tuple]:
    """A short contact+raster scan or a coarse reconstruct: (variant, stages)."""
    if kind == "scan":
        with open(ROOT / "configs" / "scan_flat.yaml") as fh:
            doc = yaml.safe_load(fh)
        doc["contact"].update(workloads.SHORT_CONTACT, hold_duration=0.3)
        doc["raster"].update(workloads.SHORT_RASTER, settle_time=0.1, speed=0.05)
        stages = ("contact", "raster")
    else:
        with open(ROOT / "configs" / "pipeline_cap.yaml") as fh:
            doc = yaml.safe_load(fh)
        doc["phantom"]["grid_n"] = 21
        doc["camera"].update(width=60, height=45, cx=30.0, cy=22.0, fx=45.0, fy=45.0)
        doc["reconstruction"]["n_views"] = 2
        stages = ("localize", "reconstruct")
    path = tmp / f"{kind}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return {"name": kind, "config": str(path)}, stages


@pytest.mark.parametrize("kind, exercised", [
    ("scan", ("arm.arm_snapshot.calls", "chart.evaluate_probe.calls", "sim.step.calls",
              "mesh.closest_point.hinted.calls", "mesh.closest_point.hint_kept_frac",
              "sim.export_log.rows", "controller.setpoint.mean_us", "sim.step.self_us")),
    ("cap", ("mesh.closest_point.cold.calls", "mesh.raycast_batch.rays",
             "reconstruction.mesh_error.s", "reconstruction.render_depth.mean_s",
             "localization.fit_plane.us", "mesh.save_off.s")),
])
def test_traced_artifacts_match_untraced(tmp_path, kind, exercised):
    api = child._Api(ROOT)
    variant, stages = _small_variant(kind, tmp_path)
    cfgs = [api.load_config(variant["config"])]
    runner = child.Runner(api, [variant], cfgs, stages, tmp_path / "out")
    res = child.measure(runner, seconds=0.0, trace=True)

    assert [it["traced"] for it in res["iterations"]] == [False, True]
    # both calls passed their report checks and the traced call reproduced
    # the untraced call's artifact bytes
    assert runner.failed == 0, runner.errors
    assert runner.attempted == 2
    layer = res["per_layer"]
    for name in exercised + ("mesh.first_query.calls", "scenario.run_scenario.self_s"):
        assert layer[name] > 0, name
    assert 0.9 < layer["trace.attributed_frac"] <= 1.0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: run._layer_unit(k) for k in layer}


def test_speed_probe_keeps_artifacts(tmp_path):
    """An untraced run samples the probe, and the probe changes no output byte."""
    api = child._Api(ROOT)
    variant, stages = _small_variant("scan", tmp_path)
    cfgs = [api.load_config(variant["config"])]
    runner = child.Runner(api, [variant], cfgs, stages, tmp_path / "out")
    runner.iteration()  # without the probe: the digest the probed call must match
    res = child.measure(runner, seconds=0.0, trace=False)

    assert runner.failed == 0, runner.errors
    assert runner.attempted == 2
    assert res["probe"]["samples"] > 0
    it = res["iterations"][0]
    raw, quiet = it["calls_raw_s"][0], it["calls_quiet_s"][0]
    assert 0.0 < raw < it["calls_s"][0]
    assert quiet > 0.0


def test_quiet_time_scales_slow_spells():
    from probe import FAST_KERNEL_S, SpeedProbe

    p = SpeedProbe()
    fast = FAST_KERNEL_S
    p.starts.extend([0.0, 1.0, 2.0, 3.0, 9.0])
    p.spent.extend([3 * fast, 4 * fast, 3 * fast, 4 * fast, 3 * fast])
    p.kernel.extend([fast, 2 * fast, fast, 2 * fast, fast])
    raw, quiet = p.interval(0.0, 4.0)
    assert raw == pytest.approx(4.0 - 14 * fast)
    # half the samples ran at half speed: a mean speed of 0.75
    assert quiet == pytest.approx(0.75 * raw)
    assert p.interval(4.0, 5.0) == (1.0, 1.0)


def test_tracer_restores_every_attribute():
    import surfscan.scenario
    import surfscan.sim
    from surfscan.mesh import TriMesh
    from tracer import Tracer

    before = (surfscan.sim.step, surfscan.scenario.arm_snapshot, vars(TriMesh)["closest_point"])
    t = Tracer()
    t.install()
    assert surfscan.sim.step is not before[0]
    t.uninstall()
    after = (surfscan.sim.step, surfscan.scenario.arm_snapshot, vars(TriMesh)["closest_point"])
    assert after == before


def test_configs_follow_the_seed(tmp_path):
    def docs(seed, sub):
        variants = workloads.write_configs("contact_sweep", seed, ROOT, tmp_path / sub)
        return [(v["name"], Path(v["config"]).read_text()) for v in variants]

    assert docs(3, "a") == docs(3, "b")
    names3, names4 = [n for n, _ in docs(3, "a")], [n for n, _ in docs(4, "c")]
    assert names3 != names4
    assert sorted(names3) == sorted(names4)


def test_fails_without_the_program(tmp_path):
    """Without src/ and configs/, run.py exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
