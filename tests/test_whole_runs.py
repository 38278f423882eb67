"""Every in-bound config ends in a verdict.

Whole `scan` and `pipeline` runs go through `cli.main` in process on
documents drawn by `test_config.in_bound_docs`, so every bounded key can
take any value its declaration accepts. Each run must end in exactly one
of: exit 0 with a passing report, exit 1 with a report that names a
failed check or stage, or exit 2 with one `error:` line and no `--out`;
never an uncaught exception.

Keys that set how much work a run does are capped (see `_capped`), since
their bounds do not limit it: mesh, image, orbit and fusion-grid sizes,
the hold, settle and raster lengths, the time step, and each stage's
wall time through `--stage-timeout`.
"""
import copy
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfscan.cli import main

from test_config import in_bound_docs


def _capped(doc: dict, kind: str) -> dict:
    doc = copy.deepcopy(doc)
    phantom = doc.setdefault("phantom", {})
    phantom["kind"] = kind
    phantom["grid_n"] = min(phantom.get("grid_n", 21), 21)
    phantom["extent"] = min(phantom.get("extent", 0.12), 0.3)  # with the resolution: fusion cells
    recon = doc.setdefault("reconstruction", {})
    recon["n_views"] = min(recon.get("n_views", 3), 3)
    recon["resolution"] = max(recon.get("resolution", 0.005), 0.002)
    doc.setdefault("camera", {}).update(fx=36.0, fy=36.0, cx=24.0, cy=18.0, width=48, height=36)
    contact = doc.setdefault("contact", {})
    contact["hold_duration"] = min(contact.get("hold_duration", 0.2), 0.2)
    raster = doc.setdefault("raster", {})
    raster["settle_time"] = min(raster.get("settle_time", 0.1), 0.1)
    raster["half_extents"] = [min(h, 0.004) for h in raster.get("half_extents", [0.004, 0.004])]
    raster["line_spacing"] = max(raster.get("line_spacing", 0.004), 0.001)  # at most 9 lines
    sim = doc.setdefault("sim", {})
    sim["dt"] = max(sim.get("dt", 1e-3), 5e-4)
    return doc


def run_to_verdict(command: str, doc: dict) -> None:
    """Run `surfscan <command>` on `doc` and check how it ended."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.yaml", Path(tmp) / "out"
        config.write_text(yaml.safe_dump(doc))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out), "--stage-timeout", "5"])
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
            return
        report = (out / "report.txt").read_text().splitlines()
        assert (code, report[-1] == "overall: PASS") in ((0, True), (1, False))
        assert code == 0 or any("[FAIL]" in ln or ln.startswith("FAILED: ") for ln in report)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=in_bound_docs(), kind=st.sampled_from(["flat", "cap"]))
def test_every_in_bound_config_ends_in_a_verdict(doc, kind):
    doc = _capped(doc, kind)
    for command in ("scan", "pipeline"):
        run_to_verdict(command, doc)
