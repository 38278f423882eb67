"""tools/compare_runs.py: per-file sha256, per-column CSV deviation and
per-pixel depth-map deviation."""
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from surfscan.reconstruction import save_pfm
from surfscan.sim import ScanLog, export_log

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
)
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def _log(shift: float = 0.0) -> ScanLog:
    n = 3
    table = np.zeros((n, 16))
    table[:, 0] = [0.0, 0.001, 0.002]
    table[:, 1:8] = np.arange(7 * n, dtype=float).reshape(n, 7) / 10.0
    table[1, 5] += shift  # q4
    table[:, 10] = -0.004  # d
    table[:, 15] = 1.5  # force_n
    return ScanLog(table)


def test_identical_trees(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        export_log(_log(), tmp_path / side / "contact_log.csv")
        (tmp_path / side / "report.txt").write_text("overall: PASS\n")
    out = io.StringIO()
    assert compare_runs.compare(tmp_path / "a", tmp_path / "b", out)
    assert out.getvalue() == (
        "contact_log.csv: sha256 identical\nreport.txt: sha256 identical\n"
    )
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


def test_csv_deviation_per_column(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    export_log(_log(), tmp_path / "a" / "raster_log.csv")
    export_log(_log(2.5e-4), tmp_path / "b" / "raster_log.csv")
    (tmp_path / "b" / "extra.txt").write_text("x")
    out = io.StringIO()
    assert not compare_runs.compare(tmp_path / "a", tmp_path / "b", out)
    lines = out.getvalue().splitlines()
    assert lines[0] == f"extra.txt: only in {tmp_path / 'b'}"
    assert lines[1] == "raster_log.csv: sha256 differs"
    assert "  q4: max |delta| = 0.00025" in lines
    assert "  q3: max |delta| = 0" in lines and "  t: max |delta| = 0" in lines
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare_runs.main([str(tmp_path / "a")]) == 2


def _pair(tmp_path, name, text_a, text_b):
    for side, text in (("a", text_a), ("b", text_b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / name).write_text(text)
    out = io.StringIO()
    assert not compare_runs.compare(tmp_path / "a", tmp_path / "b", out)
    return out.getvalue().splitlines()


def test_report_numbers_deviation(tmp_path):
    a = "stage contact\n  plane_centre_error_m = 2.588e-16 < 1e-09 PASS\noverall: PASS\n"
    b = "stage contact\n  plane_centre_error_m = 2.546e-16 < 1e-09 PASS\noverall: PASS\n"
    lines = _pair(tmp_path, "report.txt", a, b)
    assert lines[0] == "report.txt: sha256 differs"
    assert lines[1] == "  numbers: max |delta| = 4.2e-18"


def test_off_numbers_deviation(tmp_path):
    head = "OFF\n3 1 0\n"
    a = head + "0.0 0.0 1.0\n1.0 0.0 1.0\n0.0 1.0 1.0000000000000002\n3 0 1 2\n"
    b = head + "0.0 0.0 1.0\n1.0 -0.0 1.0\n0.0 1.0 1.0\n3 0 1 2\n"
    lines = _pair(tmp_path, "truth.off", a, b)
    assert lines == ["truth.off: sha256 differs", "  numbers: max |delta| = 2.22e-16"]


@pytest.mark.parametrize("text_b, reason", [
    ("overall: FAIL 1.0\n", "  non-numeric text differs"),
    ("overall: PASS 1.0 2.0\n", "  number counts differ (1 vs 2)"),
])
def test_text_that_does_not_line_up(tmp_path, text_b, reason):
    lines = _pair(tmp_path, "report.txt", "overall: PASS 1.0\n", text_b)
    assert lines == ["report.txt: sha256 differs", reason]


def test_pfm_pixel_deviation(tmp_path):
    depths = np.linspace(0.0, 0.5, 12, dtype=np.float32).reshape(3, 4)
    moved = depths.copy()
    moved[2, 1] += np.float32(0.25)
    for side, name, d in (("a", "depth_00.pfm", depths), ("b", "depth_00.pfm", moved),
                          ("a", "depth_01.pfm", depths), ("b", "depth_01.pfm", depths[:2])):
        (tmp_path / side).mkdir(exist_ok=True)
        save_pfm(d, tmp_path / side / name)
    out = io.StringIO()
    assert not compare_runs.compare(tmp_path / "a", tmp_path / "b", out)
    assert out.getvalue().splitlines() == [
        "depth_00.pfm: sha256 differs",
        "  pixels: max |delta| = 0.25",
        "depth_01.pfm: sha256 differs",
        "  sizes differ (4 x 3 vs 4 x 2)",
    ]


@pytest.mark.parametrize("text_a, text_b, reason", [
    ("x,y\n1,2\n", "x,y\n1,abc\n", "  line 2: y is not a number ('2' vs 'abc')"),
    ("x\n1\n", "x\n1,2\n", "  line 2: 1 vs 2 cells under 1 columns"),
    ("x,y\n1,2\n", "x,y\n1\n", "  line 2: 2 vs 1 cells under 2 columns"),
    ("x\n1\n", "", f"  no header in {Path('b') / 'log.csv'}"),
])
def test_csv_that_does_not_line_up_gives_a_reason_and_goes_on(tmp_path, monkeypatch, text_a,
                                                               text_b, reason):
    monkeypatch.chdir(tmp_path)
    for side, text in (("a", text_a), ("b", text_b)):
        Path(side).mkdir()
        (Path(side) / "log.csv").write_text(text)
        export_log(_log(0.5 if side == "b" else 0.0), Path(side) / "raster_log.csv")
    out = io.StringIO()
    assert not compare_runs.compare(Path("a"), Path("b"), out)
    # the reason, then the next file's comparison
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["log.csv: sha256 differs", reason, "raster_log.csv: sha256 differs"]
    assert "  q4: max |delta| = 0.5" in lines and len(lines) == 3 + 16
