"""tools/compare_runs.py: per-file sha256 and per-column CSV deviation."""
import importlib.util
import io
from pathlib import Path

import numpy as np

from surfscan.sim import ScanLog, export_log

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
)
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def _log(shift: float = 0.0) -> ScanLog:
    n = 3
    t = np.array([0.0, 0.001, 0.002])
    q = np.arange(7 * n, dtype=float).reshape(n, 7) / 10.0
    q[1, 4] += shift
    z = np.zeros(n)
    return ScanLog(t, q, z, z, z - 0.004, np.zeros((n, 3)), z, z + 1.5)


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
